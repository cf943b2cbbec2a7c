//===- campaign.cpp - Timed §4 campaigns over the public Dart API ---------===//
//
// Part of the DART reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The measuring half of the campaign benchmark. run.py builds this program,
// picks the workload seeds, checks the observables against the expected
// ones and turns the raw records printed here into metrics.
//
//   perfbench_campaign --workload NAME --seeds S1,S2,... --seconds T
//                      --trace 0|1 [--spans FILE]
//
// One process runs one workload, so its peak RSS is that workload's. It
// runs the campaign -- every session at every listed seed -- back to back
// for T seconds, compiling the workload's program kSetupReps times before
// the first campaign and after each one (the set-up samples), and prints
// one JSON object of raw records.
//
// With --trace 1 the campaigns alternate untraced and traced. A traced
// campaign also times the public set-up calls the engine makes inside
// Dart::run, with the session's arguments, since the engine cannot be
// entered from outside. Spans stay in memory and go to --spans at exit.
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticSummary.h"
#include "analysis/Verify.h"
#include "core/Dart.h"
#include "ir/Lowering.h"
#include "jit/Jit.h"
#include "sema/Sema.h"
#include "workloads/Workloads.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

using namespace dart;

namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedByCompiler = true;
#else
constexpr bool kSanitizedByCompiler = false;
#endif

// bench_coverage's config_filters: version/debug/window gates on
// initialized globals and a range check on a narrow input.
const char *ConfigFilters = R"(
  int version = 2;
  int debug = 0;
  int window = 16;
  int narrow(char tag) {
    if (tag < 300) {
      return tag + 1;
    }
    return 0;
  }
  int route(char tag, int len) {
    int acc;
    acc = 0;
    if (version != 2) { acc = -1; }
    if (debug == 1) { acc = acc - 1; }
    if (window >= 8) { acc = acc + 1; }
    if (tag < 300) { acc = acc + narrow(tag); }
    if (len == 42) { acc = acc + 2; }
    if (len > 100) {
      if (tag == 7) { acc = acc + 3; }
    }
    return acc;
  }
)";

/// Run budget of one filters_d32 session.
constexpr unsigned kFiltersRuns = 20000;

/// Compiles per set-up batch; a batch runs before the first campaign and
/// after each one, so the set-up samples span the whole run.
constexpr int kSetupReps = 21;

uint64_t wallNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// CPU time of the whole process, all threads.
uint64_t cpuNs() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return uint64_t(T.tv_sec) * 1000000000u + uint64_t(T.tv_nsec);
}

struct Span {
  const char *Name = "";
  uint64_t Start = 0, End = 0;
  uint64_t CpuStart = 0, CpuEnd = 0;
  int Parent = -1;
  int Campaign = -1; ///< -1: set-up compiles
  int Session = -1;  ///< -1: not inside a session
};

class Tracer {
public:
  int begin(const char *Name, int Parent, int Campaign, int Session) {
    Spans.push_back({Name, 0, 0, 0, 0, Parent, Campaign, Session});
    Spans.back().CpuStart = cpuNs();
    Spans.back().Start = wallNs();
    return int(Spans.size() - 1);
  }
  void end(int Id) {
    Spans[Id].End = wallNs();
    Spans[Id].CpuEnd = cpuNs();
  }
  template <typename Fn>
  auto span(const char *Name, int Parent, int Campaign, int Session, Fn &&F) {
    int Id = begin(Name, Parent, Campaign, Session);
    auto Result = F();
    end(Id);
    return Result;
  }

  bool write(const std::string &Path, const std::string &Workload,
             uint64_t Origin) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "{\"id\":%zu,\"name\":\"%s\",\"workload\":\"%s\","
                   "\"campaign\":%d,\"session\":%d,\"parent\":%d,"
                   "\"start_ns\":%llu,\"end_ns\":%llu,\"cpu_ns\":%llu}\n",
                   I, S.Name, Workload.c_str(), S.Campaign, S.Session,
                   S.Parent, (unsigned long long)(S.Start - Origin),
                   (unsigned long long)(S.End - Origin),
                   (unsigned long long)(S.CpuEnd - S.CpuStart));
    }
    return std::fclose(F) == 0;
  }

private:
  std::vector<Span> Spans;
};

struct Workload {
  const char *Name;
  std::string Source;
  unsigned Jobs = 1;
};

std::vector<Workload> allWorkloads() {
  workloads::NsConfig DolevYao;
  DolevYao.DolevYao = true;
  std::string Ns = workloads::needhamSchroederSource(DolevYao);
  return {{"ns_dy_d3", Ns, 1},
          {"ns_dy_d3_j2", Ns, 2},
          {"minisip_audit", workloads::miniSipSource(), 1},
          {"filters_d32", ConfigFilters, 1}};
}

/// The sessions of one campaign at one workload seed; every lever stays
/// at its default and the strategy is the paper's dfs.
std::vector<DartOptions> sessionsFor(const Workload &W, const Dart &D,
                                     uint64_t Seed) {
  std::vector<DartOptions> Out;
  std::string Name = W.Name;
  if (Name == "minisip_audit") {
    // §4.3: every defined function is a toplevel with <= 1000 runs.
    for (const std::string &Fn : D.definedFunctions()) {
      DartOptions O;
      O.ToplevelName = Fn;
      O.MaxRuns = 1000;
      O.Interp.MaxSteps = 1u << 18;
      O.Seed = Seed;
      Out.push_back(O);
    }
    return Out;
  }
  DartOptions O;
  O.Seed = Seed;
  O.Jobs = W.Jobs;
  if (Name == "filters_d32") {
    O.ToplevelName = "route";
    O.Depth = 32;
    O.MaxRuns = kFiltersRuns;
  } else {
    // Fig. 10's Dolev-Yao row at depth 3, explored to completion.
    O.ToplevelName = "ns_step";
    O.Depth = 3;
    O.MaxRuns = 4000000;
  }
  Out.push_back(O);
  return Out;
}

using Counters = std::map<std::string, uint64_t>;

void addReport(Counters &C, const DartReport &R) {
  C["sessions"] += 1;
  C["runs"] += R.Runs;
  C["restarts"] += R.Restarts;
  C["forcing_mismatches"] += R.ForcingMismatches;
  C["solver_calls"] += R.SolverCalls;
  C["steps"] += R.TotalSteps;
  C["queries"] += R.Solver.Queries;
  C["sat"] += R.Solver.Sat;
  C["unsat"] += R.Solver.Unsat;
  C["unknown"] += R.Solver.Unknown;
  C["fm_eliminations"] += R.Solver.FMEliminations;
  C["normalizations"] += R.Solver.Normalizations;
  C["pushes"] += R.Solver.SessionPushes;
  C["pops"] += R.Solver.SessionPops;
  C["unsat_cache_hits"] += R.Solver.SessionCacheHits;
  C["unsat_cache_misses"] += R.Solver.SessionCacheMisses;
  C["slice_full_preds"] += R.Solver.SliceFullPreds;
  C["slice_sent_preds"] += R.Solver.SliceSentPreds;
  C["arena_preds"] += R.Arena.Size;
  C["arena_interns"] += R.Arena.Interns;
  C["arena_hits"] += R.Arena.Hits;
  C["checkpoints_captured"] += R.Snapshot.CheckpointsCaptured;
  C["runs_resumed"] += R.Snapshot.RunsResumed;
  C["resume_misses"] += R.Snapshot.ResumeMisses;
  C["instrs_executed"] += R.Snapshot.InstructionsExecuted;
  C["instrs_skipped"] += R.Snapshot.InstructionsSkipped;
  C["packs_evicted"] += R.Snapshot.PacksEvicted;
  C["capture_ns"] += R.Snapshot.CaptureNanos;
  C["materialize_ns"] += R.Snapshot.MaterializeNanos;
  C["peak_resident_bytes"] =
      std::max(C["peak_resident_bytes"], R.Snapshot.PeakResidentBytes);
  C["jit_sessions"] += R.Jit.Enabled;
  C["jit_code_bytes"] += R.Jit.CodeBytes;
  C["jit_native_instrs"] += R.Jit.NativeInstrs;
  C["jit_deopts"] += R.Jit.Deopts;
  C["proved_dirs"] += R.DirsProvedInfeasible;
}

/// FNV-1a over the coverage bitmap, so the oracle can pin which
/// directions were covered, not only how many.
uint64_t coverageHash(const std::vector<bool> &Bits) {
  uint64_t H = 1469598103934665603ull;
  for (size_t I = 0; I < Bits.size(); I += 8) {
    unsigned Byte = 0;
    for (size_t J = 0; J < 8 && I + J < Bits.size(); ++J)
      Byte |= unsigned(Bits[I + J]) << J;
    H = (H ^ Byte) * 1099511628211ull;
  }
  return H;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if ((unsigned char)C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

struct SessionRecord {
  uint64_t Seed = 0;
  std::string Toplevel;
  double WallMs = 0;
  unsigned Runs = 0;
  bool Bug = false;
  std::string FirstError;
  unsigned Covered = 0;
  uint64_t CoverageHash = 0;
  bool Complete = false;
  uint64_t SolverCalls = 0;
};

struct CampaignRecord {
  bool Traced = false;
  double WallS = 0, CpuS = 0;
  std::vector<SessionRecord> Sessions;
  Counters Totals;
};

/// Times, with the session's arguments, the set-up calls the engine makes
/// at the start of Dart::run: the static summary (which runs taint and
/// dependence inside it), taint and dependence on their own, the prover
/// and the JIT build.
void traceSetup(Tracer &T, const Dart &D, const DartOptions &O, int Parent,
                int Campaign, int Session, Counters &C) {
  const IRModule &M = D.module();
  const std::string &Fn = O.ToplevelName;
  StaticSummary Sum = T.span("analysis.summary", Parent, Campaign, Session,
                             [&] { return computeStaticSummary(M, Fn); });
  TaintResult Taint = T.span("analysis.taint", Parent, Campaign, Session,
                             [&] { return runTaintAnalysis(M, Fn); });
  T.span("analysis.dependence", Parent, Campaign, Session,
         [&] { return runDependenceAnalysis(M, Fn, Taint.PT); });
  T.span("analysis.prove", Parent, Campaign, Session, [&] {
    return proveBranchDirections(M, Fn, Sum, O.Depth == 1);
  });
  T.span("jit.build", Parent, Campaign, Session,
         [&] { return jit::JitProgram::build(M, Fn); });
  C["pruned_sites"] += Sum.prunedCount();
}

CampaignRecord runCampaign(const Dart &D,
                           const std::vector<DartOptions> &Sessions,
                           int Index, Tracer *T) {
  CampaignRecord C;
  C.Traced = T != nullptr;
  int CampaignSpan = T ? T->begin("campaign", -1, Index, -1) : -1;
  uint64_t Wall0 = wallNs(), Cpu0 = cpuNs();
  for (size_t I = 0; I < Sessions.size(); ++I) {
    const DartOptions &O = Sessions[I];
    int SessionSpan = -1;
    if (T) {
      SessionSpan = T->begin("session", CampaignSpan, Index, int(I));
      traceSetup(*T, D, O, SessionSpan, Index, int(I), C.Totals);
    }
    int RunSpan = T ? T->begin("core.run", SessionSpan, Index, int(I)) : -1;
    uint64_t Start = wallNs();
    DartReport R = D.run(O);
    uint64_t End = wallNs();
    if (T) {
      T->end(RunSpan);
      T->end(SessionSpan);
    }
    addReport(C.Totals, R);
    SessionRecord S;
    S.Seed = O.Seed;
    S.Toplevel = O.ToplevelName;
    S.WallMs = double(End - Start) / 1e6;
    S.Runs = R.Runs;
    S.Bug = R.BugFound;
    if (!R.Bugs.empty())
      S.FirstError = R.Bugs[0].Error.toString();
    S.Covered = R.BranchDirectionsCovered;
    S.CoverageHash = coverageHash(R.Coverage);
    S.Complete = R.CompleteExploration;
    S.SolverCalls = R.SolverCalls;
    C.Sessions.push_back(std::move(S));
  }
  C.WallS = double(wallNs() - Wall0) / 1e9;
  C.CpuS = double(cpuNs() - Cpu0) / 1e9;
  if (T)
    T->end(CampaignSpan);
  return C;
}

void printCampaign(const CampaignRecord &C, bool Last) {
  std::printf("  {\"traced\": %s, \"wall_s\": %.9f, \"cpu_s\": %.9f,\n",
              C.Traced ? "true" : "false", C.WallS, C.CpuS);
  std::printf("   \"counters\": {");
  bool First = true;
  for (const auto &[Name, Value] : C.Totals) {
    std::printf("%s\"%s\": %llu", First ? "" : ", ", Name.c_str(),
                (unsigned long long)Value);
    First = false;
  }
  std::printf("},\n   \"sessions\": [\n");
  for (size_t I = 0; I < C.Sessions.size(); ++I) {
    const SessionRecord &S = C.Sessions[I];
    std::printf("    [%llu, %s, %.6f, %u, %s, %s, %u, \"%016llx\", %s, %llu]%s\n",
                (unsigned long long)S.Seed, jsonString(S.Toplevel).c_str(),
                S.WallMs, S.Runs, S.Bug ? "true" : "false",
                jsonString(S.FirstError).c_str(), S.Covered,
                (unsigned long long)S.CoverageHash,
                S.Complete ? "true" : "false",
                (unsigned long long)S.SolverCalls,
                I + 1 < C.Sessions.size() ? "," : "");
  }
  std::printf("   ]}%s\n", Last ? "" : ",");
}

/// The CPUs this process may run on.
std::vector<int> allowedCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::vector<int> Out;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Out.push_back(C);
  return Out;
}

/// Restricts the calling thread, and the threads it starts later, to
/// \p Count of \p Cpus starting at position \p First (cyclically).
void pinTo(const std::vector<int> &Cpus, size_t First, unsigned Count) {
  if (Cpus.empty())
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (size_t I = 0; I < std::min<size_t>(Count, Cpus.size()); ++I)
    CPU_SET(Cpus[(First + I) % Cpus.size()], &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

double peakRssMib() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // KiB on Linux
}

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_campaign --workload NAME "
               "--seeds S1,S2,... --seconds T --trace 0|1 [--spans FILE]\n",
               Msg);
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  std::string WorkloadName, SpansPath;
  std::vector<uint64_t> Seeds;
  double Seconds = -1;
  int Trace = -1;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 >= argc)
      usage(("missing value for " + Arg).c_str());
    std::string Value = argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      WorkloadName = Value;
    } else if (Arg == "--seeds") {
      const char *P = Value.c_str();
      while (*P) {
        uint64_t Seed = std::strtoull(P, &End, 10);
        if (End == P || (*End && *End != ','))
          usage("--seeds takes comma-separated integers");
        Seeds.push_back(Seed);
        P = *End ? End + 1 : End;
      }
    } else if (Arg == "--seconds") {
      Seconds = std::strtod(Value.c_str(), &End);
      if (*End || Seconds < 0)
        usage("--seconds takes a non-negative number");
    } else if (Arg == "--trace") {
      if (Value != "0" && Value != "1")
        usage("--trace takes 0 or 1");
      Trace = Value == "1";
    } else if (Arg == "--spans") {
      SpansPath = Value;
    } else {
      usage(("unknown option " + Arg).c_str());
    }
  }
  if (Seeds.empty() || Seconds < 0 || Trace < 0)
    usage("--seeds, --seconds and --trace are required");
  if (Trace && SpansPath.empty())
    usage("--trace 1 needs --spans");

  std::vector<Workload> All = allWorkloads();
  auto It = std::find_if(All.begin(), All.end(), [&](const Workload &W) {
    return WorkloadName == W.Name;
  });
  if (It == All.end())
    usage(("unknown workload '" + WorkloadName + "'").c_str());
  const Workload &W = *It;

  // Build guard: a silent interpreter fallback or a debug build would
  // otherwise read as a regression.
  const std::string Sanitizer =
      std::strlen(PERFBENCH_SANITIZE) ? PERFBENCH_SANITIZE
      : kSanitizedByCompiler          ? "compiler"
                                      : "";
  const bool JitSupported = jit::jitSupported();
  const long Nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (!kOptimized || !Sanitizer.empty() || !JitSupported) {
    std::fprintf(stderr,
                 "error: refusing to measure: build type '%s', optimized "
                 "%s, sanitizer '%s', JIT %s\n",
                 PERFBENCH_BUILD_TYPE, kOptimized ? "yes" : "no",
                 Sanitizer.c_str(), JitSupported ? "on" : "off");
    return 3;
  }

  const uint64_t Origin = wallNs();
  Tracer T;

  // Set-up samples; traced runs also time the front end's two public
  // halves.
  std::vector<double> SetupS;
  std::unique_ptr<Dart> D;
  auto CompileBatch = [&] {
    for (int Rep = 0; Rep < kSetupReps; ++Rep) {
      std::string Errors;
      uint64_t Start = wallNs();
      D = Dart::fromSource(W.Source, &Errors);
      SetupS.push_back(double(wallNs() - Start) / 1e9);
      if (!D) {
        std::fprintf(stderr, "error: %s does not compile:\n%s\n", W.Name,
                     Errors.c_str());
        std::exit(1);
      }
      if (Trace) {
        DiagnosticsEngine Diags;
        auto TU = T.span("sema.parse_check", -1, -1, -1,
                         [&] { return parseAndCheck(W.Source, Diags); });
        T.span("ir.lower", -1, -1, -1, [&] { return lowerToIR(*TU, Diags); });
      }
    }
  };
  CompileBatch();

  std::vector<DartOptions> Sessions;
  for (uint64_t Seed : Seeds)
    for (DartOptions &O : sessionsFor(W, *D, Seed))
      Sessions.push_back(std::move(O));

  // Closed loop: campaigns back to back until the next one would end past
  // the deadline. Traced runs alternate untraced and traced campaigns, so
  // the tracing overhead is measured under the same conditions. Campaign i
  // runs on the allowed CPUs from the i-th on, so every run samples every
  // CPU: on a shared host one CPU can stay slow for as long as a run lasts.
  std::vector<CampaignRecord> Campaigns;
  const uint64_t Deadline = wallNs() + uint64_t(Seconds * 1e9);
  const size_t MinCampaigns = Trace ? 2 : 1;
  const std::vector<int> Cpus = allowedCpus();
  uint64_t Longest = 0;
  while (Campaigns.size() < MinCampaigns || wallNs() + Longest < Deadline) {
    int Index = int(Campaigns.size());
    bool Traced = Trace && Index % 2 == 1;
    pinTo(Cpus, size_t(Index), W.Jobs);
    uint64_t Start = wallNs();
    Campaigns.push_back(
        runCampaign(*D, Sessions, Index, Traced ? &T : nullptr));
    Longest = std::max(Longest, wallNs() - Start);
    CompileBatch();
  }

  for (const CampaignRecord &C : Campaigns)
    if (C.Totals.at("jit_sessions") != C.Totals.at("sessions")) {
      std::fprintf(stderr, "error: refusing to report: a session ran "
                           "without the JIT\n");
      return 3;
    }
  if (Trace && !T.write(SpansPath, W.Name, Origin)) {
    std::fprintf(stderr, "error: cannot write spans to %s\n",
                 SpansPath.c_str());
    return 1;
  }

  std::printf("{\"workload\": \"%s\",\n", W.Name);
  std::printf(" \"build\": {\"build_type\": \"%s\", \"optimized\": %s, "
              "\"sanitizer\": \"%s\", \"jit\": %s, \"threaded_dispatch\": "
              "%s, \"nproc\": %ld},\n",
              PERFBENCH_BUILD_TYPE, kOptimized ? "true" : "false",
              Sanitizer.c_str(), JitSupported ? "true" : "false",
              PERFBENCH_THREADED_DISPATCH ? "true" : "false", Nproc);
  std::printf(" \"jobs\": %u,\n \"peak_rss_mib\": %.6f,\n \"setup_s\": [",
              W.Jobs, peakRssMib());
  for (size_t I = 0; I < SetupS.size(); ++I)
    std::printf("%s%.9f", I ? ", " : "", SetupS[I]);
  std::printf("],\n \"campaigns\": [\n");
  for (size_t I = 0; I < Campaigns.size(); ++I)
    printCampaign(Campaigns[I], I + 1 == Campaigns.size());
  std::printf(" ]}\n");
  return 0;
}
