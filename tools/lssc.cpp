//===- lssc.cpp - The LSS compiler driver ---------------------------------------===//
///
/// Command-line front end for the LSS pipeline, in the spirit of the
/// original Liberty Simulation Environment's lss compiler:
///
///   lssc [options] file.lss [more.lss ...]
///
///   --print-netlist     dump the elaborated hierarchy with widths/types
///   --stats             print Table 2-style reuse statistics
///   --stats-json FILE   write per-phase/per-group compile stats as JSON
///   --time-phases       print per-phase wall times to stderr
///   --j1                solve type inference serially (one thread)
///   --jobs N            solve H3 inference groups on N threads
///   --emit-static       print the flattened static structural spec
///   --run N             build the simulator and run N cycles
///   --sim-jobs N        with --run: evaluate schedule levels on N worker
///                       threads (wavefront engine; 1 = serial)
///   --watch PATTERN     with --run: count events matching "path event"
///   --no-selective      with --run: exhaustive evaluation (disable the
///                       selective-trace engine); deprecated alias for
///                       --sim-engine interp
///   --no-infer-heuristics  solve types with the naive algorithm (slow!)
///   --trace-order       print the instantiation-stack processing order
///   --max-errors N      stop after N errors (0 = unlimited; default 50)
///   --infer-deadline-ms N  wall-clock deadline for inference groups
///   --cache-dir DIR     reuse parse/elaborate/solve artifacts across runs
///   --no-cache          ignore --cache-dir (always compile cold)
///   --batch FILE        compile every .lss listed in FILE concurrently
///   --daemon ADDR       compile via a running lssd daemon (shared warm
///                       cache); falls back to an in-process compile when
///                       the daemon is unreachable
///   --no-daemon-fallback  with --daemon: exit 1 instead of falling back
///   --deadline-ms N     with --daemon: per-request service budget (queue
///                       wait + compile); expiry degrades inference
///   --incremental       recompile incrementally against the dependency
///                       graph of the previous compile (with --cache-dir
///                       in-process, or server-side with --daemon); see
///                       docs/INCREMENTAL.md
///   --watch-files       with --daemon: poll the inputs' mtimes and send
///                       an incremental recompile per edit (watch mode)
///   --fault-inject SPEC arm deterministic fault injection (testing)
///
/// Flag parsing is the shared driver::FlagParser table (tools/lssd.cpp
/// uses the same helper), so flags both tools expose — the cache flags,
/// --fault-inject, the watch mode — are declared exactly once.
///
/// The tool is a thin shell over driver::CompileService: it builds one
/// CompilerInvocation per model and lets the service run (or reload from
/// the artifact cache) the pipeline phases.
///
/// Exit codes are documented on the ExitCode enum below (0 ok, 1
/// operational, 2 usage, 3 parse/semantic, 4 inference, 5 simulation).
///
/// Multiple .lss inputs are concatenated into one compilation (library
/// modules first), matching the Compiler API.
///
//===----------------------------------------------------------------------===//

#include "baseline/StaticNet.h"
#include "driver/CompileClient.h"
#include "driver/CompileService.h"
#include "driver/Compiler.h"
#include "driver/FlagParser.h"
#include "driver/Stats.h"
#include "netlist/DotEmitter.h"
#include "sim/CompiledKernel.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

using namespace liberty;

namespace {

/// Documented exit codes. Scripts and the test suite key on these, so the
/// values are part of the tool's contract and must not be renumbered:
///   0  success
///   1  operational failure (unreadable input file, unwritable output
///      path)
///   2  usage error (unknown flag, missing argument, no inputs)
///   3  parse or semantic error in the input specification
///   4  type inference failure (unsatisfiable constraints, or the work
///      budget / --infer-deadline-ms deadline was exhausted)
///   5  simulation fault (construction failure, runtime error, or a
///      combinational cycle that did not converge)
enum ExitCode : int {
  ExitSuccess = 0,
  ExitOperational = 1,
  ExitUsage = 2,
  ExitParseSema = 3,
  ExitInference = 4,
  ExitSimFault = 5,
};

struct CliOptions {
  std::vector<std::string> Inputs;
  bool PrintNetlist = false;
  bool Stats = false;
  bool EmitStatic = false;
  bool EmitDot = false;
  bool TraceOrder = false;
  bool NaiveInference = false;
  bool TimePhases = false;
  unsigned Jobs = 0; ///< H3 solver threads; 0 = one per hardware thread.
  std::string StatsJsonPath;
  uint64_t RunCycles = 0;
  bool Selective = true;
  /// The deprecated --no-selective alias (mapped onto Selective after
  /// parsing so the alias and --sim-engine cannot fight mid-parse).
  bool NoSelectiveAlias = false;
  unsigned SimJobs = 1; ///< Wavefront worker threads; 1 = serial engine.
  /// Explicit engine selection; Auto derives the engine from the legacy
  /// --no-selective / --sim-jobs flags.
  sim::EngineKind SimEngine = sim::EngineKind::Auto;
  std::vector<std::pair<std::string, std::string>> Watches;
  /// Error cap shared by the parser, elaboration, and inference through
  /// the DiagnosticEngine; 0 = unlimited.
  unsigned MaxErrors = 50;
  /// Wall-clock deadline for type inference in milliseconds; 0 = none.
  uint64_t InferDeadlineMs = 0;
  /// Artifact cache directory; empty = caching off.
  std::string CacheDir;
  /// Overrides --cache-dir (scripts/presets pass both).
  bool NoCache = false;
  /// File listing one .lss model per line; batch compile mode.
  std::string BatchFile;
  /// lssd address (Unix socket path or localhost port); empty = compile
  /// in-process.
  std::string DaemonAddress;
  /// With --daemon: fail instead of falling back when unreachable.
  bool NoDaemonFallback = false;
  /// With --daemon: per-request service budget in ms (0 = none).
  uint64_t DeadlineMs = 0;
  /// Fault-injection schedule (see support/FaultInjection.h); also
  /// settable via the LSS_FAULT environment variable.
  std::string FaultSpec;
  /// Incremental recompilation against the previous compile's dependency
  /// graph (docs/INCREMENTAL.md). In-process this needs --cache-dir to
  /// find the previous compile; with --daemon it sends `recompile`.
  bool Incremental = false;
  /// Watch mode: poll input mtimes, recompile through the daemon.
  bool WatchFiles = false;
  uint64_t WatchPollMs = 200;
  uint64_t WatchMax = 0; ///< Stop after N recompiles (testing; 0 = never).
};

const char *const UsageSynopsis = "lssc [options] file.lss [more.lss ...]";
const char *const UsageEpilog =
    "exit codes: 0 ok, 1 operational, 2 usage, 3 parse/semantic,\n"
    "            4 inference failure, 5 simulation fault\n";

/// Registers every lssc flag on the shared table. Flags that lssd also
/// exposes (cache, fault injection, the watch mode) come from the
/// FlagParser add*Flags() helpers so both tools stay in lockstep.
void registerFlags(driver::FlagParser &P, CliOptions &Opts) {
  P.boolean("--print-netlist", &Opts.PrintNetlist,
            "dump the elaborated hierarchy");
  P.boolean("--stats", &Opts.Stats, "print reuse statistics");
  P.string("--stats-json", "FILE", &Opts.StatsJsonPath,
           "write per-phase/per-group stats as JSON\n"
           "('-' writes to stdout; status output\n"
           "then moves to stderr)");
  P.boolean("--time-phases", &Opts.TimePhases,
            "print per-phase wall times to stderr");
  P.custom("--j1", nullptr, "solve type inference on one thread",
           [&Opts](const std::string &) {
             Opts.Jobs = 1;
             return true;
           });
  P.unsignedNum("--jobs", "N", &Opts.Jobs,
                "solve H3 inference groups on N threads\n"
                "(default: one per hardware thread);\n"
                "with --batch, also the number of\n"
                "concurrent model compiles",
                "thread count", /*RequirePositive=*/true);
  P.boolean("--emit-static", &Opts.EmitStatic,
            "print the flattened static spec");
  P.boolean("--emit-dot", &Opts.EmitDot,
            "print a Graphviz digraph of the model");
  P.unsignedNum("--run", "N", &Opts.RunCycles, "simulate N cycles",
                "cycle count");
  P.unsignedNum("--sim-jobs", "N", &Opts.SimJobs,
                "simulate with N worker threads (wavefront\n"
                "engine; identical traces for any N)",
                "thread count", /*RequirePositive=*/true);
  P.custom("--sim-engine", "E",
           "select the simulation engine: interp,\n"
           "selective, wavefront, or compiled (all\n"
           "produce identical traces); default is\n"
           "compiled, or interp / wavefront under\n"
           "--no-selective / --sim-jobs",
           [&Opts](const std::string &Name) {
             if (!sim::parseEngineName(Name, Opts.SimEngine)) {
               std::cerr << "lssc: unknown engine '" << Name
                         << "' (expected interp, selective, wavefront, or "
                            "compiled)\n";
               return false;
             }
             return true;
           });
  P.custom("--watch", "'PATH EVENT'",
           "count matching events while running",
           [&Opts](const std::string &Spec) {
             size_t Space = Spec.find(' ');
             if (Space == std::string::npos)
               Opts.Watches.emplace_back(Spec, "*");
             else
               Opts.Watches.emplace_back(Spec.substr(0, Space),
                                         Spec.substr(Space + 1));
             return true;
           });
  P.boolean("--no-selective", &Opts.NoSelectiveAlias,
            "evaluate every component every cycle\n"
            "(disable change-driven evaluation)");
  P.deprecate("--no-selective", "use --sim-engine interp");
  P.boolean("--no-infer-heuristics", &Opts.NaiveInference,
            "use the naive exponential solver");
  P.boolean("--trace-order", &Opts.TraceOrder,
            "print instance processing order\n"
            "(disables the artifact cache: the order\n"
            "only exists in a live elaboration)");
  P.unsignedNum("--max-errors", "N", &Opts.MaxErrors,
                "stop after N errors (0 = unlimited;\n"
                "default 50); shared by parsing,\n"
                "elaboration, and inference",
                "count");
  P.unsignedNum("--infer-deadline-ms", "N", &Opts.InferDeadlineMs,
                "abandon inference groups still unsolved\n"
                "after N ms of wall-clock time (other\n"
                "groups are still solved and reported)",
                "duration", /*RequirePositive=*/true);
  P.addCacheFlags(&Opts.CacheDir, &Opts.NoCache);
  P.string("--batch", "FILE", &Opts.BatchFile,
           "compile every .lss path listed in FILE\n"
           "(one per line, '#' comments) concurrently\n"
           "and report per-model status in list\n"
           "order; exits with the worst model's code");
  P.string("--daemon", "ADDR", &Opts.DaemonAddress,
           "compile via the lssd daemon at ADDR (a\n"
           "Unix socket path or localhost TCP port)\n"
           "and share its warm artifact cache; falls\n"
           "back to an in-process compile (with a\n"
           "note) when the daemon is unreachable");
  P.boolean("--no-daemon-fallback", &Opts.NoDaemonFallback,
            "with --daemon: exit 1 when the daemon is\n"
            "unreachable instead of falling back");
  P.unsignedNum("--deadline-ms", "N", &Opts.DeadlineMs,
                "with --daemon: total service budget per\n"
                "request (queue wait + compile); on expiry\n"
                "inference degrades rather than hangs",
                "duration", /*RequirePositive=*/true);
  P.boolean("--incremental", &Opts.Incremental,
            "recompile against the previous compile's\n"
            "dependency graph, re-elaborating only\n"
            "dirty modules and re-solving only their\n"
            "inference groups (docs/INCREMENTAL.md);\n"
            "in-process this needs --cache-dir, with\n"
            "--daemon it sends `recompile`");
  P.addWatchFilesFlags(&Opts.WatchFiles, &Opts.WatchPollMs, &Opts.WatchMax);
  P.addFaultInjectFlag(&Opts.FaultSpec);
}

/// Parses the command line and validates flag combinations.
/// Returns -1 to proceed, or the exit code to return at once (--help
/// exits 0 after printing the usage text; errors exit 2).
int parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  driver::FlagParser P("lssc");
  registerFlags(P, Opts);
  auto usage = [&] { P.printUsage(std::cerr, UsageSynopsis, UsageEpilog); };
  if (!P.parse(Argc, Argv, &Opts.Inputs)) {
    usage();
    return ExitUsage;
  }
  if (P.helpRequested()) {
    usage();
    return ExitSuccess;
  }
  auto reject = [&](const std::string &Why) {
    std::cerr << "lssc: " << Why << "\n";
    usage();
    return ExitUsage;
  };
  // The deprecated engine aliases map onto the explicit selection here.
  // --no-selective already printed its note; --sim-jobs only notes when
  // it is actually selecting the engine (the flag keeps its worker-count
  // role under --sim-engine wavefront).
  if (Opts.NoSelectiveAlias)
    Opts.Selective = false;
  if (Opts.SimJobs > 1 && Opts.SimEngine == sim::EngineKind::Auto)
    std::cerr << "lssc: note: selecting the engine via --sim-jobs is "
                 "deprecated; use --sim-engine wavefront (with --sim-jobs "
                 "N for the worker count)\n";
  if (!Opts.BatchFile.empty() && !Opts.Inputs.empty())
    return reject("--batch cannot be combined with input files");
  if (Opts.Inputs.empty() && Opts.BatchFile.empty())
    return reject("no input files");
  if (Opts.DaemonAddress.empty()) {
    if (Opts.NoDaemonFallback)
      return reject("--no-daemon-fallback requires --daemon");
    if (Opts.DeadlineMs)
      return reject("--deadline-ms requires --daemon");
    if (Opts.WatchFiles)
      return reject("--watch-files requires --daemon (the watch mode "
                    "recompiles through the lssd dependency cache)");
  } else {
    // The daemon returns a compile verdict, not artifacts: flags that need
    // the netlist/simulator in this process cannot be served remotely.
    const char *Bad = nullptr;
    if (Opts.RunCycles || !Opts.Watches.empty())
      Bad = "--run";
    else if (Opts.PrintNetlist)
      Bad = "--print-netlist";
    else if (Opts.Stats)
      Bad = "--stats";
    else if (Opts.EmitStatic)
      Bad = "--emit-static";
    else if (Opts.EmitDot)
      Bad = "--emit-dot";
    else if (Opts.TraceOrder)
      Bad = "--trace-order";
    else if (Opts.TimePhases)
      Bad = "--time-phases";
    if (Bad) {
      std::cerr << "lssc: " << Bad
                << " cannot be combined with --daemon (the daemon keeps "
                   "artifacts server-side)\n";
      usage();
      return ExitUsage;
    }
  }
  if (Opts.WatchFiles && !Opts.BatchFile.empty())
    return reject("--watch-files cannot be combined with --batch");
  if (Opts.Incremental && !Opts.BatchFile.empty())
    return reject("--incremental cannot be combined with --batch");
  if (Opts.Incremental && Opts.TraceOrder)
    return reject("--incremental cannot be combined with --trace-order "
                  "(which disables the artifact cache)");
  if (Opts.Incremental && Opts.DaemonAddress.empty() && Opts.CacheDir.empty())
    return reject("--incremental requires --cache-dir (or --daemon): the "
                  "previous compile's dependency graph lives in the "
                  "artifact cache");
  return -1;
}

/// Everything of the invocation except the sources: the per-phase options
/// the flags select. Shared by the single-model and batch paths.
driver::CompilerInvocation makeInvocation(const CliOptions &Opts) {
  driver::CompilerInvocation Inv;
  Inv.MaxErrors = Opts.MaxErrors;
  Inv.Solve = Opts.NaiveInference ? infer::SolveOptions::naive()
                                  : infer::SolveOptions();
  Inv.Solve.NumThreads = Opts.Jobs; // 0 = one per hardware thread.
  Inv.Solve.DeadlineMs = Opts.InferDeadlineMs;
  Inv.Sim.Selective = Opts.Selective;
  Inv.Sim.Jobs = Opts.SimJobs;
  Inv.Sim.Engine = Opts.SimEngine;
  Inv.BuildSim = Opts.RunCycles > 0;
  return Inv;
}

const char *phaseName(driver::CompileResult::Phase P) {
  switch (P) {
  case driver::CompileResult::Phase::Parse:
    return "parsing";
  case driver::CompileResult::Phase::Elaborate:
    return "elaboration";
  case driver::CompileResult::Phase::Infer:
    return "type inference";
  case driver::CompileResult::Phase::SimBuild:
    return "simulator construction";
  case driver::CompileResult::Phase::None:
    break;
  }
  return "compilation";
}

int phaseExitCode(driver::CompileResult::Phase P) {
  switch (P) {
  case driver::CompileResult::Phase::Parse:
  case driver::CompileResult::Phase::Elaborate:
    return ExitParseSema;
  case driver::CompileResult::Phase::Infer:
    return ExitInference;
  case driver::CompileResult::Phase::SimBuild:
    return ExitSimFault;
  case driver::CompileResult::Phase::None:
    break;
  }
  return ExitSuccess;
}

/// True if the compile picked up cache-maintenance notes (corrupt or
/// unreadable entries). These carry no source location — every diagnostic
/// from an actual phase points into a buffer.
bool hasCacheNotes(driver::Compiler &C) {
  for (const Diagnostic &D : C.getDiags().getDiagnostics())
    if (D.Level == DiagLevel::Note && !D.Loc.isValid())
      return true;
  return false;
}

/// Reads a --batch list file: one .lss path per line, '#' comments.
/// Returns false with \p Exit set to the appropriate exit code.
bool readBatchList(const std::string &File, std::vector<std::string> &Paths,
                   int &Exit) {
  std::ifstream List(File);
  if (!List) {
    std::cerr << "lssc: cannot open file '" << File << "'\n";
    Exit = ExitOperational;
    return false;
  }
  std::string Line;
  while (std::getline(List, Line)) {
    size_t B = Line.find_first_not_of(" \t\r");
    if (B == std::string::npos || Line[B] == '#')
      continue;
    size_t E = Line.find_last_not_of(" \t\r");
    Paths.push_back(Line.substr(B, E - B + 1));
  }
  if (Paths.empty()) {
    std::cerr << "lssc: batch list '" << File << "' names no inputs\n";
    Exit = ExitUsage;
    return false;
  }
  return true;
}

/// --batch FILE: one CompilerInvocation per listed model, compiled
/// concurrently through the service, reported in list order.
int runBatch(driver::CompileService &Svc, const CliOptions &Opts,
             std::ostream &Human) {
  std::vector<std::string> Paths;
  int Exit = ExitSuccess;
  if (!readBatchList(Opts.BatchFile, Paths, Exit))
    return Exit;

  std::vector<driver::CompilerInvocation> Invs;
  for (const std::string &Path : Paths) {
    driver::CompilerInvocation Inv = makeInvocation(Opts);
    Inv.BuildSim = false; // Batch mode compiles; it never simulates.
    std::string Err;
    if (!Inv.addFile(Path, &Err)) {
      std::cerr << "lssc: cannot open file '" << Path << "'\n";
      return ExitOperational;
    }
    Invs.push_back(std::move(Inv));
  }

  std::vector<driver::CompileResult> Results =
      Svc.compileBatch(Invs, Opts.Jobs);

  int Worst = ExitSuccess;
  for (size_t I = 0; I != Results.size(); ++I) {
    driver::CompileResult &R = Results[I];
    if (R.Success) {
      driver::ModelStats S = driver::computeModelStats(
          *R.C->getNetlist(), R.C->getLibraryModules(),
          R.C->getNumUserTypeAnnotations(), Paths[I]);
      Human << Paths[I] << ": ok (" << S.TotalInstances << " instances, "
            << S.Connections << " connections)";
      if (R.ElabFromCache && R.SolutionFromCache)
        Human << " [cached]";
      else if (R.ElabFromCache || R.SolutionFromCache)
        Human << " [partially cached]";
      Human << "\n";
    } else {
      Human << Paths[I] << ": " << phaseName(R.Failed) << " failed\n";
      std::cerr << R.C->diagnosticsText();
      Worst = std::max(Worst, phaseExitCode(R.Failed));
    }
  }
  if (Svc.getOptions().CacheEnabled) {
    driver::CacheStats CS = Svc.getCache().getStats();
    Human << "cache: " << CS.Hits << " hits, " << CS.Misses << " misses, "
          << CS.Stores << " stores\n";
  }
  return Worst;
}

/// Human phase phrase for a wire `failed_phase` string.
const char *daemonPhaseName(const std::string &Phase) {
  if (Phase == "parse")
    return "parsing";
  if (Phase == "elaborate")
    return "elaboration";
  if (Phase == "infer")
    return "type inference";
  if (Phase == "simbuild")
    return "simulator construction";
  return "compilation";
}

/// With --daemon --stats-json: the client-side robustness counters
/// (retry/backoff/breaker activity). The full compile stats stay
/// server-side; `lssd` exposes them through its stats endpoint.
void writeDaemonClientStats(const CliOptions &Opts,
                            const driver::CompileClient &Client) {
  if (Opts.StatsJsonPath.empty())
    return;
  const driver::CompileClient::ClientStats &CS = Client.getClientStats();
  auto Emit = [&](std::ostream &OS) {
    OS << "{\n  \"daemon_client\": {\n"
       << "    \"address\": \"" << jsonEscape(Opts.DaemonAddress) << "\",\n"
       << "    \"retries\": " << CS.Retries << ",\n"
       << "    \"queue_full_retries\": " << CS.QueueFullRetries << ",\n"
       << "    \"transport_failures\": " << CS.TransportFailures << ",\n"
       << "    \"breaker_trips\": " << CS.BreakerTrips << ",\n"
       << "    \"breaker_open\": " << (CS.BreakerOpen ? "true" : "false")
       << "\n  }\n}\n";
  };
  if (Opts.StatsJsonPath == "-") {
    Emit(std::cout);
  } else if (std::ofstream Out{Opts.StatsJsonPath}) {
    Emit(Out);
  } else {
    std::cerr << "lssc: cannot write '" << Opts.StatsJsonPath << "'\n";
  }
}

/// Prints one remote compile's verdict in the batch-report style and
/// returns its exit code. Transport errors map to ExitOperational.
int reportDaemonResult(const std::string &Name,
                       const driver::CompileClient::Result &R,
                       std::ostream &Human) {
  if (!R.Error.empty()) {
    std::cerr << "lssc: daemon error for '" << Name << "': " << R.Error
              << "\n";
    return ExitOperational;
  }
  if (R.Success) {
    Human << Name << ": ok (" << R.Instances << " instances, "
          << R.Connections << " connections)";
    if (R.ElabFromCache && R.SolutionFromCache)
      Human << " [cached]";
    else if (R.ElabFromCache || R.SolutionFromCache)
      Human << " [partially cached]";
    Human << "\n";
    // Warnings survive remote compiles as rendered diagnostic text.
    if (!R.Diagnostics.empty())
      std::cerr << R.Diagnostics;
    return ExitSuccess;
  }
  Human << Name << ": " << daemonPhaseName(R.FailedPhase) << " failed";
  if (R.Degraded)
    Human << " (deadline/budget degraded, " << R.GroupsUnsolved
          << " groups unsolved)";
  Human << "\n";
  std::cerr << R.Diagnostics;
  return R.ExitCode;
}

/// One status line for an incremental recompile's splice outcome
/// (watch mode and `--daemon --incremental`).
void reportIncremental(const driver::CompileClient::Result &R,
                       std::ostream &Human) {
  if (R.IncrementalUsed)
    Human << "lssc: incremental: re-elaborated " << R.ModulesReelaborated
          << " modules, re-solved " << R.GroupsResolved
          << " groups, spliced " << R.GroupsSpliced << "\n";
  else
    Human << "lssc: incremental: full compile ("
          << (R.IncrementalFallback.empty() ? "unknown"
                                            : R.IncrementalFallback)
          << ")\n";
}

volatile std::sig_atomic_t WatchInterrupted = 0;
void onWatchSignal(int) { WatchInterrupted = 1; }

/// --watch-files: stay resident, poll the input files' mtimes, and send
/// an incremental `recompile` through the daemon for every edit
/// (docs/INCREMENTAL.md "watch mode"). Stops on SIGINT/SIGTERM or after
/// --watch-max recompiles; a transport failure ends the session with an
/// operational error (there is no in-process fallback to watch with).
int runWatchFiles(const CliOptions &Opts, driver::CompileClient &Client,
                  std::ostream &Human) {
  std::signal(SIGINT, onWatchSignal);
  std::signal(SIGTERM, onWatchSignal);
  if (Client.serverMinor() < 1)
    std::cerr << "lssc: note: daemon predates the recompile request "
                 "(protocol minor 0); watch mode degrades to full "
                 "compiles\n";

  // mtime snapshot per input; nanosecond resolution so back-to-back edits
  // within one second are still seen.
  auto stamp = [&](std::vector<std::pair<int64_t, int64_t>> &Stamps) {
    Stamps.clear();
    for (const std::string &Path : Opts.Inputs) {
      struct stat St;
      if (::stat(Path.c_str(), &St) != 0) {
        // A file mid-save (editors rename over the target) can be briefly
        // absent; treat the round as unchanged and re-poll.
        return false;
      }
      Stamps.emplace_back(int64_t(St.st_mtim.tv_sec),
                          int64_t(St.st_mtim.tv_nsec));
    }
    return true;
  };

  std::vector<std::pair<int64_t, int64_t>> Last, Now;
  uint64_t Recompiles = 0;
  bool First = true;
  while (!WatchInterrupted) {
    bool Changed = false;
    if (stamp(Now)) {
      Changed = First || Now != Last;
      if (Changed)
        Last = Now;
    }
    if (Changed) {
      First = false;
      driver::CompilerInvocation Inv = makeInvocation(Opts);
      bool Readable = true;
      for (const std::string &Path : Opts.Inputs) {
        std::string FileErr;
        if (!Inv.addFile(Path, &FileErr)) {
          // Transient: the next poll retries (the mtime will tick again
          // when the editor finishes writing).
          std::cerr << "lssc: note: cannot read '" << Path
                    << "'; waiting for the next change\n";
          Readable = false;
          break;
        }
      }
      if (Readable) {
        driver::CompileClient::Result R =
            Client.recompileWithRetry(Inv, Opts.DeadlineMs);
        if (!R.Error.empty()) {
          std::cerr << "lssc: daemon error: " << R.Error << "\n";
          return ExitOperational;
        }
        reportDaemonResult(Opts.Inputs.front(), R, Human);
        reportIncremental(R, Human);
        ++Recompiles;
        if (Opts.WatchMax && Recompiles >= Opts.WatchMax)
          break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(Opts.WatchPollMs));
  }
  Human << "lssc: watch ended after " << Recompiles << " recompile(s)\n";
  return ExitSuccess;
}

/// --daemon: ship the compile(s) to a running lssd. Returns the exit code,
/// or -1 when the daemon is unreachable (or its transport kept failing and
/// the circuit breaker opened) and falling back in-process is allowed (the
/// caller then compiles locally).
int runDaemon(const CliOptions &Opts, std::ostream &Human) {
  driver::CompileClient Client(Opts.DaemonAddress);
  std::string Err;
  if (!Client.connect(&Err)) {
    if (Opts.WatchFiles) {
      // Watch mode has nothing to fall back to: the whole point is the
      // daemon's dependency cache.
      std::cerr << "lssc: error: daemon at '" << Opts.DaemonAddress
                << "' unreachable: " << Err << "\n";
      return ExitOperational;
    }
    if (Opts.NoDaemonFallback) {
      std::cerr << "lssc: error: daemon at '" << Opts.DaemonAddress
                << "' unreachable: " << Err << "\n";
      return ExitOperational;
    }
    // An explicit note, not silence: the user asked for the shared warm
    // cache and is getting a cold in-process compile instead.
    std::cerr << "lssc: note: daemon at '" << Opts.DaemonAddress
              << "' unreachable (" << Err << "); compiling in-process\n";
    return -1;
  }

  // A transport-level failure that survived the retry loop (connection
  // kept dying, breaker opened) gets the same treatment as an unreachable
  // daemon: diagnosed fallback, or exit 1 under --no-daemon-fallback.
  auto transportFailed = [&](const std::string &Why) -> int {
    writeDaemonClientStats(Opts, Client);
    if (Opts.NoDaemonFallback) {
      std::cerr << "lssc: daemon error: " << Why << "\n";
      return ExitOperational;
    }
    std::cerr << "lssc: note: daemon at '" << Opts.DaemonAddress
              << "' failing (" << Why << "); compiling in-process\n";
    return -1;
  };

  if (!Opts.BatchFile.empty()) {
    std::vector<std::string> Paths;
    int Exit = ExitSuccess;
    if (!readBatchList(Opts.BatchFile, Paths, Exit))
      return Exit;
    std::vector<driver::CompilerInvocation> Invs;
    for (const std::string &Path : Paths) {
      driver::CompilerInvocation Inv = makeInvocation(Opts);
      Inv.BuildSim = false;
      std::string FileErr;
      if (!Inv.addFile(Path, &FileErr)) {
        std::cerr << "lssc: cannot open file '" << Path << "'\n";
        return ExitOperational;
      }
      Invs.push_back(std::move(Inv));
    }
    std::vector<driver::CompileClient::Result> Results =
        Client.compileBatchWithRetry(Invs, Opts.DeadlineMs);
    // Elements the admission queue bounced get a bounded individual retry.
    for (size_t I = 0; I != Results.size(); ++I)
      if (Results[I].ErrorCode == "queue_full")
        Results[I] = Client.compileWithRetry(Invs[I], Opts.DeadlineMs);
    if (!Results.empty() && !Results.front().Error.empty() &&
        Results.front().ErrorCode.empty())
      return transportFailed(Results.front().Error);
    int Worst = ExitSuccess;
    for (size_t I = 0; I != Results.size(); ++I)
      Worst = std::max(Worst, reportDaemonResult(Paths[I], Results[I], Human));
    writeDaemonClientStats(Opts, Client);
    return Worst;
  }

  if (Opts.WatchFiles)
    return runWatchFiles(Opts, Client, Human);

  driver::CompilerInvocation Inv = makeInvocation(Opts);
  for (const std::string &Path : Opts.Inputs) {
    std::string FileErr;
    if (!Inv.addFile(Path, &FileErr)) {
      std::cerr << "lssc: cannot open file '" << Path << "'\n";
      return ExitOperational;
    }
  }
  driver::CompileClient::Result R =
      Opts.Incremental ? Client.recompileWithRetry(Inv, Opts.DeadlineMs)
                       : Client.compileWithRetry(Inv, Opts.DeadlineMs);
  if (Opts.Incremental && R.Error.empty())
    reportIncremental(R, Human);
  if (!R.Error.empty() && R.ErrorCode == "queue_full") {
    writeDaemonClientStats(Opts, Client);
    std::cerr << "lssc: daemon at '" << Opts.DaemonAddress
              << "' is overloaded (queue full after retries)\n";
    return ExitOperational;
  }
  if (!R.Error.empty() && R.ErrorCode.empty())
    return transportFailed(R.Error);
  writeDaemonClientStats(Opts, Client);
  if (R.Success) {
    if (!R.Diagnostics.empty())
      std::cerr << R.Diagnostics;
    return ExitSuccess;
  }
  if (!R.Error.empty()) {
    std::cerr << "lssc: daemon error: " << R.Error << "\n";
    return ExitOperational;
  }
  std::cerr << "lssc: " << daemonPhaseName(R.FailedPhase) << " failed\n"
            << R.Diagnostics;
  return R.ExitCode;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  if (int Code = parseArgs(Argc, Argv, Opts); Code >= 0)
    return Code;

  // Fault injection arms before any I/O so every disk/socket edge is
  // covered; LSS_FAULT first, --fault-inject overrides it.
  FaultInjection::configureFromEnv();
  if (!Opts.FaultSpec.empty()) {
    std::string FErr;
    if (!FaultInjection::configure(Opts.FaultSpec, &FErr)) {
      std::cerr << "lssc: error: bad --fault-inject spec: " << FErr << "\n";
      return ExitUsage;
    }
  }

  // With --stats-json writing to stdout, keep stdout valid JSON: route
  // the human-readable status output (--stats table, --run summary) to
  // stderr instead.
  bool JsonToStdout = Opts.StatsJsonPath == "-";
  std::ostream &Human = JsonToStdout ? std::cerr : std::cout;
  FILE *HumanFile = JsonToStdout ? stderr : stdout;

  if (!Opts.DaemonAddress.empty()) {
    int Code = runDaemon(Opts, Human);
    if (Code >= 0)
      return Code;
    // Unreachable daemon with fallback allowed: compile in-process below.
  }

  bool CacheRequested = !Opts.CacheDir.empty() && !Opts.NoCache;
  if (CacheRequested && Opts.TraceOrder)
    std::cerr << "lssc: note: --trace-order disables the artifact cache\n";
  bool CacheOn = CacheRequested && !Opts.TraceOrder;

  driver::CompileService::Options SvcOpts;
  SvcOpts.CacheEnabled = CacheOn;
  SvcOpts.Cache.DiskDir = Opts.CacheDir;
  driver::CompileService Svc(SvcOpts);

  if (!Opts.BatchFile.empty())
    return runBatch(Svc, Opts, Human);

  driver::CompilerInvocation Inv = makeInvocation(Opts);
  for (const std::string &Path : Opts.Inputs) {
    // An unreadable file is an operational failure (exit 1), distinct
    // from a parse error in a file that exists (exit 3).
    std::string Err;
    if (!Inv.addFile(Path, &Err)) {
      std::cerr << "lssc: cannot open file '" << Path << "'\n";
      return ExitOperational;
    }
  }

  driver::CompileResult R =
      Opts.Incremental ? Svc.compileIncremental(Inv) : Svc.compile(Inv);
  if (Opts.Incremental) {
    // The splice outcome goes to stderr so stdout stays byte-identical
    // to a plain compile (the byte-identity contract, observed by
    // check_cache_stability.sh, covers the human output too).
    const driver::IncrementalStats &IS = R.Incremental;
    if (IS.Used)
      std::cerr << "lssc: incremental: re-elaborated "
                << IS.ModulesReelaborated << "/" << IS.ModulesTotal
                << " modules, re-solved " << IS.GroupsResolved << "/"
                << IS.GroupsTotal << " groups\n";
    else
      std::cerr << "lssc: incremental: full compile ("
                << (IS.FallbackReason.empty() ? "unknown"
                                              : IS.FallbackReason)
                << ")\n";
  }
  driver::Compiler &C = *R.C;
  auto Bail = [&](const char *Phase, int Code) {
    std::cerr << "lssc: " << Phase << " failed\n" << C.diagnosticsText();
    return Code;
  };
  using Phase = driver::CompileResult::Phase;

  if (R.Failed == Phase::Parse || R.Failed == Phase::Elaborate)
    return Bail(phaseName(R.Failed), ExitParseSema);

  // Elaboration succeeded, so the processing order exists (the cache was
  // forced off above, making the elaboration live).
  if (Opts.TraceOrder && C.getInterpreter()) {
    std::cout << "== instance processing order ==\n";
    for (const std::string &Path : C.getInterpreter()->getProcessingOrder())
      std::cout << "  " << Path << "\n";
  }

  driver::CacheReport CacheRep;
  auto cacheReport = [&]() -> const driver::CacheReport * {
    if (!CacheOn)
      return nullptr;
    CacheRep.Stats = Svc.getCache().getStats();
    CacheRep.ElabFromCache = R.ElabFromCache;
    CacheRep.SolutionFromCache = R.SolutionFromCache;
    return &CacheRep;
  };

  if (R.Failed == Phase::Infer) {
    // Budget/deadline exhaustion still produced per-group results for
    // every other group, so honor --stats-json before exiting: it is how
    // callers observe groups_unsolved and which group failed.
    if (!Opts.StatsJsonPath.empty()) {
      driver::ModelStats S = driver::computeModelStats(
          *C.getNetlist(), C.getLibraryModules(),
          C.getNumUserTypeAnnotations(), Opts.Inputs.front());
      const driver::IncrementalStats *Inc =
          Opts.Incremental ? &R.Incremental : nullptr;
      if (JsonToStdout) {
        driver::printStatsJson(std::cout, S, C.getInferenceStats(),
                               C.getPhaseTimer(), nullptr, cacheReport(),
                               0.0, Inc);
      } else if (std::ofstream Out{Opts.StatsJsonPath}) {
        driver::printStatsJson(Out, S, C.getInferenceStats(),
                               C.getPhaseTimer(), nullptr, cacheReport(),
                               0.0, Inc);
      }
    }
    return Bail("type inference", ExitInference);
  }

  // Warnings (if any) still matter to users, as do the cache's
  // corrupt-entry recovery notes.
  if (C.getDiags().getNumWarnings() || hasCacheNotes(C))
    std::cerr << C.diagnosticsText();

  if (Opts.PrintNetlist)
    C.getNetlist()->print(std::cout);

  if (Opts.Stats) {
    driver::ModelStats S = driver::computeModelStats(
        *C.getNetlist(), C.getLibraryModules(), C.getNumUserTypeAnnotations(),
        Opts.Inputs.front());
    driver::printTable2Header(Human);
    driver::printTable2Row(Human, S);
    const auto &IS = C.getInferenceStats();
    std::fprintf(HumanFile,
                 "inference: %u constraints, %llu unify steps, "
                 "%llu branch points, %u ports (%u polymorphic, "
                 "%u defaulted)\n",
                 IS.Solve.NumConstraints,
                 (unsigned long long)IS.Solve.UnifySteps,
                 (unsigned long long)IS.Solve.BranchPoints, IS.NumPorts,
                 IS.NumPolymorphicPorts, IS.NumDefaulted);
  }

  if (Opts.EmitStatic)
    std::cout << baseline::emitFlatStaticSpec(*C.getNetlist());

  if (Opts.EmitDot)
    netlist::emitDot(*C.getNetlist(), std::cout);

  double CyclesPerSec = 0.0;
  if (Opts.RunCycles) {
    if (R.Failed == Phase::SimBuild)
      return Bail("simulator construction", ExitSimFault);
    sim::Simulator *Sim = C.getSimulator();
    std::vector<uint64_t *> Counters;
    for (const auto &[Path, Event] : Opts.Watches)
      Counters.push_back(&Sim->getInstrumentation().attachCounter(Path, Event));
    auto RunStart = std::chrono::steady_clock::now();
    Sim->step(Opts.RunCycles);
    double RunSecs = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - RunStart)
                         .count();
    if (RunSecs > 0.0)
      CyclesPerSec = double(Opts.RunCycles) / RunSecs;
    std::fprintf(HumanFile,
                 "ran %llu cycles on the %s engine (%u leaves, %u nets, "
                 "%u schedule groups, %u levels, %u jobs)\n",
                 (unsigned long long)Sim->getCycle(), Sim->getEngineName(),
                 Sim->getBuildInfo().NumLeaves, Sim->getBuildInfo().NumNets,
                 Sim->getBuildInfo().NumGroups, Sim->getBuildInfo().NumLevels,
                 Sim->getOptions().Jobs);
    const sim::ActivityStats &A = Sim->getActivityStats();
    std::fprintf(HumanFile,
                 "selective: %s (%u skippable groups; %llu evaluated, "
                 "%llu skipped, %llu leaf evals)\n",
                 A.Selective ? "on" : "off",
                 Sim->getBuildInfo().NumSkippableGroups,
                 (unsigned long long)A.GroupsEvaluated,
                 (unsigned long long)A.GroupsSkipped,
                 (unsigned long long)A.LeafEvals);
    // The kernel build time stays out of the human line so stdout is
    // byte-identical cold vs. warm (see tools/check_cache_stability.sh);
    // it is reported in --stats-json.
    if (const sim::KernelStats *KS = Sim->getKernelStats())
      std::fprintf(HumanFile,
                   "kernel: %u ops (%u specialized, %u generic), %u seq ops "
                   "(%u elided)\n",
                   KS->NumOps, KS->NumSpecializedOps, KS->NumGenericOps,
                   KS->NumSeqOps, KS->NumSeqElided);
    for (unsigned I = 0; I != Opts.Watches.size(); ++I)
      std::fprintf(HumanFile, "watch '%s %s': %llu events\n",
                   Opts.Watches[I].first.c_str(),
                   Opts.Watches[I].second.c_str(),
                   (unsigned long long)*Counters[I]);
    if (Sim->hadRuntimeErrors()) {
      std::cerr << C.diagnosticsText();
      return ExitSimFault;
    }
  }

  // Observability output goes last so every phase that ran is included.
  if (!Opts.StatsJsonPath.empty()) {
    driver::ModelStats S = driver::computeModelStats(
        *C.getNetlist(), C.getLibraryModules(), C.getNumUserTypeAnnotations(),
        Opts.Inputs.front());
    const driver::IncrementalStats *Inc =
        Opts.Incremental ? &R.Incremental : nullptr;
    if (Opts.StatsJsonPath == "-") {
      driver::printStatsJson(std::cout, S, C.getInferenceStats(),
                             C.getPhaseTimer(), C.getSimulator(),
                             cacheReport(), CyclesPerSec, Inc);
    } else {
      std::ofstream Out(Opts.StatsJsonPath);
      if (!Out) {
        std::cerr << "lssc: cannot write '" << Opts.StatsJsonPath << "'\n";
        return ExitOperational;
      }
      driver::printStatsJson(Out, S, C.getInferenceStats(),
                             C.getPhaseTimer(), C.getSimulator(),
                             cacheReport(), CyclesPerSec, Inc);
    }
  }
  if (Opts.TimePhases)
    C.getPhaseTimer().print(std::cerr);
  return ExitSuccess;
}
