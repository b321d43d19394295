//===- CompileService.cpp - Cached, batched LSS compilation ------------------===//

#include "driver/CompileService.h"

#include "corelib/CoreLib.h"
#include "infer/Solution.h"
#include "netlist/Serializer.h"
#include "support/ThreadPool.h"

#include <algorithm>

using namespace liberty;
using namespace liberty::driver;

CompileService::CompileService() : CompileService(Options()) {}

CompileService::CompileService(Options O)
    : Opts(std::move(O)), Cache(Opts.Cache) {
  // Pre-warm the process-wide shared state (behavior registry, parsed
  // core library) on the caller's thread, so batch workers only ever read.
  corelib::registerCoreBehaviors();
}

/// Copies the diagnostics emitted at index \p From onward — the slice a
/// phase appended, excluding anything earlier (e.g. cache-corruption
/// notes, which must not leak into stored artifacts).
static std::vector<Diagnostic> diagsSince(Compiler &C, size_t From) {
  const auto &All = C.getDiags().getDiagnostics();
  return std::vector<Diagnostic>(All.begin() + From, All.end());
}

CompileResult CompileService::compile(const CompilerInvocation &Inv) {
  CompileResult R;
  R.C = std::make_unique<Compiler>();
  Compiler &C = *R.C;

  const std::string ElabKey = CompilerInvocation::keyString(Inv.elabKey());
  const std::string SolveKey = CompilerInvocation::keyString(Inv.solveKey());

  // --- Parse + elaborate, or reload the "elab" artifact. -----------------
  bool Warm = false;
  if (Opts.CacheEnabled) {
    std::string Payload, Note;
    if (Cache.get(ElabKey, "elab", Payload, &Note)) {
      PhaseTimer::Scope Phase(&C.getPhaseTimer(), "cache-load");
      auto SC = netlist::deserializeNetlist(Payload, C.getTypeContext());
      if (SC.NL) {
        C.registerSourcesWithoutParsing(Inv);
        C.adoptNetlist(std::move(SC));
        Warm = true;
        R.ElabFromCache = true;
      } else {
        Note = "ignoring unreadable cache entry for key " + ElabKey +
               " (elab); recompiling";
      }
    }
    if (!Note.empty())
      C.getDiags().note(SourceLoc(), Note);
  }

  size_t DiagBase = 0;
  if (!Warm) {
    size_t DiagStart = DiagBase = C.getDiags().getDiagnostics().size();
    if (!C.addSources(Inv)) {
      R.Failed = CompileResult::Phase::Parse;
      return R;
    }
    if (!C.elaborate(Inv)) {
      R.Failed = CompileResult::Phase::Elaborate;
      return R;
    }
    if (Opts.CacheEnabled && !C.getDiags().hasErrors() && C.getNetlist()) {
      std::string Payload;
      if (netlist::serializeNetlist(*C.getNetlist(), C.getLibraryModules(),
                                    C.getNumUserTypeAnnotations(),
                                    diagsSince(C, DiagStart), Payload))
        Cache.put(ElabKey, "elab", Payload);
    }
  }

  // --- Type inference, or reload the "solve" artifact. -------------------
  bool Solved = false;
  if (Opts.CacheEnabled) {
    std::string Payload, Note;
    if (Cache.get(SolveKey, "solve", Payload, &Note)) {
      PhaseTimer::Scope Phase(&C.getPhaseTimer(), "cache-load");
      infer::NetlistInferenceStats IS;
      std::vector<Diagnostic> Ds;
      if (C.getNetlist() &&
          infer::importSolution(Payload, *C.getNetlist(), C.getTypeContext(),
                                IS, Ds)) {
        C.setInferenceStats(std::move(IS));
        C.replayDiagnostics(Ds);
        Solved = true;
        R.SolutionFromCache = true;
      } else {
        Note = "ignoring unreadable cache entry for key " + SolveKey +
               " (solve); recompiling";
      }
    }
    if (!Note.empty())
      C.getDiags().note(SourceLoc(), Note);
  }

  if (!Solved) {
    size_t DiagStart = C.getDiags().getDiagnostics().size();
    if (!C.inferTypes(Inv)) {
      R.Failed = CompileResult::Phase::Infer;
      return R;
    }
    if (Opts.CacheEnabled && !C.getDiags().hasErrors() && C.getNetlist()) {
      std::string Payload;
      if (infer::exportSolution(*C.getNetlist(), C.getInferenceStats(),
                                diagsSince(C, DiagStart), Payload))
        Cache.put(SolveKey, "solve", Payload);
    }
  }

  // --- Simulator construction. Never cached: it is cheap, owns live
  // runtime state, and its compiled kernel is rebuilt with it. -----------
  if (Inv.BuildSim &&
      (!C.buildSimulator(Inv) || C.getDiags().hasErrors())) {
    R.Failed = CompileResult::Phase::SimBuild;
    return R;
  }

  // A live (non-warm) elaboration carries everything the incremental path
  // needs next time; warm compiles no-op inside (no interpreter ran).
  storeDepGraph(Inv, C, DiagBase);

  R.Success = true;
  return R;
}

std::vector<CompileResult>
CompileService::compileBatch(const std::vector<CompilerInvocation> &Invs,
                             unsigned Jobs) {
  std::vector<CompileResult> Results(Invs.size());
  if (Invs.empty())
    return Results;

  if (Jobs == 0)
    Jobs = ThreadPool::getHardwareParallelism();
  Jobs = std::min<unsigned>(Jobs, unsigned(Invs.size()));

  if (Jobs <= 1) {
    for (size_t I = 0; I != Invs.size(); ++I)
      Results[I] = compile(Invs[I]);
    return Results;
  }

  ThreadPool Pool(Jobs);
  for (size_t I = 0; I != Invs.size(); ++I)
    Pool.async([this, I, &Invs, &Results] { Results[I] = compile(Invs[I]); });
  Pool.wait();
  return Results;
}
