//===- Compiler.h - End-to-end LSS compilation driver -----------*- C++ -*-===//
///
/// \file
/// Owns one full LSS compilation (paper Figure 4): parse → interpreted
/// elaboration → static analysis (type inference) → simulator
/// construction. Also the unit the benches drive to regenerate the paper's
/// tables.
///
/// Every phase entry point takes a CompilerInvocation — the one value that
/// describes the whole compile (sources + per-phase options). Callers
/// build an invocation, then either run phases individually, call
/// compileForSim() for the straight-line pipeline, or hand the invocation
/// to CompileService for cached/batched compilation.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_DRIVER_COMPILER_H
#define LIBERTY_DRIVER_COMPILER_H

#include "driver/CompilerInvocation.h"
#include "infer/InferenceEngine.h"
#include "interp/Interpreter.h"
#include "lss/AST.h"
#include "netlist/Netlist.h"
#include "netlist/Serializer.h"
#include "sim/Simulator.h"
#include "support/Diagnostics.h"
#include "support/PhaseTimer.h"
#include "support/SourceMgr.h"
#include "types/TypeContext.h"

#include <memory>
#include <set>
#include <string>

namespace liberty {
namespace driver {

class Compiler {
public:
  Compiler();
  ~Compiler();

  /// Parses and registers the standard component library (and registers
  /// its behaviors). Call once, before user sources. The parsed library
  /// AST is shared process-wide: after the first compile this does no
  /// parsing at all, it only registers the shared modules.
  bool addCoreLibrary();

  /// Parses LSS source text. Modules are registered; top-level statements
  /// accumulate as the system description.
  bool addSource(const std::string &Name, const std::string &Text);

  /// Reads and parses an LSS file from disk.
  bool addFile(const std::string &Path);

  /// Applies \p Inv's error cap and parses all of its sources (core
  /// library first when requested). Returns false on any parse error.
  bool addSources(const CompilerInvocation &Inv);

  /// Registers \p Inv's sources as SourceMgr buffers without parsing them.
  /// This is the warm-compile path: the netlist comes from the artifact
  /// cache, but replayed diagnostics carry SourceLocs that must keep
  /// pointing at real buffers — registering the same texts in the same
  /// order makes locations (and rendered diagnostics) identical to a cold
  /// compile. Also registers the core behaviors the simulator needs.
  void registerSourcesWithoutParsing(const CompilerInvocation &Inv);

  /// Installs a replay hook for the next elaborate() call. The Compiler
  /// constructs its Interpreter inside elaborate(), so the incremental
  /// driver (driver/Incremental.cpp) parks the hook here and it is
  /// transferred onto the fresh interpreter before it runs.
  void setReplayHook(interp::Interpreter::ReplayHook H) {
    PendingReplayHook = std::move(H);
  }

  /// Runs compile-time elaboration under \p Inv's elaboration options.
  /// Returns false on any diagnosed error.
  bool elaborate(const CompilerInvocation &Inv);
  /// \deprecated Shim for pre-invocation callers; default options.
  bool elaborate() { return elaborate(CompilerInvocation()); }

  /// Runs structure-based type inference under \p Inv's solver options.
  /// \p SpliceHooks, when non-null, enables per-group solution splicing
  /// for incremental recompilation (driver/Incremental.cpp).
  bool inferTypes(const CompilerInvocation &Inv,
                  const infer::NetlistSpliceHooks *SpliceHooks);
  bool inferTypes(const CompilerInvocation &Inv) {
    return inferTypes(Inv, nullptr);
  }
  /// \deprecated Shim for pre-invocation callers; default options.
  bool inferTypes() { return inferTypes(CompilerInvocation()); }

  /// Builds the executable simulator under \p Inv's simulator options
  /// (elaborate + inferTypes must have succeeded). The Compiler owns the
  /// result.
  sim::Simulator *buildSimulator(const CompilerInvocation &Inv);
  /// \deprecated Shim for pre-invocation callers; default options.
  sim::Simulator *buildSimulator() {
    return buildSimulator(CompilerInvocation());
  }

  /// Adopts a deserialized netlist (the cached "elab" artifact) in place
  /// of running parse + elaboration, and replays its recorded
  /// warnings/notes. Returns false if \p SC holds no netlist.
  bool adoptNetlist(netlist::SerializedCompile SC);

  /// Re-emits recorded diagnostics (warnings/notes from a cached phase)
  /// through this compile's engine.
  void replayDiagnostics(const std::vector<Diagnostic> &Ds);

  /// Installs inference results recovered from the cached "solve"
  /// artifact (CompileService's solution hit path).
  void setInferenceStats(infer::NetlistInferenceStats IS) {
    InferStats = std::move(IS);
  }

  /// Runs the whole pipeline described by \p Inv: sources → elaborate →
  /// infer → simulator. Returns null on error. Always builds the
  /// simulator (ignores Inv.BuildSim — that switch is CompileService's).
  static std::unique_ptr<Compiler> compileForSim(const CompilerInvocation &Inv);
  /// \deprecated Shim: single source, default options.
  static std::unique_ptr<Compiler> compileForSim(const std::string &Name,
                                                 const std::string &Text);

  // Accessors.
  SourceMgr &getSourceMgr() { return SM; }
  DiagnosticEngine &getDiags() { return Diags; }
  types::TypeContext &getTypeContext() { return TC; }
  netlist::Netlist *getNetlist() { return NL.get(); }
  sim::Simulator *getSimulator() { return Sim.get(); }
  interp::Interpreter *getInterpreter() { return Interp.get(); }
  const infer::NetlistInferenceStats &getInferenceStats() const {
    return InferStats;
  }
  /// Wall time and counters per compiler phase (parse, elaborate,
  /// constraint-gen, solve, sim-build) — what `lssc --stats-json` emits.
  const PhaseTimer &getPhaseTimer() const { return Timer; }
  PhaseTimer &getPhaseTimer() { return Timer; }
  /// Names of library modules (for reuse statistics).
  const std::set<std::string> &getLibraryModules() const {
    return LibraryModules;
  }
  /// Number of explicit type annotations written in *user* sources
  /// (connection annotations); the "w/ inference" column of Table 2.
  unsigned getNumUserTypeAnnotations() const { return NumUserAnnotations; }

  /// All diagnostics rendered as text (for error reporting in tools).
  std::string diagnosticsText() const;

private:
  bool parseInto(uint32_t BufferId, bool IsLibrary);

  SourceMgr SM;
  DiagnosticEngine Diags;
  types::TypeContext TC;
  lss::ASTContext Ctx;
  std::unique_ptr<interp::Interpreter> Interp;
  interp::Interpreter::ReplayHook PendingReplayHook;
  std::vector<lss::ModuleDecl *> AllModules;
  std::vector<lss::Stmt *> TopLevel;
  std::unique_ptr<netlist::Netlist> NL;
  std::unique_ptr<sim::Simulator> Sim;
  infer::NetlistInferenceStats InferStats;
  PhaseTimer Timer;
  std::set<std::string> LibraryModules;
  unsigned NumUserAnnotations = 0;
  bool LibraryAdded = false;
};

} // namespace driver
} // namespace liberty

#endif // LIBERTY_DRIVER_COMPILER_H
