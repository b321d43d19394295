//===- Simulator.h - Generated executable simulator -------------*- C++ -*-===//
///
/// \file
/// The back end of the LSS pipeline (paper Figure 4): combines the analyzed
/// netlist with leaf behavior implementations and userpoint code into an
/// executable simulator. LSE emitted a compiled binary; this implementation
/// builds an in-process simulator object over the same inputs (see the
/// substitution table in DESIGN.md).
///
/// Execution model: synchronous digital hardware. Each cycle has a
/// combinational phase — leaf instances evaluated in the statically
/// computed schedule, cyclic groups iterated to a fixpoint — followed by a
/// sequential phase (endOfTimestep + end_of_timestep userpoints).
///
/// Evaluation is activity-driven by default: every net carries a dirty
/// stamp set only when a write actually changes its value or presence, and
/// singleton schedule groups whose behavior declares a pure evaluate
/// (LeafBehavior::hasPureEvaluate) are skipped in cycles where none of
/// their input nets changed, their previous sends carried forward. The
/// default engine is the compiled kernel (sim/CompiledKernel), which
/// applies that skip per op; the selective interpreter applies it per
/// group and also while collectors are attached, replaying events.
///
/// With Options::Jobs > 1 the combinational phase runs level-parallel
/// (wavefront): the schedule's groups are partitioned into topological
/// levels, each level's groups evaluate concurrently on a thread pool
/// with a barrier between levels, and determinism is engineered so any
/// thread count reproduces the serial engine bit for bit (see
/// docs/ARCHITECTURE.md for the invariants).
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_SIM_SIMULATOR_H
#define LIBERTY_SIM_SIMULATOR_H

#include "bsl/BehaviorRegistry.h"
#include "bsl/BslProgram.h"
#include "netlist/Netlist.h"
#include "sim/CompiledKernel.h"
#include "sim/Instrumentation.h"
#include "sim/Scheduler.h"
#include "support/Diagnostics.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace liberty {
namespace sim {

class KernelBuilder;
class KernelBuilderImpl;

/// Which execution engine steps the simulator. Auto resolves from the
/// legacy flags (see resolveEngine): the compiled kernel by default,
/// interp with Selective off, wavefront with Jobs > 1. The named kinds pin
/// one engine explicitly (lssc --sim-engine). All engines are
/// bit-identical in traces, final net values, and runtime state — pinned
/// by the cross-engine differential tests.
enum class EngineKind {
  Auto,      ///< Resolve from Selective/Jobs (see resolveEngine).
  Interp,    ///< Exhaustive serial interpreter.
  Selective, ///< Change-driven (activity-based) serial interpreter.
  Wavefront, ///< Level-parallel interpreter (Jobs workers).
  Compiled,  ///< Flat cycle kernel (sim/CompiledKernel).
};

/// Stable lowercase name ("interp", "compiled", ...) for CLI/stats.
const char *engineName(EngineKind K);
/// Parses an engineName() string (also accepts "auto"); returns false and
/// leaves \p Out untouched on an unknown name.
bool parseEngineName(const std::string &Name, EngineKind &Out);

/// Per-run activity counters for the selective-trace engine, reported
/// through the --stats-json path. All counts are cumulative since the last
/// reset(). Under the wavefront engine each worker accumulates into its
/// own shard, merged here at cycle end — the sums are order-independent,
/// so every thread count reports identical totals.
struct ActivityStats {
  bool Selective = true;      ///< Engine mode the run used.
  uint64_t Cycles = 0;        ///< Cycles stepped.
  uint64_t GroupsEvaluated = 0;
  uint64_t GroupsSkipped = 0; ///< Skippable groups left quiescent.
  uint64_t LeafEvals = 0;     ///< Behavior evaluate() calls.
  uint64_t LeafEvalsSkipped = 0;
  uint64_t FixpointIters = 0; ///< Iterations spent in cyclic groups.
  uint64_t NetWrites = 0;     ///< setOutput calls reaching a net.
  uint64_t NetChanges = 0;    ///< Writes that changed value or presence.
  uint64_t EventsReplayed = 0;///< Automatic port events served from replay.
  /// Cycles where the quiescence scan was suppressed because the last
  /// probe cycle found nearly every skippable group active (all-dirty
  /// bypass). Bypassed cycles evaluate every group, exactly like the
  /// exhaustive engine, so traces are unaffected.
  uint64_t BypassCycles = 0;
};

class Simulator {
public:
  struct Options {
    /// Iteration cap for combinational cycles before declaring
    /// non-convergence.
    unsigned MaxFixpointIters = 64;
    /// Change-driven evaluation: skip quiescent singleton groups whose
    /// behavior has a pure evaluate. Off means exhaustive evaluation of
    /// every group every cycle (lssc --no-selective).
    bool Selective = true;
    /// Worker threads for the wavefront (level-parallel) combinational
    /// phase (lssc --sim-jobs). 1 = the serial engine; any value produces
    /// bit-identical traces, stats, and diagnostics.
    unsigned Jobs = 1;
    /// Engine selection (lssc --sim-engine). Auto resolves from the two
    /// legacy flags above (resolveEngine); an explicit kind wins and
    /// build() normalizes Selective/Jobs to match it.
    EngineKind Engine = EngineKind::Auto;
  };

  /// Structural facts about the generated simulator.
  struct BuildInfo {
    unsigned NumNets = 0;
    unsigned NumLeaves = 0;
    unsigned NumGroups = 0;
    unsigned NumCyclicGroups = 0;
    unsigned MaxGroupSize = 0;
    unsigned NumUserpoints = 0;
    unsigned NumSkippableGroups = 0;
    unsigned NumLevels = 0;      ///< Wavefront levels in the schedule.
    unsigned MaxLevelWidth = 0;  ///< Groups in the widest level.
  };

  /// Builds a simulator from an elaborated, type-inferred netlist. Returns
  /// null (with diagnostics) if a leaf behavior is missing, a userpoint
  /// fails to compile, or a net has multiple drivers. \p NL must outlive
  /// the simulator.
  static std::unique_ptr<Simulator> build(netlist::Netlist &NL, SourceMgr &SM,
                                          DiagnosticEngine &Diags);
  static std::unique_ptr<Simulator> build(netlist::Netlist &NL, SourceMgr &SM,
                                          DiagnosticEngine &Diags,
                                          Options Opts);
  /// As above, additionally offering a cached "LSSKRN 1" kernel artifact
  /// to adopt when the compiled engine is selected (null = build fresh).
  /// A rejected artifact silently falls back to a fresh lowering —
  /// getKernelStats()->FromCache reports what happened.
  static std::unique_ptr<Simulator> build(netlist::Netlist &NL, SourceMgr &SM,
                                          DiagnosticEngine &Diags,
                                          Options Opts,
                                          const std::string *KernelArtifact);

  ~Simulator();

  /// (Re)initializes all state and invokes init behaviors and userpoints.
  void reset();

  /// Advances \p N clock cycles.
  void step(uint64_t N = 1);

  uint64_t getCycle() const { return Cycle; }

  Instrumentation &getInstrumentation() { return Instr; }
  const Options &getOptions() const { return Opts; }
  const BuildInfo &getBuildInfo() const { return Info; }
  const ActivityStats &getActivityStats() const { return Activity; }

  /// The engine build() resolved (never Auto).
  EngineKind getEngine() const { return ResolvedEngine; }
  const char *getEngineName() const { return engineName(ResolvedEngine); }
  /// Kernel provenance and op counts; null unless the compiled engine is
  /// active.
  const KernelStats *getKernelStats() const;
  /// Renders the compiled kernel as its byte-stable "LSSKRN 1" artifact
  /// for caching; returns false (leaving \p Out untouched) unless the
  /// compiled engine is active.
  bool serializeKernel(std::string &Out) const;

  /// The value most recently driven on (instance path, output port, index),
  /// or null if none was sent this cycle / the node does not exist.
  const interp::Value *peekPort(const std::string &InstPath,
                                const std::string &Port, int Index) const;

  /// Resolved-handle probing: resolve the (path, port, index) key once,
  /// then peek by net id each cycle without rebuilding the string key.
  /// Returns -1 if the port instance does not exist.
  int resolvePortNet(const std::string &InstPath, const std::string &Port,
                     int Index) const;
  const interp::Value *peekPort(int NetId) const;

  /// Mutable per-instance state (runtime variables and behavior state);
  /// null if the instance has no runtime record or slot. The returned
  /// pointer is stable for the simulator's lifetime (including across
  /// reset()), so per-cycle probe loops may resolve it once and hold it.
  interp::Value *findState(const std::string &InstPath,
                           const std::string &Name);

  /// True if any diagnostics-reported runtime error occurred while
  /// stepping (the simulator keeps running best-effort).
  bool hadRuntimeErrors() const {
    return RuntimeErrors.load(std::memory_order_relaxed);
  }

private:
  Simulator(netlist::Netlist &NL, SourceMgr &SM, DiagnosticEngine &Diags,
            Options Opts);

  bool construct();

  /// Sentinel for "never written" in Net::DirtyCycle.
  static constexpr uint64_t NeverDirty = ~uint64_t(0);

  struct Net {
    interp::Value V;
    bool Has = false;     ///< Sent this cycle (or, mid-group, this round).
    bool PrevHas = false; ///< Sent last cycle (snapshotted pre-evaluation).
    /// Cycle of the last observable change: a write that altered the value,
    /// a send appearing after an absent cycle, or a send ceasing. The
    /// selective engine skips a group when no input net's DirtyCycle equals
    /// the current cycle.
    uint64_t DirtyCycle = NeverDirty;
    int DriverRuntime = -1; ///< Runtime index of the driving leaf, or -1.
  };

  /// One instrumentation event captured during parallel evaluation; the
  /// payload is copied so the flush can emit it after the producing level
  /// completed. Flushing in ascending group order at the end of the
  /// combinational phase makes the stream identical to the serial
  /// engine's (levels are not contiguous in group index, so a per-level
  /// flush would not be).
  struct BufferedEvent {
    const std::string *InstancePath = nullptr;
    /// Stable name pointer (automatic port events, replays); null when the
    /// name was a caller temporary and NameStore owns the copy.
    const std::string *Name = nullptr;
    std::string NameStore;
    uint64_t Cycle = 0;
    interp::Value Payload;
  };

  class Runtime; // One per instance with behavior/userpoints/state.

  /// [Begin, Begin+Count) slice of NetIdPool.
  using NetRange = CompiledKernel::Range;
  /// One declared port of a leaf runtime (Runtime::PortSlots).
  struct PortSlot {
    std::string Name;
    /// Net id per port instance (-1 unconnected), in NetIdPool.
    NetRange Nets;
    std::string EventName; ///< "port:<name>" for outputs, "" for inputs.
    bool IsOutput = false;
  };
  std::span<const int> netIds(NetRange R) const {
    return {NetIdPool.data() + R.Begin, size_t(R.Count)};
  }

  void evaluateGroup(size_t GroupIdx, ActivityStats &Stats);
  void skipGroup(size_t GroupIdx);
  void stepSerial(uint64_t N);
  void stepWavefront(uint64_t N);
  void runSequentialPhase();
  void flushCycleEvents();
  void reportFixpointFailure(size_t GroupIdx);
  void runUserpointPhase(const std::string &Name);
  void runEndOfTimestepUserpoints();

  netlist::Netlist &NL;
  SourceMgr &SM;
  DiagnosticEngine &Diags;
  Options Opts;
  Instrumentation Instr;
  BuildInfo Info;

  std::vector<Net> Nets;
  /// Backing store of every runtime's port-net, input-net and output-net
  /// lists (NetRange slices), one allocation for the whole simulator.
  std::vector<int> NetIdPool;
  /// Backing store of every runtime's state slots (bsl::StateTable).
  bsl::SlotPool StatePool;
  /// Backing store of every leaf runtime's port slots.
  std::vector<PortSlot> PortSlotPool;
  /// Storage for the runtimes, sized once in construct() and never
  /// resized (Runtime pointers are stable); Runtimes indexes it densely.
  std::vector<std::optional<Runtime>> RuntimeStore;
  std::vector<Runtime *> Runtimes;
  /// Runtime indices of leaves, in schedule order groups.
  Schedule Sched;
  /// Dense node id (netlist::Netlist::nodeIdOf over the frozen numbering)
  /// -> net id. Flat array: probe resolution and slot wiring never build
  /// or hash string keys.
  std::vector<int> NodeNet;
  /// InstanceNode::Id -> runtime record (null for instances without one);
  /// findState resolves the path once through the netlist's interned path
  /// index, then indexes this directly.
  std::vector<Runtime *> RuntimeOfInstance;

  /// The engine resolved from Opts at build time (never Auto).
  EngineKind ResolvedEngine = EngineKind::Interp;
  /// The compiled engine's flat cycle program (sim/CompiledKernel),
  /// lowered by KernelBuilder after construct()+reset(); null for the
  /// interpreted engines. step() routes through it when set.
  std::unique_ptr<CompiledKernel> Kernel;

  uint64_t Cycle = 0;
  /// Sticky error flag; atomic because worker threads running userpoints
  /// or failing fixpoints set it during the parallel phase.
  std::atomic<bool> RuntimeErrors{false};
  /// Per-group fixpoint convergence flag (indexed by group): replaces the
  /// old simulator-global NetChanged so concurrently iterating cyclic
  /// groups don't share a flag — iteration counts stay identical at any
  /// thread count.
  std::vector<char> GroupDirty;
  ActivityStats Activity;
  /// Per-group: has this group been evaluated at least once since reset()?
  /// A group is never skipped before its first evaluation (its replay
  /// records would be empty).
  std::vector<char> GroupEvaluated;
  /// Instrumentation version observed at the last cycle start; a mismatch
  /// forces one exhaustive cycle so freshly attached collectors see every
  /// event live and replay records are rebuilt.
  unsigned LastInstrVersion = 0;
  /// All-dirty bypass (selective engines): a probe cycle that skips fewer
  /// than 1 in 8 of its eligible skippable groups arms this countdown, and
  /// while it is nonzero the per-group quiescence scan is suppressed
  /// entirely — every group evaluates, exactly as the exhaustive engine
  /// would, so the selective engine's overhead on all-active models decays
  /// to one probe scan per window. Identical logic in the serial and
  /// wavefront engines (the decision runs on the main thread), so stats
  /// stay bit-identical across thread counts.
  static constexpr uint64_t BypassWindow = 32;
  uint64_t BypassCountdown = 0;
  /// Probe-cycle accounting shared by both step loops.
  void maybeArmBypass(uint64_t Eligible, uint64_t Skipped) {
    if (Eligible && Skipped * 8 < Eligible)
      BypassCountdown = BypassWindow;
  }
  /// Runtimes carrying an end_of_timestep userpoint (hot-path cache).
  std::vector<Runtime *> EotRuntimes;
  bool EotRuntimesValid = false;

  //===--- Wavefront engine state (Opts.Jobs > 1 only) -------------------===//
  std::unique_ptr<ThreadPool> Pool;
  /// One ActivityStats shard per worker; merged into Activity after each
  /// cycle's combinational phase.
  std::vector<ActivityStats> StatShards;
  /// Per-group event buffer: workers (and the skip path) append here
  /// instead of calling Instrumentation::emit, and the main thread
  /// flushes once per cycle in ascending group order.
  std::vector<std::vector<BufferedEvent>> GroupEventBufs;
  /// True while the combinational phase of a parallel cycle runs (set and
  /// cleared by the main thread with the pool quiescent): routes events
  /// into GroupEventBufs.
  bool BufferEvents = false;
  /// Per-group "fixpoint did not converge" flags; diagnostics for them are
  /// emitted by the main thread at the end of the combinational phase, in
  /// ascending group order, so the report stream is deterministic.
  std::vector<char> FixpointFailed;
  /// Per-group watchdog capture: net ids still changing during the final
  /// fixpoint iteration of a non-converging group (capped at 8). Each slot
  /// is written only by the group's own evaluator, so parallel levels need
  /// no lock; the deferred report reads it on the main thread in the same
  /// cycle, while the nets still hold their oscillating values.
  std::vector<std::vector<int>> GroupOscillating;
  /// Serializes DiagnosticEngine access from worker threads (userpoint
  /// runtime errors). Unused when Jobs == 1.
  std::mutex DiagsMutex;
  /// Scratch for the per-level dispatch loop (group indices to evaluate).
  std::vector<int> LevelPending;

  friend class SimulatorTestPeer;
  /// The compiled engine: KernelBuilder lowers over the private slot
  /// tables; CompiledKernel::run drives Nets/Instr/Cycle directly.
  friend class CompiledKernel;
  friend class KernelBuilder;
  friend class KernelBuilderImpl;
};

/// The engine build() runs for \p O (never Auto). An explicit kind wins;
/// Auto gives Wavefront when Jobs > 1, else Compiled when Selective is set
/// (the default Options{}), else Interp. Callers that must agree with the
/// simulator about the engine (the kernel-caching phase of
/// driver/CompileService) use this instead of reading Options::Engine.
EngineKind resolveEngine(const Simulator::Options &O);

} // namespace sim
} // namespace liberty

#endif // LIBERTY_SIM_SIMULATOR_H
