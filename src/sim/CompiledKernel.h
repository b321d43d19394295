//===- CompiledKernel.h - Flat cycle kernel for the compiled engine -*- C++ -*-===//
///
/// \file
/// The compiled simulation engine's execution plan: the elaborated netlist,
/// lowered by sim/KernelBuilder into a flat structure-of-arrays program that
/// one tight loop replays every cycle. Where the interpreted engines walk
/// schedule groups and dispatch through LeafBehavior virtual calls, the
/// kernel holds:
///
///  - one Op per schedule group, in the precomputed ASAP evaluation order
///    (ascending group index — the serial engine's order);
///  - devirtualized op kinds for the hot corelib behaviors (const/counter
///    sources, source, bool_source, adder, fanout, delay, reg, queue,
///    sink), whose evaluate() bodies are replayed directly over dense net
///    ids with no virtual call, no port-slot indirection, and no string
///    hashing;
///  - a Generic kind that falls back to Simulator::evaluateGroup for
///    everything else (multi-member fixpoint groups, unspecialized
///    behaviors, a source with a generate userpoint), so diagnostics and
///    fixpoint semantics stay bit-identical;
///  - a sequential-phase op list with the no-op endOfTimestep calls of
///    eot-free behaviors elided and the delay latch, reg latch and queue
///    end-of-timestep devirtualized.
///
/// All net/runtime id lists live in one shared operand pool (NetPool) and
/// ops reference it by [Begin, Count) ranges — the structure-of-arrays
/// layout keeps the per-cycle walk cache-linear.
///
/// State: a lowered op keeps no state of its own. delay and reg read the
/// instance's "held" StateTable slot; queue, source and bool_source run the
/// inline steps of corelib/BehaviorState.h on the struct their LeafBehavior
/// owns, found by behavior id at build time. The interpreted path runs the
/// same steps on the same struct, and reset() re-runs every behavior's
/// init(), which re-initializes that struct in place — so a lowered op
/// holds the one copy of its state and reset() restores it exactly.
///
/// Semantics contract: running the kernel is bit-identical (events, final
/// net values, runtime state) to the exhaustive serial interpreter, which
/// the repo's differential tests pin to the selective and wavefront
/// engines too.
///
/// Dirty-skip: every write stamps Net::DirtyCycle on an observable change
/// (and each op's absence pass stamps sends that ceased), exactly as
/// Runtime::setOutput and Simulator::evaluateGroup do. An op whose group
/// the schedule marks skippable (a pure singleton) is skipped — prep and
/// body, so its previous sends carry forward — once it has been evaluated
/// since reset() and none of the nets it reads changed this cycle. The
/// kernel never skips while a collector is attached, so event streams need
/// no replay and stay identical to the interpreter's.
///
/// Events and activity counters: with a collector attached, every event
/// (automatic port events and the declared sink/queue events) is emitted
/// call-for-call as the interpreter emits it; with none, no event is
/// built. GroupsEvaluated, GroupsSkipped, LeafEvals, LeafEvalsSkipped,
/// NetWrites and NetChanges follow the interpreter's rules (one leaf eval
/// per specialized op evaluated, one net write per write to a connected
/// net, a change when that write altered value or presence), so on a run
/// with nothing skipped they equal the exhaustive interpreter's exactly.
///
/// The plan is rebuilt with every simulator (lowering is a linear pass
/// over the schedule) and is never cached or serialized.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_SIM_COMPILEDKERNEL_H
#define LIBERTY_SIM_COMPILEDKERNEL_H

#include "interp/Value.h"

#include <cstdint>
#include <string>
#include <vector>

namespace liberty {

namespace corelib {
struct QueueState;
struct SourceState;
struct BoolSourceState;
} // namespace corelib

namespace sim {

class Simulator;

/// Combinational op kinds. Every kind except Generic replays one specific
/// corelib behavior's evaluate() body; Generic delegates the whole group
/// to Simulator::evaluateGroup.
enum class KernelOpKind : uint8_t {
  Generic = 0,
  ConstSource,   ///< corelib/const_source
  CounterSource, ///< corelib/counter_source
  SourceGen,     ///< corelib/source without a generate userpoint
  BoolSource,    ///< corelib/bool_source
  Adder,         ///< corelib/adder
  Fanout,        ///< corelib/fanout
  DelayEval,     ///< corelib/delay.tar (combinational half)
  RegEval,       ///< corelib/reg (combinational half)
  QueueEval,     ///< corelib/queue (combinational half)
  Sink,          ///< corelib/sink
};
constexpr unsigned NumKernelOpKinds = unsigned(KernelOpKind::Sink) + 1;

/// The shape of a compiled-engine simulator's kernel, reported through
/// --stats-json.
struct KernelStats {
  double BuildMs = 0.0;           ///< Wall time spent lowering.
  unsigned NumOps = 0;            ///< Combinational ops (== schedule groups).
  unsigned NumSpecializedOps = 0; ///< Devirtualized singleton groups.
  unsigned NumGenericOps = 0;     ///< evaluateGroup fallbacks.
  unsigned NumSeqOps = 0;         ///< Sequential-phase ops kept.
  unsigned NumSeqElided = 0;      ///< No-op endOfTimestep calls removed.
  /// Combinational ops per kind, indexed by KernelOpKind.
  unsigned OpsByKind[NumKernelOpKinds] = {};
};

class CompiledKernel {
public:
  using OpKind = KernelOpKind;

  /// Sequential-phase op kinds.
  enum class SeqKind : uint8_t {
    GenericEot = 0, ///< Behavior->endOfTimestep(*Runtime)
    DelayLatch,     ///< corelib/delay.tar: held <- in[0]
    RegLatch,       ///< corelib/reg: held <- in[0] when enabled
    QueueEot,       ///< corelib/queue: dequeue, then enqueue or drop
  };

  /// [Begin, Begin+Count) slice of an id pool (NetPool here; the
  /// simulator's NetIdPool for its runtimes' net lists).
  struct Range {
    int32_t Begin = 0;
    int32_t Count = 0;
  };

  struct Op {
    OpKind Kind = OpKind::Generic;
    /// The schedule marks the group skippable (pure singleton).
    bool Skippable = false;
    int32_t Group = -1;      ///< Schedule group index (== position in Ops).
    /// Output nets to prepare (PrevHas <- Has; Has <- false) before the
    /// body runs; empty for Generic (evaluateGroup prepares internally).
    Range Prep;
    /// Connected output nets in port-index order (writes + port events).
    Range Out;
    /// Input nets the body reads, kind-specific layout (see the runner);
    /// the dirty-skip test of a specialized op reads exactly these.
    Range In;
    int64_t ImmA = 0; ///< ConstSource: value; CounterSource: start.
    int64_t ImmB = 0; ///< CounterSource: stride.
    /// DelayEval/RegEval: the "held" slot; QueueEval: the "occupancy"
    /// slot; Sink: the "received" slot. Stable across reset() (state
    /// slots live in the simulator's slot pool).
    interp::Value *State = nullptr;
    /// The behavior-owned state of a lowered stateful behavior, one member
    /// per kind (see corelib/BehaviorState.h).
    union {
      corelib::QueueState *Queue;       ///< QueueEval
      corelib::SourceState *Source;     ///< SourceGen
      corelib::BoolSourceState *BoolSrc; ///< BoolSource
    } Behavior{nullptr};
    /// "port:<name>" of the written output slot (automatic port events);
    /// Sink: the declared "received" event name.
    const std::string *EventName = nullptr;
    const std::string *Path = nullptr; ///< Instance path for events.
  };

  /// RegLatch::CtlNet of a reg whose en port has width 0: always enabled
  /// (distinct from -1, a net id that reads as absent and so holds).
  static constexpr int32_t AlwaysEnabled = -2;

  struct SeqOp {
    SeqKind Kind = SeqKind::GenericEot;
    int32_t RuntimeIdx = -1;
    /// DelayLatch/RegLatch: in[0] net id, or -1.
    int32_t InNet = -1;
    /// RegLatch: en[0] net id, or AlwaysEnabled. QueueEot: stall[0] net
    /// id, or -1 (no stall port: never stalled).
    int32_t CtlNet = -1;
    /// QueueEot: in[0..width) net ids in port-index order.
    Range In;
    /// DelayLatch/RegLatch: the "held" slot.
    interp::Value *State = nullptr;
    corelib::QueueState *Queue = nullptr; ///< QueueEot
    const std::string *Path = nullptr;    ///< QueueEot: instance path.
  };

  /// Runs \p N cycles of \p Sim through the kernel. \p Sim must be the
  /// simulator this kernel was built against.
  void run(Simulator &Sim, uint64_t N);

  /// The declared event name Sink emits; kernel-owned so the emitted
  /// Event's name pointer has a stable address.
  static const std::string &sinkEventName();

  /// The op kind's name in --stats-json's kernel_ops_by_kind.
  static const char *opKindName(OpKind K);

  std::vector<Op> Ops;
  std::vector<SeqOp> SeqOps;
  std::vector<int32_t> NetPool; ///< Backing store for every Range.
  KernelStats Stats;
};

} // namespace sim
} // namespace liberty

#endif // LIBERTY_SIM_COMPILEDKERNEL_H
