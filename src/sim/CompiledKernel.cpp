//===- CompiledKernel.cpp - Flat cycle kernel interpreter ---------------------===//
///
/// \file
/// The compiled engine's per-cycle loop. Each specialized op replays the
/// corresponding corelib behavior's evaluate() body over dense net ids;
/// the write helpers mirror Runtime::setOutput's net-update rule, dirty
/// stamp and activity counters (the fixpoint dirty flag and replay
/// records only matter to cyclic groups and to skipping under a collector,
/// neither of which a specialized op sees). Event emission — one automatic
/// port event per write call, payload read back from the net after the
/// write — is kept call-for-call identical so traces match the serial
/// interpreter bit for bit. The stateful kinds (source, bool_source,
/// queue) call the same inline steps the corelib behaviors call
/// (corelib/BehaviorState.h), on the behavior's own state.
///
//===----------------------------------------------------------------------===//

#include "sim/CompiledKernel.h"

#include "corelib/BehaviorState.h"
#include "sim/SimRuntime.h"

using namespace liberty;
using namespace liberty::sim;
using interp::Value;

const std::string &CompiledKernel::sinkEventName() {
  static const std::string Name = "received";
  return Name;
}

const char *CompiledKernel::opKindName(OpKind K) {
  switch (K) {
  case OpKind::Generic:
    return "generic";
  case OpKind::ConstSource:
    return "const_source";
  case OpKind::CounterSource:
    return "counter_source";
  case OpKind::SourceGen:
    return "source";
  case OpKind::BoolSource:
    return "bool_source";
  case OpKind::Adder:
    return "adder";
  case OpKind::Fanout:
    return "fanout";
  case OpKind::DelayEval:
    return "delay_eval";
  case OpKind::RegEval:
    return "reg_eval";
  case OpKind::QueueEval:
    return "queue_eval";
  case OpKind::Sink:
    return "sink";
  }
  return "generic";
}

namespace {

/// The activity counters the cycle loop bumps, kept in locals so they live
/// in registers rather than behind a pointer that may alias the nets;
/// flushed into the simulator's ActivityStats when run() returns.
struct Counters {
  uint64_t GroupsEvaluated = 0, GroupsSkipped = 0, NetWrites = 0,
           NetChanges = 0;
};

/// Runtime::setOutput's rule for a write to a connected net: presence
/// appears, and the stored value is reassigned (a change: stamped dirty
/// and counted) only when the net was absent last cycle or the value
/// differs — the same equals() guard, so Value identity churn matches the
/// interpreter. Templated so the private Simulator::Net type is named only
/// inside the friended caller.
template <class NetT>
inline void writeNet(NetT &N, const Value &V, uint64_t Cycle, Counters &C) {
  ++C.NetWrites;
  if ((N.Has || N.PrevHas) && N.V.equals(V)) {
    N.Has = true;
    return;
  }
  N.V = V;
  N.Has = true;
  N.DirtyCycle = Cycle;
  ++C.NetChanges;
}

/// writeNet for the all-integer fast path: same rule (equals() on an Int
/// value is a kind + payload compare), but the store is an in-place setInt
/// with no Value temporary.
template <class NetT>
inline void writeNetInt(NetT &N, int64_t V, uint64_t Cycle, Counters &C) {
  ++C.NetWrites;
  if ((N.Has || N.PrevHas) && N.V.isInt() && N.V.getInt() == V) {
    N.Has = true;
    return;
  }
  N.V.setInt(V);
  N.Has = true;
  N.DirtyCycle = Cycle;
  ++C.NetChanges;
}

} // namespace

void CompiledKernel::run(Simulator &Sim, uint64_t N) {
  // Collectors only attach between step() calls, so the emptiness test
  // hoists out of the cycle loop. With one attached every op evaluates
  // (nothing to replay); keep the version current so a later
  // engine-agnostic caller sees consistent state.
  const bool Emit = !Sim.Instr.empty();
  Sim.LastInstrVersion = Sim.Instr.getVersion();
  const int32_t *Pool = NetPool.data();
  Simulator::Net *Nets = Sim.Nets.data();
  char *Evaluated = Sim.GroupEvaluated.data();
  const Schedule &Sched = Sim.Sched;
  Counters C;
  uint64_t Cycle = Sim.Cycle;

  // The value on net \p NetId this cycle, or null (no net, or nothing
  // sent) — Runtime::getInput over a resolved net id.
  auto input = [Nets](int32_t NetId) -> const Value * {
    return NetId >= 0 && Nets[NetId].Has ? &Nets[NetId].V : nullptr;
  };
  // Sends \p V on every net of \p O.Out, one automatic port event per
  // write with the payload read back from the net, as setOutput does.
  auto send = [&](const Op &O, const Value &V) {
    for (int32_t K = 0; K != O.Out.Count; ++K) {
      Simulator::Net &Nt = Nets[Pool[O.Out.Begin + K]];
      writeNet(Nt, V, Cycle, C);
      if (Emit)
        Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
    }
  };
  // send() for an integer, stored in place with no Value temporary.
  auto sendInt = [&](const Op &O, int64_t V) {
    for (int32_t K = 0; K != O.Out.Count; ++K) {
      Simulator::Net &Nt = Nets[Pool[O.Out.Begin + K]];
      writeNetInt(Nt, V, Cycle, C);
      if (Emit)
        Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
    }
  };
  auto sendAny = [&](const Op &O, const Value &V) {
    if (V.isInt())
      sendInt(O, V.getInt());
    else
      send(O, V);
  };

  for (uint64_t Step = 0; Step != N; ++Step, Cycle = Sim.Cycle) {
    for (const Op &O : Ops) {
      if (O.Skippable && !Emit && Evaluated[O.Group]) {
        // Quiescent unless a net the op reads changed this cycle. Every
        // such net is read combinationally, so its driver ran earlier in
        // this cycle's order. Specialized ops test their In nets (-1 is
        // an unconnected input, which never changes); Generic ops the
        // group's input union.
        bool Quiescent = true;
        if (O.Kind == OpKind::Generic) {
          for (int NetId : Sched.groupInputNets(size_t(O.Group)))
            if (Nets[NetId].DirtyCycle == Cycle) {
              Quiescent = false;
              break;
            }
        } else {
          for (int32_t K = 0; K != O.In.Count; ++K) {
            int32_t NetId = Pool[O.In.Begin + K];
            if (NetId >= 0 && Nets[NetId].DirtyCycle == Cycle) {
              Quiescent = false;
              break;
            }
          }
        }
        if (Quiescent) {
          ++C.GroupsSkipped;
          continue;
        }
      }
      if (O.Kind == OpKind::Generic) {
        // evaluateGroup prepares, counts, stamps and marks the group
        // evaluated itself.
        Sim.evaluateGroup(size_t(O.Group), Sim.Activity);
        continue;
      }

      // Prepare: snapshot last cycle's presence on the op's output nets
      // and blank it.
      for (int32_t K = 0; K != O.Prep.Count; ++K) {
        Simulator::Net &Nt = Nets[Pool[O.Prep.Begin + K]];
        Nt.PrevHas = Nt.Has;
        Nt.Has = false;
      }
      switch (O.Kind) {
      case OpKind::Generic:
        break; // Handled above.

      case OpKind::ConstSource:
        // classifyGroup only specializes integer-valued const_source
        // params; ImmA holds the value.
        sendInt(O, O.ImmA);
        break;

      case OpKind::CounterSource:
        sendInt(O, O.ImmA + O.ImmB * int64_t(Cycle));
        break;

      case OpKind::SourceGen: {
        // Lowered only without a generate userpoint: the pattern alone.
        corelib::SourceState &S = *O.Behavior.Source;
        const int64_t V = corelib::sourceNext(S, Cycle);
        if (S.FloatOut)
          send(O, Value::makeFloat(static_cast<double>(V)));
        else
          sendInt(O, V);
        break;
      }

      case OpKind::BoolSource:
        send(O, Value::makeBool(corelib::boolSourceNext(*O.Behavior.BoolSrc,
                                                        Cycle)));
        break;

      case OpKind::Adder: {
        // In = {in1[0], in2[0]} (either may be -1: never fires, exactly
        // like getInput on an unconnected port). Out holds at most the
        // one connected out[0] net.
        const Value *A = input(Pool[O.In.Begin]);
        const Value *B = input(Pool[O.In.Begin + 1]);
        if (!A || !B)
          break;
        if (A->isInt() && B->isInt())
          sendInt(O, A->getInt() + B->getInt());
        else
          send(O, Value::makeFloat(A->getNumeric() + B->getNumeric()));
        break;
      }

      case OpKind::Fanout:
        if (const Value *V = input(Pool[O.In.Begin]))
          sendAny(O, *V);
        break;

      case OpKind::DelayEval:
        sendAny(O, *O.State);
        break;

      case OpKind::RegEval:
        // A reg sends only once it has latched a value.
        if (O.State->isData())
          sendAny(O, *O.State);
        break;

      case OpKind::QueueEval: {
        // Out holds at most the one connected out[0] net.
        corelib::QueueState &Q = *O.Behavior.Queue;
        if (const Value *Front = corelib::queueFront(Q))
          send(O, *Front);
        O.State->setInt(static_cast<int64_t>(Q.Q.size()));
        break;
      }

      case OpKind::Sink:
        // In lists the connected input nets in port-index order; the
        // declared "received" event fires per present value, after the
        // count update, exactly as Sink::evaluate does.
        for (int32_t K = 0; K != O.In.Count; ++K) {
          const Simulator::Net &Nt = Nets[Pool[O.In.Begin + K]];
          if (!Nt.Has)
            continue;
          Value &Count = *O.State;
          Count.setInt(Count.isInt() ? Count.getInt() + 1 : 1);
          if (Emit)
            Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
        }
        break;
      }
      // Absence pass: a send that ceased is an observable change.
      for (int32_t K = 0; K != O.Prep.Count; ++K) {
        Simulator::Net &Nt = Nets[Pool[O.Prep.Begin + K]];
        if (Nt.PrevHas && !Nt.Has)
          Nt.DirtyCycle = Cycle;
      }
      Evaluated[O.Group] = 1;
      ++C.GroupsEvaluated;
    }

    // Sequential phase, in runtime index order (== runSequentialPhase),
    // then the end_of_timestep userpoints.
    for (const SeqOp &S : SeqOps) {
      switch (S.Kind) {
      case SeqKind::DelayLatch:
        if (const Value *V = input(S.InNet)) {
          if (V->isInt())
            S.State->setInt(V->getInt());
          else
            *S.State = *V;
        }
        break;

      case SeqKind::RegLatch: {
        if (S.CtlNet != AlwaysEnabled) {
          const Value *En = input(S.CtlNet);
          if (!En || !En->isBool() || !En->getBool())
            break; // Disabled: hold.
        }
        // A value already held (same kind and word, e.g. the one shared
        // payload a reg chain passes along) needs no store.
        const Value *V = input(S.InNet);
        if (V && !S.State->identical(*V))
          *S.State = *V;
        break;
      }

      case SeqKind::QueueEot: {
        const Value *Stall = input(S.CtlNet);
        corelib::queueEndOfTimestep(
            *S.Queue, Stall && Stall->isBool() && Stall->getBool(),
            S.In.Count, [&](int I) { return input(Pool[S.In.Begin + I]); },
            [&](corelib::QueueEvent E, const Value &V) {
              if (Emit)
                Sim.Instr.emit(
                    Event{S.Path, &corelib::queueEventName(E), Cycle, &V});
            });
        break;
      }

      case SeqKind::GenericEot: {
        Simulator::Runtime *RT = Sim.Runtimes[size_t(S.RuntimeIdx)];
        RT->Behavior->endOfTimestep(*RT);
        break;
      }
      }
    }
    Sim.runEndOfTimestepUserpoints();

    ++Sim.Cycle;
  }

  // Specialized ops are singleton groups: one leaf eval per group.
  ActivityStats &A = Sim.Activity;
  A.Cycles += N;
  A.GroupsEvaluated += C.GroupsEvaluated;
  A.LeafEvals += C.GroupsEvaluated;
  A.GroupsSkipped += C.GroupsSkipped;
  A.LeafEvalsSkipped += C.GroupsSkipped;
  A.NetWrites += C.NetWrites;
  A.NetChanges += C.NetChanges;
}
