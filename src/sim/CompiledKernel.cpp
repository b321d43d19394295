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
/// interpreter bit for bit.
///
//===----------------------------------------------------------------------===//

#include "sim/CompiledKernel.h"

#include "sim/SimRuntime.h"

#include <sstream>

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
  case OpKind::Adder:
    return "adder";
  case OpKind::Fanout:
    return "fanout";
  case OpKind::DelayEval:
    return "delay_eval";
  case OpKind::Sink:
    return "sink";
  }
  return "generic";
}

const char *CompiledKernel::seqKindName(SeqKind K) {
  switch (K) {
  case SeqKind::GenericEot:
    return "eot";
  case SeqKind::DelayLatch:
    return "delay_latch";
  }
  return "eot";
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

  for (uint64_t Step = 0; Step != N; ++Step) {
    const uint64_t Cycle = Sim.Cycle;
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
        for (int32_t K = 0; K != O.Out.Count; ++K) {
          Simulator::Net &Nt = Nets[Pool[O.Out.Begin + K]];
          writeNetInt(Nt, O.ImmA, Cycle, C);
          if (Emit)
            Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
        }
        break;

      case OpKind::CounterSource: {
        const int64_t CV = O.ImmA + O.ImmB * int64_t(Cycle);
        for (int32_t K = 0; K != O.Out.Count; ++K) {
          Simulator::Net &Nt = Nets[Pool[O.Out.Begin + K]];
          writeNetInt(Nt, CV, Cycle, C);
          if (Emit)
            Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
        }
        break;
      }

      case OpKind::Adder: {
        // In = {in1[0], in2[0]} (either may be -1: never fires, exactly
        // like getInput on an unconnected port). Out holds at most the
        // one connected out[0] net.
        int32_t A = Pool[O.In.Begin], B = Pool[O.In.Begin + 1];
        if (A < 0 || B < 0)
          break;
        const Simulator::Net &NA = Nets[A], &NB = Nets[B];
        if (!NA.Has || !NB.Has)
          break;
        if (NA.V.isInt() && NB.V.isInt()) {
          const int64_t Sum = NA.V.getInt() + NB.V.getInt();
          for (int32_t K = 0; K != O.Out.Count; ++K) {
            Simulator::Net &Nt = Nets[Pool[O.Out.Begin + K]];
            writeNetInt(Nt, Sum, Cycle, C);
            if (Emit)
              Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
          }
          break;
        }
        const Value Sum =
            Value::makeFloat(NA.V.getNumeric() + NB.V.getNumeric());
        for (int32_t K = 0; K != O.Out.Count; ++K) {
          Simulator::Net &Nt = Nets[Pool[O.Out.Begin + K]];
          writeNet(Nt, Sum, Cycle, C);
          if (Emit)
            Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
        }
        break;
      }

      case OpKind::Fanout: {
        int32_t InNet = Pool[O.In.Begin];
        if (InNet < 0 || !Nets[InNet].Has)
          break;
        const Value &V = Nets[InNet].V;
        if (V.isInt()) {
          const int64_t IV = V.getInt();
          for (int32_t K = 0; K != O.Out.Count; ++K) {
            Simulator::Net &Nt = Nets[Pool[O.Out.Begin + K]];
            writeNetInt(Nt, IV, Cycle, C);
            if (Emit)
              Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
          }
          break;
        }
        for (int32_t K = 0; K != O.Out.Count; ++K) {
          Simulator::Net &Nt = Nets[Pool[O.Out.Begin + K]];
          writeNet(Nt, V, Cycle, C);
          if (Emit)
            Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
        }
        break;
      }

      case OpKind::DelayEval:
        if (O.State->isInt()) {
          const int64_t SV = O.State->getInt();
          for (int32_t K = 0; K != O.Out.Count; ++K) {
            Simulator::Net &Nt = Nets[Pool[O.Out.Begin + K]];
            writeNetInt(Nt, SV, Cycle, C);
            if (Emit)
              Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
          }
          break;
        }
        for (int32_t K = 0; K != O.Out.Count; ++K) {
          Simulator::Net &Nt = Nets[Pool[O.Out.Begin + K]];
          writeNet(Nt, *O.State, Cycle, C);
          if (Emit)
            Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
        }
        break;

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
      if (S.Kind == SeqKind::DelayLatch) {
        if (S.InNet >= 0 && Nets[S.InNet].Has) {
          const Value &V = Nets[S.InNet].V;
          if (V.isInt())
            S.State->setInt(V.getInt());
          else
            *S.State = V;
        }
      } else {
        Simulator::Runtime *RT = Sim.Runtimes[size_t(S.RuntimeIdx)];
        RT->Behavior->endOfTimestep(*RT);
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

//===----------------------------------------------------------------------===//
// LSSKRN 1 serialization
//===----------------------------------------------------------------------===//

std::string CompiledKernel::serialize() const {
  std::ostringstream OS;
  OS << "LSSKRN 1\n";
  OS << "counts " << Ops.size() << " " << SeqOps.size() << " "
     << NetPool.size() << "\n";
  auto EmitRange = [&](const char *Tag, const Range &R) {
    OS << " " << Tag << " " << R.Count;
    for (int32_t K = 0; K != R.Count; ++K)
      OS << " " << NetPool[size_t(R.Begin + K)];
  };
  for (const Op &O : Ops) {
    OS << "op " << opKindName(O.Kind) << " " << O.Group << " " << O.RuntimeIdx
       << " " << O.ImmA << " " << O.ImmB;
    EmitRange("prep", O.Prep);
    EmitRange("out", O.Out);
    EmitRange("in", O.In);
    OS << "\n";
  }
  for (const SeqOp &S : SeqOps)
    OS << "seq " << seqKindName(S.Kind) << " " << S.RuntimeIdx << " "
       << S.InNet << "\n";
  OS << "end\n";
  return OS.str();
}
