//===- SimRuntime.h - Per-instance simulation record ------------*- C++ -*-===//
///
/// \file
/// The definition of Simulator::Runtime, the per-instance record through
/// which leaf behaviors see the simulation (it implements
/// bsl::BehaviorContext over the simulator's dense net array and the
/// instance's slot tables). Historically a Simulator.cpp-private class; it
/// lives in this internal header so the compiled-kernel lowering
/// (sim/KernelBuilder) and the kernel interpreter (sim/CompiledKernel) can
/// read the same slot tables the interpreted engines use. Not part of the
/// public sim/ API — include Simulator.h instead.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_SIM_SIMRUNTIME_H
#define LIBERTY_SIM_SIMRUNTIME_H

#include "sim/Simulator.h"

#include <map>
#include <mutex>

namespace liberty {
namespace sim {

class Simulator::Runtime : public bsl::BehaviorContext {
public:
  Runtime(Simulator &Sim, netlist::InstanceNode *Node)
      : Sim(Sim), Node(Node), StateVars(Sim.StatePool),
        Stats(&Sim.Activity) {}

  Simulator &Sim;
  netlist::InstanceNode *Node;
  /// Null for hierarchical instances (which may still carry userpoints and
  /// runtime variables).
  std::unique_ptr<bsl::LeafBehavior> Behavior;

  /// One entry per declared port, addressed by the dense port id that
  /// bindPort() hands out: this runtime's slice of Sim.PortSlotPool.
  /// Components have a handful of ports, so the name-based accessors scan
  /// this linearly; the id-based accessors index it directly. The pool
  /// never changes after construct(), so pointers into it (EventName) are
  /// stable.
  std::span<PortSlot> PortSlots;

  /// Behavior state and BSL runtime variables, lowered from a string map
  /// to dense slots resolved at bind time; values live in Sim.StatePool.
  bsl::StateTable StateVars;

  int findPortId(const std::string &Port) const {
    for (size_t I = 0; I != PortSlots.size(); ++I)
      if (PortSlots[I].Name == Port)
        return int(I);
    return -1;
  }

  struct CompiledUserpoint {
    const lss::UserpointSig *Sig = nullptr;
    std::unique_ptr<bsl::BslProgram> Prog;
  };
  std::map<std::string, CompiledUserpoint> Userpoints;
  int ScheduleNode = -1;

  /// Behavior declares hasPureEvaluate(): sends are a function of input
  /// net values only, so the selective engine may skip evaluate() in
  /// quiescent cycles.
  bool Pure = false;
  /// Net ids this leaf drives / reads (sorted, deduplicated, in
  /// Sim.NetIdPool), for the per-group preparation and absence passes.
  NetRange OutputNets;
  NetRange InputNets;
  /// The automatic port events evaluate() emitted last time it ran, as
  /// (event-name, net-id) pairs. Recorded only while instrumentation is
  /// attached and the runtime is pure; replayed when the group is skipped
  /// so collectors see a bit-identical event stream.
  std::vector<std::pair<const std::string *, int>> LastSends;

  /// Where activity counters go. Points at the simulator-global stats for
  /// the serial engine; the wavefront engine repoints it at the executing
  /// worker's shard before each evaluation.
  ActivityStats *Stats;
  /// The owning schedule group's fixpoint-dirty flag (&Sim.GroupDirty[G]);
  /// points at OwnDirty for runtimes outside the schedule.
  char *FixpointDirty = &OwnDirty;
  char OwnDirty = 0;
  /// The owning group's event buffer when the wavefront engine is active,
  /// else null (events are emitted directly).
  std::vector<BufferedEvent> *Buf = nullptr;

  void resetState() {
    // Blank values but keep slot identities: state ids bound in init() and
    // Value pointers handed out by findState() survive the reset.
    StateVars.resetValues();
    for (const netlist::RuntimeVar &RV : Node->RuntimeVars)
      StateVars[RV.Name] = RV.Init;
  }

  // BehaviorContext implementation.
  int getWidth(const std::string &Port) const override {
    // For leaves the slot table is authoritative (its length is the
    // inferred width); hierarchical runtimes fall back to the netlist.
    if (int Id = findPortId(Port); Id >= 0)
      return PortSlots[size_t(Id)].Nets.Count;
    const netlist::Port *P = Node->findPort(Port);
    return P ? P->Width : 0;
  }

  const types::Type *getPortType(const std::string &Port) const override {
    const netlist::Port *P = Node->findPort(Port);
    return P ? P->Resolved : nullptr;
  }

  const interp::Value *getInput(const std::string &Port,
                                int Index) const override {
    return getInput(findPortId(Port), Index);
  }

  void setOutput(const std::string &Port, int Index,
                 interp::Value V) override {
    setOutput(findPortId(Port), Index, std::move(V));
  }

  int bindPort(const std::string &Port) const override {
    return findPortId(Port);
  }

  int getWidth(int PortId) const override {
    if (PortId < 0 || PortId >= int(PortSlots.size()))
      return 0;
    return PortSlots[size_t(PortId)].Nets.Count;
  }

  const interp::Value *getInput(int PortId, int Index) const override {
    if (PortId < 0 || PortId >= int(PortSlots.size()))
      return nullptr;
    const PortSlot &PS = PortSlots[size_t(PortId)];
    if (Index < 0 || Index >= PS.Nets.Count)
      return nullptr;
    int NetId = Sim.NetIdPool[size_t(PS.Nets.Begin + Index)];
    if (NetId < 0)
      return nullptr;
    const Net &N = Sim.Nets[NetId];
    return N.Has ? &N.V : nullptr;
  }

  void setOutput(int PortId, int Index, interp::Value V) override {
    if (PortId < 0 || PortId >= int(PortSlots.size()))
      return; // Unconnected port: the value vanishes.
    PortSlot &PS = PortSlots[size_t(PortId)];
    if (Index < 0 || Index >= PS.Nets.Count)
      return;
    int NetId = Sim.NetIdPool[size_t(PS.Nets.Begin + Index)];
    if (NetId < 0)
      return;
    Net &N = Sim.Nets[NetId];
    ++Stats->NetWrites;
    if (!N.Has) {
      // First send this evaluation round. The group dirty flag feeds the
      // cyclic groups' fixpoint test and must fire on presence appearing
      // even if the value matches, preserving the iteration counts of
      // exhaustive evaluation. DirtyCycle, by contrast, only stamps
      // observable cross-cycle change (value differs, or the net was
      // absent last cycle).
      *FixpointDirty = 1;
      if (!N.PrevHas || !N.V.equals(V)) {
        N.V = std::move(V);
        N.DirtyCycle = Sim.Cycle;
        ++Stats->NetChanges;
      }
      N.Has = true;
    } else if (!N.V.equals(V)) {
      // Re-send with a different value (fixpoint iteration).
      N.V = std::move(V);
      N.DirtyCycle = Sim.Cycle;
      *FixpointDirty = 1;
      ++Stats->NetChanges;
    }
    if (!Sim.Instr.empty() && PS.IsOutput) {
      if (Sim.BufferEvents) {
        BufferedEvent BE;
        BE.InstancePath = &Node->Path;
        BE.Name = &PS.EventName;
        BE.Cycle = Sim.Cycle;
        BE.Payload = N.V;
        Buf->push_back(std::move(BE));
      } else {
        Event E;
        E.InstancePath = &Node->Path;
        E.Name = &PS.EventName;
        E.Cycle = Sim.Cycle;
        E.Payload = &N.V;
        Sim.Instr.emit(E);
      }
      if (Pure)
        LastSends.emplace_back(&PS.EventName, NetId);
    }
  }

  const interp::Value *getParam(const std::string &Name) const override {
    auto It = Node->Params.find(Name);
    return It == Node->Params.end() ? nullptr : &It->second;
  }

  bool hasUserpoint(const std::string &Name) const override {
    return Userpoints.count(Name) != 0;
  }

  interp::Value callUserpoint(const std::string &Name,
                              std::vector<interp::Value> Args) override {
    auto It = Userpoints.find(Name);
    if (It == Userpoints.end() || !It->second.Prog)
      return interp::Value();
    bsl::BslEnv Env;
    if (const lss::UserpointSig *Sig = It->second.Sig) {
      unsigned N = std::min(Args.size(), Sig->Args.size());
      for (unsigned I = 0; I != N; ++I)
        Env.Args[Sig->Args[I].first] = std::move(Args[I]);
    }
    Env.RuntimeVars = &StateVars;
    Env.Params = &Node->Params;
    if (Sim.Pool) {
      // Wavefront engine: the diagnostic engine is not thread-safe, so
      // userpoint execution (which may report runtime errors) is
      // serialized. Userpoint-bearing behaviors are rare on the hot path.
      std::lock_guard<std::mutex> Lock(Sim.DiagsMutex);
      return runUserpointLocked(It->second, Env);
    }
    return runUserpointLocked(It->second, Env);
  }

  interp::Value runUserpointLocked(CompiledUserpoint &CU, bsl::BslEnv &Env) {
    unsigned ErrorsBefore = Sim.Diags.getNumErrors();
    interp::Value Result = CU.Prog->run(Env, Sim.Diags);
    if (Sim.Diags.getNumErrors() != ErrorsBefore)
      Sim.RuntimeErrors.store(true, std::memory_order_relaxed);
    return Result;
  }

  interp::Value &state(const std::string &Name) override {
    return StateVars[Name];
  }

  int bindState(const std::string &Name) override {
    return StateVars.bind(Name);
  }

  interp::Value &state(int StateId) override { return StateVars.slot(StateId); }

  void emitEvent(const std::string &EventName,
                 const interp::Value &Payload) override {
    if (Sim.Instr.empty())
      return;
    if (Sim.BufferEvents) {
      // The name may be a caller temporary, so the buffered record owns a
      // copy (NameStore); the payload is copied regardless.
      BufferedEvent BE;
      BE.InstancePath = &Node->Path;
      BE.NameStore = EventName;
      BE.Cycle = Sim.Cycle;
      BE.Payload = Payload;
      Buf->push_back(std::move(BE));
      return;
    }
    Event E;
    E.InstancePath = &Node->Path;
    E.Name = &EventName;
    E.Cycle = Sim.Cycle;
    E.Payload = &Payload;
    Sim.Instr.emit(E);
  }

  uint64_t getCycle() const override { return Sim.Cycle; }

  const std::string &getInstancePath() const override { return Node->Path; }
};

} // namespace sim
} // namespace liberty

#endif // LIBERTY_SIM_SIMRUNTIME_H
