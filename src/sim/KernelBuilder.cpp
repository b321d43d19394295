//===- KernelBuilder.cpp - Netlist-to-kernel lowering -------------------------===//
///
/// \file
/// Classification and packing for the compiled engine. Lowering is a pure
/// function of the constructed simulator and writes each op's net lists
/// straight into the kernel's shared NetPool. load() revalidates a cached
/// LSSKRN artifact by lowering afresh and comparing the canonical
/// serialization byte for byte, so an adopted cache entry is exactly the
/// plan a cold build produces — a mismatch anywhere rejects the artifact.
///
/// Devirtualization trusts behavior ids: "corelib/adder" is assumed to be
/// the in-tree Adder, etc. That holds for this repo's global registry
/// (later re-registration under a corelib id would break the contract and
/// is pinned against by the cross-engine differential tests).
///
//===----------------------------------------------------------------------===//

#include "sim/KernelBuilder.h"

#include "sim/SimRuntime.h"

using namespace liberty;
using namespace liberty::sim;

using OpKind = CompiledKernel::OpKind;
using SeqKind = CompiledKernel::SeqKind;

namespace {

int64_t nodeParamInt(const netlist::InstanceNode *Node, const char *Name,
                     int64_t Default) {
  auto It = Node->Params.find(Name);
  return It != Node->Params.end() && It->second.isInt() ? It->second.getInt()
                                                        : Default;
}

/// Behavior ids whose endOfTimestep is the LeafBehavior no-op, verified
/// against src/corelib/CoreBehaviors.cpp — their sequential-phase calls
/// are elided from the kernel.
bool isEotFree(const std::string &Id) {
  static const char *const Free[] = {
      "corelib/const_source", "corelib/counter_source", "corelib/source",
      "corelib/bool_source",  "corelib/sink",           "corelib/adder",
      "corelib/alu",          "corelib/mux",            "corelib/demux",
      "corelib/fanout",
  };
  for (const char *F : Free)
    if (Id == F)
      return true;
  return false;
}

} // namespace

namespace liberty {
namespace sim {

/// Hosts every lowering step that reads the simulator's private runtime
/// tables. A named class (unlike the file-local helpers above) so
/// Simulator can befriend it; it exists only in this translation unit.
class KernelBuilderImpl {
public:
  KernelBuilderImpl(Simulator &Sim, CompiledKernel &K) : Sim(Sim), K(K) {}

  void lowerGroup(size_t G);
  void lowerSeqOps();

private:
  /// Appends \p Ids to the kernel's pool and returns their range.
  CompiledKernel::Range append(std::span<const int> Ids) {
    CompiledKernel::Range R{int32_t(K.NetPool.size()), int32_t(Ids.size())};
    K.NetPool.insert(K.NetPool.end(), Ids.begin(), Ids.end());
    return R;
  }

  /// Appends the connected net ids of \p Port in port-index order
  /// (unconnected indices dropped — their writes vanish in setOutput,
  /// preserving event order) and returns their range.
  CompiledKernel::Range appendConnected(const Simulator::Runtime *RT,
                                        const char *Port) {
    CompiledKernel::Range R{int32_t(K.NetPool.size()), 0};
    if (int Pid = RT->findPortId(Port); Pid >= 0)
      for (int NetId : Sim.netIds(RT->PortSlots[size_t(Pid)].Nets))
        if (NetId >= 0)
          K.NetPool.push_back(NetId);
    R.Count = int32_t(K.NetPool.size()) - R.Begin;
    return R;
  }

  /// Net id of (\p Port, index 0), or -1 (absent port / zero width /
  /// unconnected — all read as "no value" and swallow writes).
  int32_t portNet0(const Simulator::Runtime *RT, const char *Port) const {
    int Pid = RT->findPortId(Port);
    if (Pid < 0)
      return -1;
    std::span<const int> Nets = Sim.netIds(RT->PortSlots[size_t(Pid)].Nets);
    return Nets.empty() ? -1 : Nets[0];
  }

  /// The op kind for singleton runtime \p RT, or Generic. Only recognized
  /// corelib behaviors with resolvable state slots (init() has run, so
  /// bound slots exist) specialize.
  static OpKind classify(Simulator::Runtime *RT) {
    if (!RT->Behavior)
      return OpKind::Generic;
    const std::string &Id = RT->Node->BehaviorId;
    if (Id == "corelib/const_source")
      return OpKind::ConstSource;
    if (Id == "corelib/counter_source")
      return OpKind::CounterSource;
    if (Id == "corelib/adder")
      return OpKind::Adder;
    if (Id == "corelib/fanout")
      return OpKind::Fanout;
    if (Id == "corelib/delay.tar" && RT->StateVars.lookup("held"))
      return OpKind::DelayEval;
    if (Id == "corelib/sink" && RT->StateVars.lookup("received"))
      return OpKind::Sink;
    return OpKind::Generic;
  }

  Simulator &Sim;
  CompiledKernel &K;
};

/// Lowers schedule group \p G to its op. Multi-member groups and
/// unrecognized behaviors stay Generic (empty ranges) and keep the
/// interpreter's exact fixpoint/diagnostic path.
void KernelBuilderImpl::lowerGroup(size_t G) {
  CompiledKernel::Op &O = K.Ops.emplace_back();
  O.Group = int32_t(G);
  O.Skippable = Sim.Sched.GroupSkippable[G];
  std::span<const int> Group = Sim.Sched.group(G);
  Simulator::Runtime *RT =
      Group.size() == 1 ? Sim.Runtimes[size_t(Group.front())] : nullptr;
  O.Kind = RT ? classify(RT) : OpKind::Generic;
  if (O.Kind == OpKind::Generic) {
    ++K.Stats.NumGenericOps;
    return;
  }
  ++K.Stats.NumSpecializedOps;
  O.RuntimeIdx = int32_t(Group.front());
  O.Path = &RT->Node->Path;

  O.Prep = append(Sim.netIds(RT->OutputNets));
  switch (O.Kind) {
  case OpKind::Generic:
    break; // Returned above.
  case OpKind::ConstSource:
    O.ImmA = nodeParamInt(RT->Node, "value", 0);
    O.Out = appendConnected(RT, "out");
    break;
  case OpKind::CounterSource:
    O.ImmA = nodeParamInt(RT->Node, "start", 0);
    O.ImmB = nodeParamInt(RT->Node, "stride", 1);
    O.Out = appendConnected(RT, "out");
    break;
  case OpKind::Adder: {
    // Adder::evaluate reads in1[0] and in2[0] and writes out[0] only.
    const int OutNet = portNet0(RT, "out");
    const int Ins[] = {portNet0(RT, "in1"), portNet0(RT, "in2")};
    O.Out = append({&OutNet, OutNet >= 0 ? 1u : 0u});
    O.In = append(Ins);
    break;
  }
  case OpKind::Fanout: {
    const int In = portNet0(RT, "in");
    O.Out = appendConnected(RT, "out");
    O.In = append({&In, 1});
    break;
  }
  case OpKind::DelayEval:
    O.State = RT->StateVars.lookup("held");
    O.Out = appendConnected(RT, "out");
    break;
  case OpKind::Sink:
    O.State = RT->StateVars.lookup("received");
    O.In = appendConnected(RT, "in");
    break;
  }
  if (O.Kind == OpKind::Sink)
    O.EventName = &CompiledKernel::sinkEventName();
  else if (int Pid = RT->findPortId("out"); Pid >= 0)
    O.EventName = &RT->PortSlots[size_t(Pid)].EventName;
}

/// Sequential phase, in runtime index order (== runSequentialPhase).
void KernelBuilderImpl::lowerSeqOps() {
  for (size_t RTIdx = 0; RTIdx != Sim.Runtimes.size(); ++RTIdx) {
    Simulator::Runtime *RT = Sim.Runtimes[RTIdx];
    if (!RT->Behavior)
      continue;
    const std::string &Id = RT->Node->BehaviorId;
    if (isEotFree(Id)) {
      ++K.Stats.NumSeqElided;
      continue;
    }
    CompiledKernel::SeqOp &S = K.SeqOps.emplace_back();
    S.RuntimeIdx = int32_t(RTIdx);
    if (Id == "corelib/delay.tar") {
      if (interp::Value *Held = RT->StateVars.lookup("held")) {
        S.Kind = SeqKind::DelayLatch;
        S.InNet = portNet0(RT, "in");
        S.State = Held;
      }
    }
  }
}

} // namespace sim
} // namespace liberty

std::unique_ptr<CompiledKernel> KernelBuilder::build(Simulator &Sim) {
  auto K = std::make_unique<CompiledKernel>();
  const size_t NumGroups = Sim.Sched.numGroups();
  K->Ops.reserve(NumGroups);
  K->NetPool.reserve(Sim.NetIdPool.size());
  KernelBuilderImpl B(Sim, *K);
  for (size_t G = 0; G != NumGroups; ++G)
    B.lowerGroup(G);
  B.lowerSeqOps();
  K->Stats.NumOps = unsigned(K->Ops.size());
  K->Stats.NumSeqOps = unsigned(K->SeqOps.size());
  return K;
}

std::unique_ptr<CompiledKernel> KernelBuilder::load(Simulator &Sim,
                                                    const std::string &Artifact) {
  // The cached plan must be exactly what lowering this simulator produces
  // (same groups, kinds, dense ids, in canonical form). This rejects
  // artifacts from a different netlist/solution that happen to share the
  // cache key, and any mutated entry the envelope checksum missed.
  std::unique_ptr<CompiledKernel> K = build(Sim);
  if (K->serialize() != Artifact)
    return nullptr;
  K->Stats.FromCache = true;
  return K;
}
