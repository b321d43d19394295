//===- Simulator.cpp - Generated executable simulator ------------------------===//

#include "sim/Simulator.h"

#include "sim/CompiledKernel.h"
#include "sim/KernelBuilder.h"
#include "sim/SimRuntime.h"
#include "types/Type.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <map>

using namespace liberty;
using namespace liberty::sim;
using interp::Value;

//===----------------------------------------------------------------------===//
// Engine selection
//===----------------------------------------------------------------------===//

const char *liberty::sim::engineName(EngineKind K) {
  switch (K) {
  case EngineKind::Auto:
    return "auto";
  case EngineKind::Interp:
    return "interp";
  case EngineKind::Selective:
    return "selective";
  case EngineKind::Wavefront:
    return "wavefront";
  case EngineKind::Compiled:
    return "compiled";
  }
  return "auto";
}

bool liberty::sim::parseEngineName(const std::string &Name, EngineKind &Out) {
  for (EngineKind K : {EngineKind::Auto, EngineKind::Interp,
                       EngineKind::Selective, EngineKind::Wavefront,
                       EngineKind::Compiled})
    if (Name == engineName(K)) {
      Out = K;
      return true;
    }
  return false;
}

EngineKind liberty::sim::resolveEngine(const Simulator::Options &O) {
  if (O.Engine != EngineKind::Auto)
    return O.Engine;
  if (O.Jobs > 1)
    return EngineKind::Wavefront;
  return O.Selective ? EngineKind::Compiled : EngineKind::Interp;
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

Simulator::Simulator(netlist::Netlist &NL, SourceMgr &SM,
                     DiagnosticEngine &Diags, Options Opts)
    : NL(NL), SM(SM), Diags(Diags), Opts(Opts) {}

Simulator::~Simulator() = default;

std::unique_ptr<Simulator> Simulator::build(netlist::Netlist &NL,
                                            SourceMgr &SM,
                                            DiagnosticEngine &Diags) {
  return build(NL, SM, Diags, Options());
}

std::unique_ptr<Simulator> Simulator::build(netlist::Netlist &NL,
                                            SourceMgr &SM,
                                            DiagnosticEngine &Diags,
                                            Options Opts) {
  return build(NL, SM, Diags, Opts, nullptr);
}

std::unique_ptr<Simulator> Simulator::build(netlist::Netlist &NL,
                                            SourceMgr &SM,
                                            DiagnosticEngine &Diags,
                                            Options Opts,
                                            const std::string *KernelArtifact) {
  // Normalize the legacy flags to the resolved engine so the construct()
  // paths (wavefront resources, selective summaries) and reported options
  // agree with what actually runs.
  EngineKind E = resolveEngine(Opts);
  Opts.Engine = E;
  switch (E) {
  case EngineKind::Auto: // Unreachable: resolveEngine never returns Auto.
  case EngineKind::Interp:
    Opts.Selective = false;
    Opts.Jobs = 1;
    break;
  case EngineKind::Compiled: // The kernel always skips quiescent ops.
  case EngineKind::Selective:
    Opts.Selective = true;
    Opts.Jobs = 1;
    break;
  case EngineKind::Wavefront:
    Opts.Jobs = std::max(Opts.Jobs, 2u);
    break;
  }
  std::unique_ptr<Simulator> Sim(new Simulator(NL, SM, Diags, Opts));
  Sim->ResolvedEngine = E;
  if (!Sim->construct())
    return nullptr;
  Sim->reset();
  if (E == EngineKind::Compiled) {
    // Lower after reset(): behavior init() has bound the state slots the
    // kernel caches pointers to (slot identities survive later resets).
    auto T0 = std::chrono::steady_clock::now();
    if (KernelArtifact)
      Sim->Kernel = KernelBuilder::load(*Sim, *KernelArtifact);
    bool FromCache = Sim->Kernel != nullptr;
    if (!Sim->Kernel)
      Sim->Kernel = KernelBuilder::build(*Sim);
    Sim->Kernel->Stats.FromCache = FromCache;
    Sim->Kernel->Stats.BuildMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - T0)
            .count();
  }
  return Sim;
}

const KernelStats *Simulator::getKernelStats() const {
  return Kernel ? &Kernel->Stats : nullptr;
}

bool Simulator::serializeKernel(std::string &Out) const {
  if (!Kernel)
    return false;
  Out = Kernel->serialize();
  return true;
}

bool Simulator::construct() {
  unsigned ErrorsBefore = Diags.getNumErrors();

  // 1. Freeze the netlist's dense numbering: every port instance ("node")
  //    gets a design-wide id (NodeBase + NodeOffset + index), so the
  //    union-find runs over a flat array — no string keys, no hashing.
  const uint32_t NumNodes = NL.freezeIds();
  std::vector<int> Parent(NumNodes); // Union-find over dense node ids.
  for (uint32_t I = 0; I != NumNodes; ++I)
    Parent[I] = int(I);
  auto FindRoot = [&](int X) {
    while (Parent[X] != X)
      X = Parent[X] = Parent[Parent[X]];
    return X;
  };

  for (const auto &Conn : NL.getConnections()) {
    if (!Conn->isFullyResolved())
      continue;
    const netlist::PortRef &F = Conn->From, &T = Conn->To;
    // Endpoints whose port vanished or whose index exceeds the counted
    // width were already diagnosed by elaboration; they have no node.
    if (F.PortIdx < 0 || T.PortIdx < 0 ||
        F.Index >= F.Inst->Ports[size_t(F.PortIdx)].Width ||
        T.Index >= T.Inst->Ports[size_t(T.PortIdx)].Width)
      continue;
    int A = int(netlist::Netlist::nodeIdOf(F));
    int B = int(netlist::Netlist::nodeIdOf(T));
    Parent[FindRoot(A)] = FindRoot(B);
  }

  // 2. Compress to dense net ids, numbered by first appearance in node-id
  //    order (instance creation order, then port declaration order).
  NodeNet.assign(NumNodes, -1);
  std::vector<int> RootNet(NumNodes, -1);
  int NumNets = 0;
  for (uint32_t I = 0; I != NumNodes; ++I) {
    int &RN = RootNet[size_t(FindRoot(int(I)))];
    if (RN < 0)
      RN = NumNets++;
    NodeNet[I] = RN;
  }
  Nets.assign(size_t(NumNets), Net());
  Info.NumNets = Nets.size();

  // 3. Create runtimes: every leaf, plus any instance carrying userpoints
  //    or runtime variables (they participate in the userpoint phases).
  //    Runtimes and their port slots live in stores sized here and never
  //    resized, so pointers into them stay valid, and a leaf's port nets
  //    plus its input and output sets fit in twice the node count: a
  //    handful of allocations for the whole simulator, not several per
  //    instance.
  RuntimeOfInstance.assign(NL.getInstances().size(), nullptr);
  auto NeedsRuntime = [](const netlist::InstanceNode &Inst) {
    return Inst.isLeaf() || !Inst.Userpoints.empty() ||
           !Inst.RuntimeVars.empty();
  };
  size_t NumRuntimes = 0, NumLeafPorts = 0;
  for (const auto &Inst : NL.getInstances())
    if (NeedsRuntime(*Inst)) {
      ++NumRuntimes;
      if (Inst->isLeaf())
        NumLeafPorts += Inst->Ports.size();
    }
  RuntimeStore = std::vector<std::optional<Runtime>>(NumRuntimes);
  Runtimes.reserve(NumRuntimes);
  PortSlotPool.reserve(NumLeafPorts);
  NetIdPool.reserve(size_t(NumNodes) * 2);
  std::vector<int> LeafRuntimes;
  for (const auto &Inst : NL.getInstances()) {
    if (!NeedsRuntime(*Inst))
      continue;
    // A runtime whose behavior is missing is dropped, so its store slot
    // is reused by the next one.
    Runtime *RT = &RuntimeStore[Runtimes.size()].emplace(*this, Inst.get());
    if (Inst->isLeaf()) {
      RT->Behavior = bsl::BehaviorRegistry::global().create(Inst->BehaviorId);
      if (!RT->Behavior) {
        Diags.error(Inst->Loc, "no behavior registered for tar_file '" +
                                   Inst->BehaviorId + "' (instance '" +
                                   Inst->Path + "')");
        continue;
      }
      PortSlot *FirstSlot = PortSlotPool.data() + PortSlotPool.size();
      for (const netlist::Port &P : Inst->Ports) {
        PortSlot &PS = PortSlotPool.emplace_back();
        PS.Name = P.Name;
        PS.Nets = {int32_t(NetIdPool.size()), int32_t(P.Width)};
        for (int I = 0; I != P.Width; ++I)
          NetIdPool.push_back(
              NodeNet[Inst->NodeBase + P.NodeOffset + uint32_t(I)]);
        if (!P.isInput()) {
          PS.IsOutput = true;
          PS.EventName = "port:" + P.Name;
        }
      }
      RT->PortSlots = {FirstSlot, Inst->Ports.size()};
      LeafRuntimes.push_back(Runtimes.size());
    }
    // Compile userpoints.
    for (const auto &[Name, UV] : Inst->Userpoints) {
      Runtime::CompiledUserpoint CU;
      CU.Sig = UV.Sig;
      CU.Prog = bsl::BslProgram::compile(
          UV.Code, "userpoint:" + Inst->Path + "." + Name, SM, Diags);
      if (!CU.Prog)
        Diags.note(UV.Loc, "while compiling userpoint '" + Name +
                               "' of instance '" + Inst->Path + "'");
      ++Info.NumUserpoints;
      RT->Userpoints.emplace(Name, std::move(CU));
    }
    RuntimeOfInstance[Inst->Id] = RT;
    Runtimes.push_back(RT);
  }
  Info.NumLeaves = LeafRuntimes.size();

  // 4. Determine net drivers (the unique leaf outport on each net) and
  //    collect combinational readers.
  struct Reader {
    int ScheduleNode;
    const std::string *Port;
  };
  std::vector<std::vector<Reader>> NetReaders(Nets.size());
  // Appends the connected nets of \p RT's input (or output) ports to the
  // pool, calling \p Visit on each, and returns the sorted, deduplicated
  // tail as a range. Indexes the pool (never a span into it) while
  // appending.
  auto CollectNets = [this](Runtime *RT, bool Inputs, auto Visit) {
    const int32_t Begin = int32_t(NetIdPool.size());
    for (const netlist::Port &P : RT->Node->Ports) {
      int PortId = RT->findPortId(P.Name);
      if (PortId < 0 || P.isInput() != Inputs)
        continue;
      const NetRange PN = RT->PortSlots[size_t(PortId)].Nets;
      for (int32_t K = 0; K != PN.Count; ++K) {
        int NetId = NetIdPool[size_t(PN.Begin + K)];
        if (NetId < 0)
          continue;
        NetIdPool.push_back(NetId);
        Visit(P, NetId);
      }
    }
    auto First = NetIdPool.begin() + Begin;
    std::sort(First, NetIdPool.end());
    NetIdPool.erase(std::unique(First, NetIdPool.end()), NetIdPool.end());
    return NetRange{Begin, int32_t(NetIdPool.size()) - Begin};
  };
  for (unsigned SN = 0; SN != LeafRuntimes.size(); ++SN) {
    Runtime *RT = Runtimes[LeafRuntimes[SN]];
    RT->ScheduleNode = SN;
    RT->InputNets =
        CollectNets(RT, true, [&](const netlist::Port &P, int NetId) {
          NetReaders[NetId].push_back(Reader{(int)SN, &P.Name});
        });
    RT->OutputNets =
        CollectNets(RT, false, [&](const netlist::Port &P, int NetId) {
          Net &N = Nets[NetId];
          if (N.DriverRuntime >= 0 &&
              N.DriverRuntime != (int)LeafRuntimes[SN]) {
            Diags.error(P.Loc, "net has multiple drivers: port '" + P.Name +
                                   "' of instance '" + RT->Node->Path + "'");
            return;
          }
          N.DriverRuntime = LeafRuntimes[SN];
        });
    RT->Pure = RT->Behavior && RT->Behavior->hasPureEvaluate();
  }

  // 5. Build the combinational dependency graph and the static schedule.
  std::vector<std::vector<int>> Successors(LeafRuntimes.size());
  for (unsigned NetId = 0; NetId != Nets.size(); ++NetId) {
    int Driver = Nets[NetId].DriverRuntime;
    if (Driver < 0)
      continue;
    int DriverSN = Runtimes[Driver]->ScheduleNode;
    for (const Reader &R : NetReaders[NetId]) {
      Runtime *RT = Runtimes[LeafRuntimes[R.ScheduleNode]];
      if (RT->Behavior && RT->Behavior->readsCombinationally(*R.Port))
        Successors[DriverSN].push_back(R.ScheduleNode);
    }
  }
  Sched = computeSchedule(LeafRuntimes.size(), Successors);
  // Re-express schedule nodes as runtime indices.
  for (int &N : Sched.GroupNodes)
    N = LeafRuntimes[N];

  // 6. Selective-trace summaries: per-group input-net unions and
  //    skippability, precomputed once so the per-cycle loop only scans a
  //    short sorted list per skippable group.
  std::vector<std::span<const int>> NodeInputNets(Runtimes.size());
  std::vector<bool> NodePure(Runtimes.size(), false);
  for (size_t RTIdx = 0; RTIdx != Runtimes.size(); ++RTIdx) {
    NodeInputNets[RTIdx] = netIds(Runtimes[RTIdx]->InputNets);
    NodePure[RTIdx] = Runtimes[RTIdx]->Pure;
  }
  computeGroupSummaries(Sched, NodeInputNets, NodePure);
  GroupEvaluated.assign(Sched.numGroups(), 0);
  GroupDirty.assign(Sched.numGroups(), 0);
  GroupOscillating.assign(Sched.numGroups(), {});

  // 7. Wavefront engine resources. Sized before the pointer wiring below
  //    so &GroupDirty[G] / &GroupEventBufs[G] stay valid (neither vector
  //    is ever resized afterwards).
  if (Opts.Jobs > 1) {
    GroupEventBufs.assign(Sched.numGroups(), {});
    FixpointFailed.assign(Sched.numGroups(), 0);
    StatShards.assign(Opts.Jobs, ActivityStats());
    Pool = std::make_unique<ThreadPool>(Opts.Jobs);
  }
  for (size_t G = 0; G != Sched.numGroups(); ++G)
    for (int RTIdx : Sched.group(G)) {
      Runtimes[RTIdx]->FixpointDirty = &GroupDirty[G];
      if (Opts.Jobs > 1)
        Runtimes[RTIdx]->Buf = &GroupEventBufs[G];
    }

  Info.NumGroups = Sched.numGroups();
  Info.NumCyclicGroups = Sched.numCyclicGroups();
  Info.MaxGroupSize = Sched.maxGroupSize();
  Info.NumSkippableGroups = Sched.numSkippableGroups();
  Info.NumLevels = Sched.numLevels();
  Info.MaxLevelWidth = Sched.maxLevelWidth();

  return Diags.getNumErrors() == ErrorsBefore;
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

void Simulator::reset() {
  Cycle = 0;
  RuntimeErrors.store(false, std::memory_order_relaxed);
  for (Net &N : Nets) {
    N.Has = false;
    N.PrevHas = false;
    N.DirtyCycle = NeverDirty;
  }
  Activity = ActivityStats();
  Activity.Selective = Opts.Selective;
  GroupEvaluated.assign(Sched.numGroups(), 0);
  std::fill(GroupDirty.begin(), GroupDirty.end(), 0);
  std::fill(FixpointFailed.begin(), FixpointFailed.end(), 0);
  for (auto &O : GroupOscillating)
    O.clear();
  for (auto &B : GroupEventBufs)
    B.clear();
  for (ActivityStats &S : StatShards)
    S = ActivityStats();
  BufferEvents = false;
  BypassCountdown = 0;
  LastInstrVersion = Instr.getVersion();
  for (Runtime *RT : Runtimes) {
    RT->resetState();
    RT->LastSends.clear();
  }
  for (Runtime *RT : Runtimes)
    if (RT->Behavior)
      RT->Behavior->init(*RT);
  runUserpointPhase("init");
}

void Simulator::runUserpointPhase(const std::string &Name) {
  for (Runtime *RT : Runtimes)
    if (RT->hasUserpoint(Name))
      RT->callUserpoint(Name, {});
}

void Simulator::runEndOfTimestepUserpoints() {
  // Hot path: the per-cycle phase touches only runtimes that carry the
  // userpoint (precomputed at first use).
  if (!EotRuntimesValid) {
    EotRuntimes.clear();
    for (Runtime *RT : Runtimes)
      if (RT->hasUserpoint("end_of_timestep"))
        EotRuntimes.push_back(RT);
    EotRuntimesValid = true;
  }
  for (Runtime *RT : EotRuntimes)
    RT->callUserpoint("end_of_timestep", {});
}

void Simulator::evaluateGroup(size_t GroupIdx, ActivityStats &A) {
  std::span<const int> Group = Sched.group(GroupIdx);
  // Prepare the group's output nets: snapshot last cycle's presence, then
  // clear it so this evaluation starts from a blank slate. (Replaces the
  // old global per-cycle Has sweep — skipped groups keep their nets as-is,
  // carrying the previous sends forward.)
  for (int RTIdx : Group)
    for (int NetId : netIds(Runtimes[RTIdx]->OutputNets)) {
      Net &N = Nets[NetId];
      N.PrevHas = N.Has;
      N.Has = false;
    }

  if (Group.size() == 1) {
    Runtime *RT = Runtimes[Group.front()];
    if (RT->Behavior) {
      RT->Stats = &A;
      RT->LastSends.clear();
      RT->Behavior->evaluate(*RT);
      ++A.LeafEvals;
    }
  } else {
    // Combinational cycle: iterate to a fixpoint, using the group's own
    // dirty flag as the convergence test. Per-group flags (instead of a
    // simulator-global one) keep iteration counts identical when several
    // cyclic groups of the same level run on different threads.
    char &Dirty = GroupDirty[GroupIdx];
    for (int RTIdx : Group)
      Runtimes[RTIdx]->Stats = &A;
    bool Converged = false;
    // Watchdog snapshot of the group's output nets, taken before the final
    // allowed iteration: nets that still differ afterwards are the ones
    // oscillating, and the failure report names them with their values.
    std::vector<std::pair<int, interp::Value>> Watch;
    std::vector<char> WatchHas;
    for (unsigned Iter = 0; Iter != Opts.MaxFixpointIters; ++Iter) {
      Dirty = 0;
      ++A.FixpointIters;
      if (Iter + 1 == Opts.MaxFixpointIters) {
        for (int RTIdx : Group)
          for (int NetId : netIds(Runtimes[RTIdx]->OutputNets)) {
            Watch.emplace_back(NetId, Nets[NetId].V);
            WatchHas.push_back(Nets[NetId].Has);
          }
      }
      for (int RTIdx : Group) {
        Runtime *RT = Runtimes[RTIdx];
        if (RT->Behavior) {
          RT->LastSends.clear();
          RT->Behavior->evaluate(*RT);
          ++A.LeafEvals;
        }
      }
      if (!Dirty) {
        Converged = true;
        break;
      }
    }
    if (!Converged) {
      std::vector<int> &Osc = GroupOscillating[GroupIdx];
      Osc.clear();
      for (size_t W = 0; W != Watch.size() && Osc.size() < 8; ++W) {
        const Net &N = Nets[Watch[W].first];
        if (char(N.Has) != WatchHas[W] || !N.V.equals(Watch[W].second))
          Osc.push_back(Watch[W].first);
      }
      if (Pool) {
        // Parallel phase: defer the diagnostic to the main thread, which
        // reports failures in ascending group order after the level.
        FixpointFailed[GroupIdx] = 1;
      } else if (!RuntimeErrors.load(std::memory_order_relaxed)) {
        reportFixpointFailure(GroupIdx);
        RuntimeErrors.store(true, std::memory_order_relaxed);
      }
    }
  }

  // Absence pass: a net that was driven last cycle but not this one is an
  // observable change for downstream readers.
  for (int RTIdx : Group)
    for (int NetId : netIds(Runtimes[RTIdx]->OutputNets)) {
      Net &N = Nets[NetId];
      if (N.PrevHas && !N.Has)
        N.DirtyCycle = Cycle;
    }

  GroupEvaluated[GroupIdx] = 1;
  ++A.GroupsEvaluated;
}

void Simulator::reportFixpointFailure(size_t GroupIdx) {
  std::span<const int> Group = Sched.group(GroupIdx);
  std::string Members;
  unsigned Listed = 0;
  for (int RTIdx : Group) {
    if (Listed == 8) {
      Members += ", ...";
      break;
    }
    if (Listed++)
      Members += ", ";
    Members += "'" + Runtimes[RTIdx]->Node->Path + "'";
  }
  Diags.error(SourceLoc(),
              "combinational cycle did not converge within " +
                  std::to_string(Opts.MaxFixpointIters) +
                  " iterations; group members: " + Members);
  // Name the nets the watchdog saw still changing in the final iteration,
  // with the values they oscillated to — the concrete evidence for
  // debugging the cycle. Each net is named after its first port instance
  // in creation order ("path.port[index]"); cold path, so the full scan
  // over the netlist is fine.
  const std::vector<int> &Osc = GroupOscillating[GroupIdx];
  if (Osc.empty())
    return;
  std::map<int, std::string> NetName;
  for (const auto &Inst : NL.getInstances())
    for (const netlist::Port &P : Inst->Ports)
      for (int I = 0; I != P.Width; ++I) {
        int NetId = NodeNet[Inst->NodeBase + P.NodeOffset + uint32_t(I)];
        if (std::find(Osc.begin(), Osc.end(), NetId) == Osc.end() ||
            NetName.count(NetId))
          continue;
        NetName[NetId] =
            Inst->Path + "." + P.Name + "[" + std::to_string(I) + "]";
      }
  for (int NetId : Osc) {
    const Net &N = Nets[NetId];
    auto It = NetName.find(NetId);
    std::string Name = It != NetName.end() ? It->second
                                           : "net #" + std::to_string(NetId);
    Diags.note(SourceLoc(), "net '" + Name + "' was still changing; last "
                            "value: " +
                                (N.Has ? N.V.str() : "<absent>"));
  }
}

void Simulator::skipGroup(size_t GroupIdx) {
  ++Activity.GroupsSkipped;
  ++Activity.LeafEvalsSkipped; // Skippable groups are singletons.
  if (Instr.empty())
    return;
  // Replay the automatic port events the skipped evaluate() would have
  // emitted, in recorded order, with the carried-forward net values.
  Runtime *RT = Runtimes[Sched.group(GroupIdx).front()];
  for (const auto &[EvName, NetId] : RT->LastSends) {
    if (BufferEvents) {
      BufferedEvent BE;
      BE.InstancePath = &RT->Node->Path;
      BE.Name = EvName;
      BE.Cycle = Cycle;
      BE.Payload = Nets[NetId].V;
      GroupEventBufs[GroupIdx].push_back(std::move(BE));
    } else {
      Event E;
      E.InstancePath = &RT->Node->Path;
      E.Name = EvName;
      E.Cycle = Cycle;
      E.Payload = &Nets[NetId].V;
      Instr.emit(E);
    }
    ++Activity.EventsReplayed;
  }
}

void Simulator::flushCycleEvents() {
  // Ascending group index — exactly the serial engine's emission order.
  // Levels are not contiguous in group index (ASAP packing), so the flush
  // happens once per cycle over every group rather than per level.
  for (size_t G = 0; G != GroupEventBufs.size(); ++G) {
    std::vector<BufferedEvent> &Buf = GroupEventBufs[G];
    if (Buf.empty())
      continue;
    for (BufferedEvent &BE : Buf) {
      Event E;
      E.InstancePath = BE.InstancePath;
      E.Name = BE.Name ? BE.Name : &BE.NameStore;
      E.Cycle = BE.Cycle;
      E.Payload = &BE.Payload;
      Instr.emit(E);
    }
    Buf.clear();
  }
}

void Simulator::runSequentialPhase() {
  for (Runtime *RT : Runtimes)
    if (RT->Behavior)
      RT->Behavior->endOfTimestep(*RT);
  runEndOfTimestepUserpoints();
}

void Simulator::step(uint64_t N) {
  if (Kernel)
    Kernel->run(*this, N);
  else if (Pool)
    stepWavefront(N);
  else
    stepSerial(N);
}

void Simulator::stepSerial(uint64_t N) {
  for (uint64_t I = 0; I != N; ++I) {
    // A collector attached since the last cycle invalidates the replay
    // records (they only hold events recorded while instrumentation was
    // live), so force one exhaustive cycle to rebuild them.
    bool ForceFull = false;
    if (Instr.getVersion() != LastInstrVersion) {
      LastInstrVersion = Instr.getVersion();
      ForceFull = true;
    }
    // All-dirty bypass: while armed, suppress the quiescence scan and
    // evaluate everything — exactly the exhaustive engine's cycle, so
    // traces are unchanged and on all-active models the selective
    // engine's bookkeeping decays to one probe scan per window.
    bool Bypass = false;
    if (Opts.Selective && !ForceFull && BypassCountdown) {
      --BypassCountdown;
      Bypass = true;
      ++Activity.BypassCycles;
    }
    uint64_t Eligible = 0, Skipped = 0;
    for (size_t G = 0; G != Sched.numGroups(); ++G) {
      if (Opts.Selective && !ForceFull && !Bypass && Sched.GroupSkippable[G] &&
          GroupEvaluated[G]) {
        ++Eligible;
        bool Quiescent = true;
        for (int NetId : Sched.groupInputNets(G))
          if (Nets[NetId].DirtyCycle == Cycle) {
            Quiescent = false;
            break;
          }
        if (Quiescent) {
          ++Skipped;
          skipGroup(G);
          continue;
        }
      }
      evaluateGroup(G, Activity);
    }
    maybeArmBypass(Eligible, Skipped);
    runSequentialPhase();
    ++Cycle;
    ++Activity.Cycles;
  }
}

static void mergeActivity(ActivityStats &To, ActivityStats &From) {
  To.GroupsEvaluated += From.GroupsEvaluated;
  To.GroupsSkipped += From.GroupsSkipped;
  To.LeafEvals += From.LeafEvals;
  To.LeafEvalsSkipped += From.LeafEvalsSkipped;
  To.FixpointIters += From.FixpointIters;
  To.NetWrites += From.NetWrites;
  To.NetChanges += From.NetChanges;
  To.EventsReplayed += From.EventsReplayed;
  To.BypassCycles += From.BypassCycles;
  From = ActivityStats();
}

void Simulator::stepWavefront(uint64_t N) {
  for (uint64_t I = 0; I != N; ++I) {
    bool ForceFull = false;
    if (Instr.getVersion() != LastInstrVersion) {
      LastInstrVersion = Instr.getVersion();
      ForceFull = true;
    }
    const bool DoInstr = !Instr.empty();
    // All-dirty bypass, identical to stepSerial's: decided on the main
    // thread before dispatch, so stats and traces match the serial engine
    // bit for bit at any thread count.
    bool Bypass = false;
    if (Opts.Selective && !ForceFull && BypassCountdown) {
      --BypassCountdown;
      Bypass = true;
      ++Activity.BypassCycles;
    }
    uint64_t Eligible = 0, Skipped = 0;
    // Route events into per-group buffers for the whole combinational
    // phase (including main-thread skips, so replays interleave with live
    // events exactly as in the serial engine).
    BufferEvents = DoInstr;
    for (const std::vector<int> &L : Sched.Levels) {
      // Skip decisions run on the main thread before dispatch: they read
      // DirtyCycle stamps written only by strictly earlier levels (a
      // skippable group's inputs are all read combinationally, so each
      // driver has a scheduling edge and therefore a smaller level).
      LevelPending.clear();
      for (int G : L) {
        if (Opts.Selective && !ForceFull && !Bypass &&
            Sched.GroupSkippable[G] && GroupEvaluated[G]) {
          ++Eligible;
          bool Quiescent = true;
          for (int NetId : Sched.groupInputNets(size_t(G)))
            if (Nets[NetId].DirtyCycle == Cycle) {
              Quiescent = false;
              break;
            }
          if (Quiescent) {
            ++Skipped;
            skipGroup(size_t(G));
            continue;
          }
        }
        LevelPending.push_back(G);
      }
      if (LevelPending.size() == 1) {
        // Nothing to overlap: evaluate inline, counters into the global
        // stats directly.
        evaluateGroup(size_t(LevelPending.front()), Activity);
      } else if (!LevelPending.empty()) {
        // One task per worker-sized chunk, not per group: group
        // evaluations are often sub-microsecond, so per-group enqueueing
        // would drown the level in pool overhead. LevelPending stays
        // untouched until the barrier, so tasks index it directly.
        size_t NumChunks =
            std::min<size_t>(Pool->getThreadCount(), LevelPending.size());
        for (size_t Ck = 0; Ck != NumChunks; ++Ck) {
          size_t Begin = Ck * LevelPending.size() / NumChunks;
          size_t End = (Ck + 1) * LevelPending.size() / NumChunks;
          Pool->async([this, Begin, End] {
            int W = ThreadPool::currentWorkerIndex();
            assert(W >= 0 && "group task running off-pool");
            ActivityStats &A = StatShards[size_t(W)];
            for (size_t I = Begin; I != End; ++I)
              evaluateGroup(size_t(LevelPending[I]), A);
          });
        }
        Pool->wait(); // Level barrier.
      }
    }
    maybeArmBypass(Eligible, Skipped);
    if (DoInstr)
      flushCycleEvents();
    // Deferred fixpoint diagnostics, in ascending group order (the serial
    // engine's reporting order), on the main thread.
    for (size_t G = 0; G != FixpointFailed.size(); ++G)
      if (FixpointFailed[G]) {
        FixpointFailed[G] = 0;
        if (!RuntimeErrors.load(std::memory_order_relaxed)) {
          reportFixpointFailure(G);
          RuntimeErrors.store(true, std::memory_order_relaxed);
        }
      }
    BufferEvents = false;
    // Shard merge: sums are commutative, so totals are identical for any
    // thread count and any work-stealing order. Re-point every runtime's
    // stats at the merged totals first, so anything the sequential phase
    // counts lands there directly (a shard write after the merge would
    // slip to the next cycle — or be lost on the last one).
    for (Runtime *RT : Runtimes)
      RT->Stats = &Activity;
    for (ActivityStats &S : StatShards)
      mergeActivity(Activity, S);
    runSequentialPhase();
    ++Cycle;
    ++Activity.Cycles;
  }
}

//===----------------------------------------------------------------------===//
// Probing
//===----------------------------------------------------------------------===//

int Simulator::resolvePortNet(const std::string &InstPath,
                              const std::string &Port, int Index) const {
  const netlist::InstanceNode *Inst = NL.findByPath(InstPath);
  if (!Inst)
    return -1;
  int PI = Inst->findPortIdx(Port);
  if (PI < 0)
    return -1;
  const netlist::Port &P = Inst->Ports[size_t(PI)];
  if (Index < 0 || Index >= P.Width)
    return -1;
  return NodeNet[Inst->NodeBase + P.NodeOffset + uint32_t(Index)];
}

const Value *Simulator::peekPort(int NetId) const {
  if (NetId < 0 || NetId >= int(Nets.size()))
    return nullptr;
  const Net &N = Nets[size_t(NetId)];
  return N.Has ? &N.V : nullptr;
}

const Value *Simulator::peekPort(const std::string &InstPath,
                                 const std::string &Port, int Index) const {
  return peekPort(resolvePortNet(InstPath, Port, Index));
}

interp::Value *Simulator::findState(const std::string &InstPath,
                                    const std::string &Name) {
  const netlist::InstanceNode *Inst = NL.findByPath(InstPath);
  if (!Inst || Inst->Id >= RuntimeOfInstance.size())
    return nullptr;
  Runtime *RT = RuntimeOfInstance[Inst->Id];
  return RT ? RT->StateVars.lookup(Name) : nullptr;
}
