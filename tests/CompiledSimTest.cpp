//===- CompiledSimTest.cpp - Compiled-kernel differential tests ---------------===//
///
/// The compiled cycle kernel's correctness contract, enforced three ways:
///
///  1. Cross-engine differential sweeps (EngineMatrix.h): every synthetic
///     family, every paper model, and a wide-lanes stress model must have
///     a bit-identical observable record on all four engines.
///  2. Golden coverage: the compiled engine must reproduce the digest
///     fixtures under tests/golden/ (written by the selective engine —
///     shared fixtures are the cross-binary contract), plus full-trace
///     fixtures for a uarch.lss-based model and the wide synthetic model,
///     so a regression fails with a readable trace diff rather than a
///     bare hash mismatch.
///  3. Lowering coverage: byte-identical traces, final nets and state
///     against the interpreter for each lowered stateful behavior (reg,
///     queue, source, bool_source), and per-model counts of the ops that
///     stay Generic.
///
/// Run the binary with --regen-golden to rewrite the full-trace fixtures
/// after an intentional trace change (digest fixtures are owned by
/// selective_sim_test --regen-golden).
///
//===----------------------------------------------------------------------===//

#include "EngineMatrix.h"

#include "sim/CompiledKernel.h"

#include <fstream>

using namespace liberty;
using namespace simtest;

namespace {

bool GRegenGolden = false;

sim::Simulator::Options compiledOptions() {
  sim::Simulator::Options O;
  O.Engine = sim::EngineKind::Compiled;
  return O;
}

//===----------------------------------------------------------------------===//
// Cross-engine differential matrix
//===----------------------------------------------------------------------===//

TEST(CompiledDifferential, SyntheticFamilies) {
  for (const SyntheticFamily &F : syntheticFamilies()) {
    SCOPED_TRACE(F.Name);
    expectAllEnginesMatch(std::string(F.Name) + ".lss", F.Text, F.Cycles);
  }
}

TEST(CompiledDifferential, AllPaperModels) {
  for (const std::string &Id : models::modelIds()) {
    SCOPED_TRACE("model " + Id);
    expectAllEnginesMatchModel(Id, 50);
  }
}

TEST(CompiledDifferential, WideLanes) {
  expectAllEnginesMatch("wide.lss", wideIndependentLanes(64), 30);
}

TEST(CompiledDifferential, SpecializesRecognizedBehaviors) {
  auto C = compileSim("wide.lss", wideIndependentLanes(16), compiledOptions());
  ASSERT_NE(C, nullptr);
  const sim::KernelStats *KS = C->getSimulator()->getKernelStats();
  ASSERT_NE(KS, nullptr);
  // 16 counter sources, 16 adders, one sink: all devirtualized, and every
  // one of them is endOfTimestep-free so the sequential phase is empty.
  EXPECT_EQ(KS->NumOps, KS->NumSpecializedOps);
  EXPECT_EQ(KS->NumGenericOps, 0u);
  EXPECT_EQ(KS->NumSeqOps, 0u);
  EXPECT_EQ(KS->NumSeqElided, 33u);
}

TEST(CompiledDifferential, OtherEnginesBuildNoKernel) {
  for (const EngineConfig &E : engineMatrix()) {
    if (E.Opts.Engine == sim::EngineKind::Compiled)
      continue;
    auto C = compileSim("chain.lss", delayChain(4), E.Opts);
    ASSERT_NE(C, nullptr) << E.Name;
    EXPECT_EQ(C->getSimulator()->getKernelStats(), nullptr) << E.Name;
  }
}

//===----------------------------------------------------------------------===//
// Engine resolution
//===----------------------------------------------------------------------===//

TEST(EngineResolution, AutoResolvesFromTheLegacyFlags) {
  using sim::EngineKind;
  sim::Simulator::Options O;
  EXPECT_EQ(sim::resolveEngine(O), EngineKind::Compiled);
  O.Selective = false;
  EXPECT_EQ(sim::resolveEngine(O), EngineKind::Interp);
  O.Selective = true;
  O.Jobs = 4;
  EXPECT_EQ(sim::resolveEngine(O), EngineKind::Wavefront);
  O.Selective = false;
  EXPECT_EQ(sim::resolveEngine(O), EngineKind::Wavefront);
  // An explicit kind wins over both flags.
  for (EngineKind K : {EngineKind::Interp, EngineKind::Selective,
                       EngineKind::Wavefront, EngineKind::Compiled}) {
    O.Engine = K;
    EXPECT_EQ(sim::resolveEngine(O), K) << sim::engineName(K);
  }
}

TEST(EngineResolution, DefaultOptionsBuildTheCompiledKernel) {
  auto C = compileSim("chain.lss", delayChain(4), sim::Simulator::Options{});
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->getSimulator()->getEngine(), sim::EngineKind::Compiled);
  EXPECT_NE(C->getSimulator()->getKernelStats(), nullptr);
}

//===----------------------------------------------------------------------===//
// Kernel activity counters and dirty-skip
//===----------------------------------------------------------------------===//

sim::Simulator::Options interpOptions() {
  sim::Simulator::Options O;
  O.Engine = sim::EngineKind::Interp;
  return O;
}

/// Runs \p C for \p Cycles with no collector attached (so the kernel may
/// skip) and returns its counters.
sim::ActivityStats runQuiet(driver::Compiler &C, uint64_t Cycles) {
  C.getSimulator()->step(Cycles);
  EXPECT_FALSE(C.getSimulator()->hadRuntimeErrors());
  return C.getSimulator()->getActivityStats();
}

void expectCountersEqual(const sim::ActivityStats &Interp,
                         const sim::ActivityStats &Kernel) {
  EXPECT_EQ(Kernel.GroupsSkipped, 0u);
  EXPECT_EQ(Kernel.Cycles, Interp.Cycles);
  EXPECT_EQ(Kernel.GroupsEvaluated, Interp.GroupsEvaluated);
  EXPECT_EQ(Kernel.LeafEvals, Interp.LeafEvals);
  EXPECT_EQ(Kernel.NetWrites, Interp.NetWrites);
  EXPECT_EQ(Kernel.NetChanges, Interp.NetChanges);
  EXPECT_EQ(Kernel.FixpointIters, Interp.FixpointIters);
  EXPECT_GT(Kernel.LeafEvals, 0u);
}

TEST(KernelCounters, MatchInterpOnAllActivePaperModel) {
  driver::Compiler I, K;
  ASSERT_TRUE(buildModelSim(I, "e", interpOptions())) << I.diagnosticsText();
  ASSERT_TRUE(buildModelSim(K, "e", compiledOptions()))
      << K.diagnosticsText();
  expectCountersEqual(runQuiet(I, 200), runQuiet(K, 200));
}

TEST(KernelCounters, MatchInterpOnDelayChain) {
  auto I = compileSim("chain.lss", delayChain(50), interpOptions());
  auto K = compileSim("chain.lss", delayChain(50), compiledOptions());
  ASSERT_NE(I, nullptr);
  ASSERT_NE(K, nullptr);
  expectCountersEqual(runQuiet(*I, 120), runQuiet(*K, 120));
}

TEST(KernelDirtySkip, SkipsQuiescentOpsWithInterpFinalNets) {
  const std::string Text = computingFarm(16);
  auto I = compileSim("farm.lss", Text, interpOptions());
  auto K = compileSim("farm.lss", Text, compiledOptions());
  ASSERT_NE(I, nullptr);
  ASSERT_NE(K, nullptr);
  sim::ActivityStats AI = runQuiet(*I, 40);
  sim::ActivityStats AK = runQuiet(*K, 40);
  // The constant-fed chain (source, fanout, 16 adders) settles after
  // cycle 0; its adders keep sending the sums they computed then.
  EXPECT_GE(AK.GroupsSkipped, 39u * 18u);
  EXPECT_EQ(AK.LeafEvalsSkipped, AK.GroupsSkipped);
  EXPECT_EQ(AK.GroupsEvaluated + AK.GroupsSkipped, AI.GroupsEvaluated);
  EXPECT_LT(AK.NetWrites, AI.NetWrites);
  EXPECT_EQ(AK.NetChanges, AI.NetChanges);
  EXPECT_EQ(collectFinalNets(*K), collectFinalNets(*I));
  const interp::Value *Sum = K->getSimulator()->peekPort("qchain.a[15]", "out", 0);
  ASSERT_NE(Sum, nullptr);
  EXPECT_EQ(Sum->str(), "51");
  EXPECT_EQ(K->getSimulator()->findState("qsink", "received")->str(),
            I->getSimulator()->findState("qsink", "received")->str());
  EXPECT_EQ(K->getSimulator()->findState("qsink", "received")->str(), "40");
}

TEST(KernelDirtySkip, CollectorDisablesSkipAndKeepsTheGoldenTrace) {
  // With a collector attached nothing is skipped, and the trace is the
  // golden one byte for byte.
  auto KT = compileSim("farm.lss", lowActivityFarm(16), compiledOptions());
  ASSERT_NE(KT, nullptr);
  std::string Golden = goldenLine(runRecorded(*KT, 40));
  EXPECT_EQ(KT->getSimulator()->getActivityStats().GroupsSkipped, 0u);
  std::ifstream In(std::string(LIBERTY_GOLDEN_DIR) + "/low_activity_farm.trace");
  ASSERT_TRUE(In.good());
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), Golden);
}

/// A send that ceases inside a chain of specialized ops: the mux output
/// goes absent once sel passes 1, so the fanout stops sending, and the
/// adder it feeds must see that as a change (the kernel's absence pass)
/// rather than skip and keep its stale sum.
const char *kAbsentThroughFanout = R"(
instance sel:counter_source;
instance i0:const_source;
i0.value = 10;
instance i1:const_source;
i1.value = 11;
instance m:mux;
instance f:fanout;
instance k:const_source;
k.value = 1;
instance a:adder;
instance s:sink;
sel.out -> m.sel;
i0.out -> m.in[0];
i1.out -> m.in[1];
m.out -> f.in;
f.out -> a.in1;
k.out -> a.in2;
a.out -> s.in;
)";

TEST(KernelDirtySkip, PresenceTransitionsUnderSkipMatchInterp) {
  // Every synthetic family, run without a collector: final nets and
  // runtime state must equal interp's whatever the kernel skipped.
  std::vector<SyntheticFamily> Families = syntheticFamilies();
  Families.push_back({"absent_through_fanout", kAbsentThroughFanout, 10});
  Families.push_back({"computing_farm", computingFarm(16), 40});
  for (const SyntheticFamily &F : Families) {
    SCOPED_TRACE(F.Name);
    auto I = compileSim(std::string(F.Name) + ".lss", F.Text, interpOptions());
    auto K =
        compileSim(std::string(F.Name) + ".lss", F.Text, compiledOptions());
    ASSERT_NE(I, nullptr);
    ASSERT_NE(K, nullptr);
    runQuiet(*I, F.Cycles);
    runQuiet(*K, F.Cycles);
    EXPECT_EQ(collectFinalNets(*K), collectFinalNets(*I));
  }
}

//===----------------------------------------------------------------------===//
// Golden coverage
//===----------------------------------------------------------------------===//

std::string goldenPath(const std::string &File) {
  return std::string(LIBERTY_GOLDEN_DIR) + "/" + File;
}

/// The compiled engine must reproduce the digest fixtures the selective
/// engine wrote: identical observable records imply identical digests.
/// Read-only by design — regenerating them is selective_sim_test's job.
TEST(CompiledGolden, DigestFixtures) {
  for (const SyntheticFamily &F : syntheticFamilies()) {
    SCOPED_TRACE(F.Name);
    auto C =
        compileSim(std::string(F.Name) + ".lss", F.Text, compiledOptions());
    ASSERT_NE(C, nullptr);
    std::ifstream In(goldenPath(std::string(F.Name) + ".trace"));
    ASSERT_TRUE(In.good()) << "missing golden fixture for " << F.Name;
    std::stringstream Buf;
    Buf << In.rdbuf();
    EXPECT_EQ(Buf.str(), goldenLine(runRecorded(*C, F.Cycles)))
        << "compiled trace digest diverges from the selective-engine "
           "fixture for "
        << F.Name;
  }
}

/// Full-trace fixture: every event line, a separator, then every final
/// net line. Failures report the first diverging line.
std::vector<std::string> fullTraceLines(const TraceRecord &R) {
  std::vector<std::string> Lines = R.Events;
  Lines.push_back("--- final nets ---");
  Lines.insert(Lines.end(), R.FinalNets.begin(), R.FinalNets.end());
  return Lines;
}

void checkFullTrace(const std::string &Name, const TraceRecord &R) {
  std::string Path = goldenPath(Name + ".fulltrace");
  std::vector<std::string> Got = fullTraceLines(R);
  if (GRegenGolden) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    for (const std::string &L : Got)
      Out << L << "\n";
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden fixture " << Path
                         << " (run with --regen-golden to create it)";
  std::vector<std::string> Want;
  for (std::string L; std::getline(In, L);)
    Want.push_back(L);
  if (Got == Want)
    return;
  size_t N = std::min(Got.size(), Want.size());
  size_t First = N;
  for (size_t I = 0; I != N; ++I)
    if (Got[I] != Want[I]) {
      First = I;
      break;
    }
  ADD_FAILURE() << Name << ": full trace diverges from " << Path << " ("
                << Want.size() << " golden lines, " << Got.size()
                << " actual); first difference at line " << First + 1
                << ":\n  golden: "
                << (First < Want.size() ? Want[First] : "<missing>")
                << "\n  actual: "
                << (First < Got.size() ? Got[First] : "<missing>")
                << "\nif the change is intentional, regenerate with "
                   "--regen-golden";
}

TEST(CompiledGolden, FullTraceUarchModel) {
  // Model A instantiates the uarch.lss component library, so this pins
  // the compiled engine's behavior on the paper's shared building blocks.
  driver::Compiler C;
  ASSERT_TRUE(buildModelSim(C, "a", compiledOptions()))
      << C.diagnosticsText();
  checkFullTrace("full_model_a", runRecorded(C, 50));
}

TEST(CompiledGolden, FullTraceWideLanes) {
  auto C = compileSim("wide.lss", wideIndependentLanes(64), compiledOptions());
  ASSERT_NE(C, nullptr);
  checkFullTrace("full_wide_lanes_64", runRecorded(*C, 30));
}

//===----------------------------------------------------------------------===//
// Lowered stateful behaviors: reg, queue, source, bool_source
//===----------------------------------------------------------------------===//

/// The kernel's op count of kind \p K.
unsigned opsOfKind(driver::Compiler &C, sim::KernelOpKind K) {
  const sim::KernelStats *KS = C.getSimulator()->getKernelStats();
  EXPECT_NE(KS, nullptr);
  return KS ? KS->OpsByKind[unsigned(K)] : 0;
}

/// Runs \p Text on the interpreter and the kernel, with a collector
/// attached, and requires byte-identical event streams, final nets and
/// the state slots \p States ((instance path, slot name) pairs); then runs
/// both again without a collector and requires equal activity counters,
/// final nets and state. Returns the collector-attached kernel compile
/// for kind checks.
std::unique_ptr<driver::Compiler>
expectKernelParity(const std::string &Name, const std::string &Text,
                   uint64_t Cycles,
                   const std::vector<std::pair<std::string, std::string>>
                       &States = {}) {
  auto stateOf = [&](driver::Compiler &C) {
    std::vector<std::string> Out;
    for (const auto &[Path, Slot] : States) {
      const interp::Value *V = C.getSimulator()->findState(Path, Slot);
      EXPECT_NE(V, nullptr) << Path << "." << Slot;
      Out.push_back(Path + "." + Slot + "=" + (V ? V->str() : "(none)"));
    }
    return Out;
  };
  auto I = compileSim(Name, Text, interpOptions());
  auto K = compileSim(Name, Text, compiledOptions());
  EXPECT_NE(I, nullptr);
  EXPECT_NE(K, nullptr);
  if (!I || !K)
    return nullptr;
  TraceRecord RI = runRecorded(*I, Cycles), RK = runRecorded(*K, Cycles);
  EXPECT_FALSE(RI.Events.empty());
  expectTraceEqual("kernel vs interp on " + Name, RI, RK);
  EXPECT_EQ(stateOf(*K), stateOf(*I));

  auto IQ = compileSim(Name, Text, interpOptions());
  auto KQ = compileSim(Name, Text, compiledOptions());
  EXPECT_NE(IQ, nullptr);
  EXPECT_NE(KQ, nullptr);
  if (IQ && KQ) {
    expectCountersEqual(runQuiet(*IQ, Cycles), runQuiet(*KQ, Cycles));
    EXPECT_EQ(collectFinalNets(*KQ), collectFinalNets(*IQ));
    EXPECT_EQ(stateOf(*KQ), stateOf(*IQ));
  }
  return K;
}

TEST(KernelLowering, RegChainCarryingStructs) {
  // fetch's instruction tokens are 6-field structs; the chain passes one
  // shared payload along, and each reg re-sends it every cycle.
  auto K = expectKernelParity("regchain.lss", R"(
instance f:fetch;
f.num_instrs = 40;
var rs:instance ref[];
rs = new instance[4](reg, "r");
f.instr -> rs[0].in;
var i:int;
for (i = 1; i < 4; i = i + 1) {
  rs[i-1].out -> rs[i].in;
}
instance s:sink;
rs[3].out -> s.in;
)",
                              60, {{"r[3]", "held"}, {"s", "received"}});
  ASSERT_NE(K, nullptr);
  EXPECT_EQ(opsOfKind(*K, sim::KernelOpKind::RegEval), 4u);
}

TEST(KernelLowering, RegEnableFromToggleAndUnconnectedEnable) {
  // r1 latches on odd cycles only (toggle drives en[0]); r2's en has width
  // 2 but only en[1] is connected, so en[0] never carries a value and r2
  // holds forever (it never sends).
  auto K = expectKernelParity("regen.lss", R"(
instance g:counter_source;
instance t:bool_source;
instance r1:reg;
instance r2:reg;
instance s1:sink;
instance s2:sink;
g.out -> r1.in;
t.out -> r1.en;
r1.out -> s1.in;
g.out -> r2.in;
t.out -> r2.en[1];
r2.out -> s2.in;
)",
                              20,
                              {{"r1", "held"}, {"r2", "held"}, {"s1", "received"},
                               {"s2", "received"}});
  ASSERT_NE(K, nullptr);
  EXPECT_EQ(opsOfKind(*K, sim::KernelOpKind::RegEval), 2u);
  EXPECT_EQ(opsOfKind(*K, sim::KernelOpKind::BoolSource), 1u);
  EXPECT_TRUE(K->getSimulator()->findState("r2", "held")->isUnset());
  EXPECT_TRUE(K->getSimulator()->findState("s2", "received")->isUnset());
}

TEST(KernelLowering, QueueWithTogglingStallHitsFull) {
  // Two enqueues per cycle into a depth-2 queue that dequeues every other
  // cycle: it fills, reports full, and drains through the adder.
  auto K = expectKernelParity("queuefull.lss", R"(
instance g1:counter_source;
instance g2:counter_source;
g2.start = 100;
instance q:queue;
q.depth = 2;
instance st:bool_source;
instance s:sink;
g1.out -> q.in;
g2.out -> q.in;
st.out -> q.stall;
q.out -> s.in;
)",
                              30, {{"q", "occupancy"}, {"s", "received"}});
  ASSERT_NE(K, nullptr);
  EXPECT_EQ(opsOfKind(*K, sim::KernelOpKind::QueueEval), 1u);
  bool SawFull = false;
  auto C = compileSim("queuefull2.lss", R"(
instance g1:counter_source;
instance g2:counter_source;
instance q:queue;
q.depth = 2;
instance st:bool_source;
instance s:sink;
g1.out -> q.in;
g2.out -> q.in;
st.out -> q.stall;
q.out -> s.in;
)",
                      compiledOptions());
  ASSERT_NE(C, nullptr);
  for (const std::string &E : runRecorded(*C, 10).Events)
    SawFull |= E.find("|q|full|") != std::string::npos;
  EXPECT_TRUE(SawFull);
  EXPECT_EQ(C->getSimulator()->findState("q", "occupancy")->str(), "2");
}

TEST(KernelLowering, EverySourcePattern) {
  auto K = expectKernelParity("sources.lss", R"(
instance c:source;
instance k:source;
k.pattern = "const";
k.value = -7;
instance r:source;
r.pattern = "random";
r.seed = 9;
r.range = 13;
instance m:source;
m.range = 4;
instance fl:source;
fl.pattern = "random";
fl.seed = 3;
instance bt:bool_source;
instance b1:bool_source;
b1.pattern = "const_true";
instance b0:bool_source;
b0.pattern = "const_false";
instance br:bool_source;
br.pattern = "random";
br.seed = 11;
var s:instance ref[];
s = new instance[9](sink, "s");
c.out -> s[0].in;
k.out -> s[1].in;
r.out -> s[2].in;
m.out -> s[3].in;
fl.out -> s[4].in : float;
bt.out -> s[5].in;
b1.out -> s[6].in;
b0.out -> s[7].in;
br.out -> s[8].in;
)",
                              25, {{"s[4]", "received"}, {"s[8]", "received"}});
  ASSERT_NE(K, nullptr);
  EXPECT_EQ(opsOfKind(*K, sim::KernelOpKind::SourceGen), 5u);
  EXPECT_EQ(opsOfKind(*K, sim::KernelOpKind::BoolSource), 4u);
  EXPECT_EQ(opsOfKind(*K, sim::KernelOpKind::Generic), 0u);
  const interp::Value *F = K->getSimulator()->peekPort("fl", "out", 0);
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(F->isFloat());
}

const char *kStatefulMix = R"(
instance g:source;
g.pattern = "random";
g.seed = 5;
g.range = 40;
instance q:queue;
q.depth = 3;
instance st:bool_source;
st.pattern = "random";
st.seed = 2;
instance r:reg;
instance en:bool_source;
instance s:sink;
g.out -> q.in;
st.out -> q.stall;
q.out -> r.in;
en.out -> r.en;
r.out -> s.in;
)";

TEST(KernelLowering, ResetMidRunReplaysIdentically) {
  // reset() re-runs every init(), which must restore the queue ring, the
  // RNGs and the held values the kernel reads in place.
  auto C = compileSim("mix.lss", kStatefulMix, compiledOptions());
  ASSERT_NE(C, nullptr);
  sim::Simulator *Sim = C->getSimulator();
  std::vector<std::string> Events;
  attachRecorder(*Sim, Events);
  Sim->reset();
  Sim->step(40);
  const std::vector<std::string> First = Events;
  const std::vector<std::string> FirstNets = collectFinalNets(*C);
  const std::string Occupancy = Sim->findState("q", "occupancy")->str();
  // Stop mid-run, reset, and run again from cycle 0.
  Sim->reset();
  Sim->step(17);
  Sim->reset();
  Events.clear();
  Sim->step(40);
  EXPECT_EQ(Events, First);
  EXPECT_EQ(collectFinalNets(*C), FirstNets);
  EXPECT_EQ(Sim->findState("q", "occupancy")->str(), Occupancy);
  expectKernelParity("mix.lss", kStatefulMix, 40,
                     {{"q", "occupancy"}, {"r", "held"}, {"s", "received"}});
}

TEST(KernelLowering, CustomGenerateSourceStaysGeneric) {
  const char *Text = R"(
instance g:source;
g.generate = "return cycle * cycle;";
instance s:sink;
g.out -> s.in : int;
)";
  auto K = expectKernelParity("gen.lss", Text, 8, {{"s", "received"}});
  ASSERT_NE(K, nullptr);
  EXPECT_EQ(opsOfKind(*K, sim::KernelOpKind::SourceGen), 0u);
  EXPECT_EQ(opsOfKind(*K, sim::KernelOpKind::Generic), 1u);
  auto C = compileSim("gen.lss", Text, compiledOptions());
  ASSERT_NE(C, nullptr);
  C->getSimulator()->step(5);
  const interp::Value *V = C->getSimulator()->peekPort("g", "out", 0);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->str(), "16");
}

TEST(KernelLowering, NaNResentOnANetIsAChangeEveryCycle) {
  // 1.0 % 0.0 is NaN, which equals nothing, itself included: every send
  // of it — the source's, the reg's re-send of its held NaN, the fanout's
  // copy — is a change, so the pure fanout is never skipped.
  const char *Text = R"(
instance g:source;
g.generate = "return 1.0 % 0.0;";
instance r:reg;
instance f:fanout;
instance s:sink;
g.out -> r.in : float;
r.out -> f.in;
f.out -> s.in;
)";
  for (bool Compiled : {false, true}) {
    SCOPED_TRACE(Compiled ? "compiled" : "interp");
    auto C = compileSim("nan.lss", Text,
                        Compiled ? compiledOptions() : interpOptions());
    ASSERT_NE(C, nullptr);
    sim::ActivityStats A = runQuiet(*C, 10);
    // g sends 10 times, r 9 (from cycle 1), f 9: every write changes.
    EXPECT_EQ(A.NetWrites, 28u);
    EXPECT_EQ(A.NetChanges, 28u);
    EXPECT_EQ(A.GroupsSkipped, 0u);
  }
  expectKernelParity("nan.lss", Text, 10, {{"r", "held"}});
}

TEST(KernelLowering, PaperModelsKeepOnlyCpuLeavesGeneric) {
  // Every reg, queue, source and bool_source is lowered; what stays
  // Generic is fu, cache and the CPU leaves, each a singleton group.
  static const char *const Generic[] = {
      "corelib/fu",    "corelib/cache",       "corelib/issue",
      "corelib/regfile", "corelib/fetch",     "corelib/branch_pred",
      "corelib/decode",  "corelib/rob"};
  for (const std::string &Id : models::modelIds()) {
    SCOPED_TRACE("model " + Id);
    driver::Compiler C;
    ASSERT_TRUE(buildModelSim(C, Id, compiledOptions()))
        << C.diagnosticsText();
    unsigned Expected = 0;
    for (const auto &Inst : C.getNetlist()->getInstances())
      if (Inst->isLeaf())
        for (const char *G : Generic)
          if (Inst->BehaviorId == G)
            ++Expected;
    const sim::KernelStats *KS = C.getSimulator()->getKernelStats();
    ASSERT_NE(KS, nullptr);
    EXPECT_EQ(KS->NumGenericOps, Expected);
    if (Id == "e") {
      EXPECT_EQ(KS->NumGenericOps, 47u);
    }
  }
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    if (std::string(argv[I]) == "--regen-golden") {
      GRegenGolden = true;
      for (int J = I; J + 1 < argc; ++J)
        argv[J] = argv[J + 1];
      --argc;
      --I;
    }
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
