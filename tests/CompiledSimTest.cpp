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
///  3. Kernel artifact (LSSKRN) round-trips: serialization is
///     deterministic and fixpoint-stable, a reloaded kernel drives an
///     identical simulation, a corrupted artifact falls back to a fresh
///     lowering, and the CompileService adopts cached kernels on warm
///     compiles.
///
/// Run the binary with --regen-golden to rewrite the full-trace fixtures
/// after an intentional trace change (digest fixtures are owned by
/// selective_sim_test --regen-golden).
///
//===----------------------------------------------------------------------===//

#include "EngineMatrix.h"

#include "driver/CompileService.h"
#include "sim/CompiledKernel.h"

#include <filesystem>
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
  EXPECT_FALSE(KS->FromCache);
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
    std::string Bytes;
    EXPECT_FALSE(C->getSimulator()->serializeKernel(Bytes)) << E.Name;
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
// LSSKRN artifact round-trips
//===----------------------------------------------------------------------===//

TEST(KernelArtifact, SerializationIsDeterministic) {
  std::string A, B;
  {
    auto C = compileSim("q.lss", queueWithStall(), compiledOptions());
    ASSERT_NE(C, nullptr);
    ASSERT_TRUE(C->getSimulator()->serializeKernel(A));
  }
  {
    auto C = compileSim("q.lss", queueWithStall(), compiledOptions());
    ASSERT_NE(C, nullptr);
    ASSERT_TRUE(C->getSimulator()->serializeKernel(B));
  }
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.compare(0, 9, "LSSKRN 1\n"), 0);
}

TEST(KernelArtifact, ReloadedKernelRunsIdentically) {
  std::string Bytes;
  TraceRecord Fresh;
  {
    auto C = compileSim("farm.lss", lowActivityFarm(8), compiledOptions());
    ASSERT_NE(C, nullptr);
    ASSERT_TRUE(C->getSimulator()->serializeKernel(Bytes));
    Fresh = runRecorded(*C, 40);
  }
  driver::Compiler C;
  driver::CompilerInvocation Inv =
      invocationFor("farm.lss", lowActivityFarm(8), compiledOptions());
  ASSERT_TRUE(C.addSources(Inv) && C.elaborate(Inv) && C.inferTypes(Inv));
  ASSERT_NE(C.buildSimulator(Inv, &Bytes), nullptr);
  const sim::KernelStats *KS = C.getSimulator()->getKernelStats();
  ASSERT_NE(KS, nullptr);
  EXPECT_TRUE(KS->FromCache) << "valid artifact was rejected";
  TraceRecord Reloaded = runRecorded(C, 40);
  expectTraceEqual("reloaded kernel vs fresh build", Fresh, Reloaded);

  // Fixpoint: re-serializing the adopted kernel reproduces the artifact.
  std::string Again;
  ASSERT_TRUE(C.getSimulator()->serializeKernel(Again));
  EXPECT_EQ(Bytes, Again);
}

TEST(KernelArtifact, CorruptArtifactFallsBackToFreshLowering) {
  std::string Bytes;
  {
    auto C = compileSim("tree.lss", adderTree(), compiledOptions());
    ASSERT_NE(C, nullptr);
    ASSERT_TRUE(C->getSimulator()->serializeKernel(Bytes));
  }
  // Flip one byte somewhere in the middle, truncate, and garble the
  // header: all must be rejected, and the build must still succeed with
  // a fresh (FromCache=false) lowering producing the reference trace.
  std::vector<std::string> Mutants;
  std::string Flip = Bytes;
  Flip[Flip.size() / 2] ^= 0x20;
  Mutants.push_back(Flip);
  Mutants.push_back(Bytes.substr(0, Bytes.size() / 2));
  Mutants.push_back("LSSKRN 9\n" + Bytes.substr(9));
  Mutants.push_back("");

  driver::Compiler Ref;
  driver::CompilerInvocation RefInv =
      invocationFor("tree.lss", adderTree(), compiledOptions());
  ASSERT_TRUE(Ref.addSources(RefInv) && Ref.elaborate(RefInv) &&
              Ref.inferTypes(RefInv) && Ref.buildSimulator(RefInv));
  TraceRecord Want = runRecorded(Ref, 40);

  for (size_t I = 0; I != Mutants.size(); ++I) {
    SCOPED_TRACE("mutant " + std::to_string(I));
    driver::Compiler C;
    driver::CompilerInvocation Inv =
        invocationFor("tree.lss", adderTree(), compiledOptions());
    ASSERT_TRUE(C.addSources(Inv) && C.elaborate(Inv) && C.inferTypes(Inv));
    ASSERT_NE(C.buildSimulator(Inv, &Mutants[I]), nullptr);
    const sim::KernelStats *KS = C.getSimulator()->getKernelStats();
    ASSERT_NE(KS, nullptr);
    // A mutant that still parses AND matches the fresh plan is fine to
    // adopt (it is the same plan); anything else must rebuild.
    TraceRecord Got = runRecorded(C, 40);
    expectTraceEqual("mutant artifact build", Want, Got);
  }
}

TEST(KernelArtifact, ServiceCachesKernelAcrossCompiles) {
  // TempDir() persists across test-binary runs; start from an empty cache
  // so the first compile is genuinely cold.
  std::string Dir = testing::TempDir() + "/lsskrn_cache";
  std::filesystem::remove_all(Dir);
  driver::CompileService::Options SO;
  SO.Cache.DiskDir = Dir;

  driver::CompilerInvocation Inv =
      invocationFor("farm.lss", lowActivityFarm(8), compiledOptions());
  Inv.BuildSim = true;

  TraceRecord Cold, Warm;
  {
    driver::CompileService Svc(SO);
    driver::CompileResult R = Svc.compile(Inv);
    ASSERT_TRUE(R.Success) << R.C->diagnosticsText();
    EXPECT_FALSE(R.KernelFromCache);
    const sim::KernelStats *KS = R.C->getSimulator()->getKernelStats();
    ASSERT_NE(KS, nullptr);
    EXPECT_FALSE(KS->FromCache);
    Cold = runRecorded(*R.C, 40);
  }
  {
    // A second service sharing only the disk directory: the kernel must
    // come back from the cache and drive an identical simulation.
    driver::CompileService Svc(SO);
    driver::CompileResult R = Svc.compile(Inv);
    ASSERT_TRUE(R.Success) << R.C->diagnosticsText();
    EXPECT_TRUE(R.KernelFromCache);
    const sim::KernelStats *KS = R.C->getSimulator()->getKernelStats();
    ASSERT_NE(KS, nullptr);
    EXPECT_TRUE(KS->FromCache);
    Warm = runRecorded(*R.C, 40);
  }
  expectTraceEqual("warm (cached kernel) vs cold", Cold, Warm);

  // Non-compiled engines must not consult or populate the kernel phase.
  {
    driver::CompileService Svc(SO);
    driver::CompilerInvocation SerialInv =
        invocationFor("farm.lss", lowActivityFarm(8), engineOptions(false));
    SerialInv.BuildSim = true;
    driver::CompileResult R = Svc.compile(SerialInv);
    ASSERT_TRUE(R.Success);
    EXPECT_FALSE(R.KernelFromCache);
    EXPECT_EQ(R.C->getSimulator()->getKernelStats(), nullptr);
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
