//===- SelectiveSimTest.cpp - Selective vs exhaustive differential tests -------===//
///
/// The selective-trace engine's correctness contract: for every model, the
/// instrumentation event stream and the final net values must be
/// bit-identical whether change-driven evaluation is on or off. This file
/// checks that contract differentially over the repository's models A-F
/// and a set of synthetic netlist families, and pins the (selective)
/// traces against golden digests under tests/golden/. The harness and the
/// synthetic families live in SimTestModels.h, shared with
/// ParallelSimTest.cpp.
///
/// Run the binary with --regen-golden to rewrite the digest fixtures after
/// an intentional trace change.
///
//===----------------------------------------------------------------------===//

#include "SimTestModels.h"

#include <fstream>

using namespace liberty;
using namespace simtest;

namespace {

bool GRegenGolden = false;

/// Compiles LSS \p Text twice (exhaustive and selective), runs both for
/// \p Cycles, and requires identical event streams and final net values.
void expectDifferentialMatch(const std::string &Name, const std::string &Text,
                             uint64_t Cycles) {
  auto Exhaustive =
      compileSim(Name, Text, engineOptions(false));
  ASSERT_NE(Exhaustive, nullptr) << "exhaustive compile failed for " << Name;
  auto Selective =
      compileSim(Name, Text, engineOptions(true));
  ASSERT_NE(Selective, nullptr) << "selective compile failed for " << Name;

  TraceRecord E = runRecorded(*Exhaustive, Cycles);
  TraceRecord S = runRecorded(*Selective, Cycles);

  EXPECT_FALSE(Exhaustive->getSimulator()->hadRuntimeErrors()) << Name;
  EXPECT_FALSE(Selective->getSimulator()->hadRuntimeErrors()) << Name;
  EXPECT_EQ(E.Events, S.Events) << "event streams diverge for " << Name;
  EXPECT_EQ(E.FinalNets, S.FinalNets)
      << "final net values diverge for " << Name;
  EXPECT_EQ(E.TotalEmitted, S.TotalEmitted) << Name;
}

//===----------------------------------------------------------------------===//
// Differential: selective == exhaustive
//===----------------------------------------------------------------------===//

TEST(SelectiveDifferential, SyntheticFamilies) {
  for (const SyntheticFamily &F : syntheticFamilies()) {
    SCOPED_TRACE(F.Name);
    expectDifferentialMatch(std::string(F.Name) + ".lss", F.Text, F.Cycles);
  }
}

TEST(SelectiveDifferential, AllPaperModels) {
  for (const std::string &Id : models::modelIds()) {
    SCOPED_TRACE("model " + Id);
    driver::Compiler Exhaustive, Selective;
    ASSERT_TRUE(buildModelSim(Exhaustive, Id, engineOptions(false)))
        << Exhaustive.diagnosticsText();
    ASSERT_TRUE(buildModelSim(Selective, Id, engineOptions(true)))
        << Selective.diagnosticsText();
    TraceRecord E = runRecorded(Exhaustive, 50);
    TraceRecord S = runRecorded(Selective, 50);
    EXPECT_EQ(E.Events, S.Events) << "event streams diverge for model " << Id;
    EXPECT_EQ(E.FinalNets, S.FinalNets)
        << "final net values diverge for model " << Id;
  }
}

TEST(SelectiveDifferential, UninstrumentedFinalValuesMatch) {
  // Without collectors the skip path does no replay at all; final values
  // must still match.
  for (const SyntheticFamily &F : syntheticFamilies()) {
    SCOPED_TRACE(F.Name);
    auto Ex = compileSim(F.Name, F.Text, engineOptions(false));
    auto Sel = compileSim(F.Name, F.Text, engineOptions(true));
    ASSERT_NE(Ex, nullptr);
    ASSERT_NE(Sel, nullptr);
    Ex->getSimulator()->step(F.Cycles);
    Sel->getSimulator()->step(F.Cycles);
    EXPECT_EQ(collectFinalNets(*Ex), collectFinalNets(*Sel));
  }
}

//===----------------------------------------------------------------------===//
// Activity accounting
//===----------------------------------------------------------------------===//

TEST(SelectiveActivity, QuiescentGroupsAreSkipped) {
  auto C = compileSim("farm.lss", lowActivityFarm(16), engineOptions(true));
  ASSERT_NE(C, nullptr);
  sim::Simulator *Sim = C->getSimulator();
  EXPECT_GT(Sim->getBuildInfo().NumSkippableGroups, 0u);
  Sim->step(40);
  const sim::ActivityStats &A = Sim->getActivityStats();
  EXPECT_TRUE(A.Selective);
  EXPECT_EQ(A.Cycles, 40u);
  // The 16 quiet-chain adders and the constant source evaluate on cycle 0
  // only; everything after is skipped.
  EXPECT_GT(A.GroupsSkipped, 39u * 16u);
  EXPECT_EQ(A.GroupsSkipped, A.LeafEvalsSkipped);
  EXPECT_LT(A.LeafEvals, 40u * Sim->getBuildInfo().NumLeaves);
}

TEST(SelectiveActivity, ExhaustiveModeNeverSkips) {
  auto C = compileSim("farm.lss", lowActivityFarm(16), engineOptions(false));
  ASSERT_NE(C, nullptr);
  sim::Simulator *Sim = C->getSimulator();
  Sim->step(40);
  const sim::ActivityStats &A = Sim->getActivityStats();
  EXPECT_FALSE(A.Selective);
  EXPECT_EQ(A.GroupsSkipped, 0u);
  EXPECT_EQ(A.LeafEvalsSkipped, 0u);
  EXPECT_EQ(A.GroupsEvaluated, 40u * Sim->getBuildInfo().NumGroups);
}

TEST(SelectiveActivity, ResetClearsCounters) {
  auto C = compileSim("farm.lss", lowActivityFarm(4), engineOptions(true));
  ASSERT_NE(C, nullptr);
  sim::Simulator *Sim = C->getSimulator();
  Sim->step(10);
  EXPECT_GT(Sim->getActivityStats().Cycles, 0u);
  Sim->reset();
  EXPECT_EQ(Sim->getActivityStats().Cycles, 0u);
  EXPECT_EQ(Sim->getActivityStats().GroupsSkipped, 0u);
}

//===----------------------------------------------------------------------===//
// Mid-run instrumentation attach
//===----------------------------------------------------------------------===//

TEST(SelectiveInstrumentation, MidRunAttachSeesFullStream) {
  // Attaching a collector part-way through a run must not lose events:
  // the selective engine forces one exhaustive cycle to rebuild replay
  // records, and the compiled kernel stops skipping while one is attached.
  auto Run = [](const std::string &Text, sim::Simulator::Options O) {
    auto C = compileSim("farm.lss", Text, O);
    EXPECT_NE(C, nullptr);
    sim::Simulator *Sim = C->getSimulator();
    Sim->step(10); // Uninstrumented prefix; skipping is in effect.
    if (O.Selective) {
      EXPECT_GT(Sim->getActivityStats().GroupsSkipped, 0u);
    }
    std::vector<std::string> Events;
    attachRecorder(*Sim, Events);
    Sim->step(10);
    return Events;
  };
  sim::Simulator::Options Compiled;
  Compiled.Engine = sim::EngineKind::Compiled;
  for (const std::string &Text : {lowActivityFarm(8), computingFarm(8)}) {
    std::vector<std::string> Ex = Run(Text, engineOptions(false));
    EXPECT_FALSE(Ex.empty());
    EXPECT_EQ(Ex, Run(Text, engineOptions(true)));
    EXPECT_EQ(Ex, Run(Text, Compiled));
  }
}

TEST(SelectiveInstrumentation, ReplayedEventsAreCounted) {
  auto C = compileSim("farm.lss", lowActivityFarm(8), engineOptions(true));
  ASSERT_NE(C, nullptr);
  sim::Simulator *Sim = C->getSimulator();
  Sim->getInstrumentation().attachCounter("*", "*");
  Sim->reset();
  Sim->step(20);
  EXPECT_GT(Sim->getActivityStats().EventsReplayed, 0u);
}

//===----------------------------------------------------------------------===//
// Golden trace digests
//===----------------------------------------------------------------------===//

std::string goldenPath(const std::string &Name) {
  return std::string(LIBERTY_GOLDEN_DIR) + "/" + Name + ".trace";
}

/// Digest fixture format: one line "<fnv1a-64-hex> <events> <nets>".
void checkGolden(const std::string &Name, const TraceRecord &R) {
  std::string Line = goldenLine(R);
  std::string Path = goldenPath(Name);
  if (GRegenGolden) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Line;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden fixture " << Path
                         << " (run with --regen-golden to create it)";
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), Line)
      << "trace digest for '" << Name << "' diverges from " << Path
      << "; if the change is intentional, regenerate with --regen-golden";
}

TEST(GoldenTrace, SyntheticFamilies) {
  for (const SyntheticFamily &F : syntheticFamilies()) {
    SCOPED_TRACE(F.Name);
    auto C = compileSim(std::string(F.Name) + ".lss", F.Text,
                        engineOptions(true));
    ASSERT_NE(C, nullptr);
    checkGolden(F.Name, runRecorded(*C, F.Cycles));
  }
}

TEST(GoldenTrace, PaperModels) {
  for (const std::string &Id : models::modelIds()) {
    SCOPED_TRACE("model " + Id);
    driver::Compiler C;
    ASSERT_TRUE(buildModelSim(C, Id, engineOptions(true))) << C.diagnosticsText();
    checkGolden("model_" + Id, runRecorded(C, 50));
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
