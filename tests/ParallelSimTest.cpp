//===- ParallelSimTest.cpp - Wavefront engine determinism tests -----------===//
///
/// The wavefront (level-parallel) engine's contract: for ANY thread count
/// the simulation is bit-identical to the serial engine — same event
/// stream in the same order, same final net values, same activity
/// counters, same golden digests — with selective evaluation on or off.
/// This file checks that contract differentially (serial vs 2/4/8 worker
/// threads) over the synthetic netlist families, a wide
/// embarrassingly-parallel model, and the paper models A-F; pins the
/// parallel traces against the same read-only golden fixtures the serial
/// engine uses; and unit-tests the level assignment in sim::computeSchedule
/// (every group's level strictly exceeds its producers' levels, levels
/// partition the topological order into contiguous runs).
///
/// This binary never regenerates golden fixtures.
///
//===----------------------------------------------------------------------===//

#include "SimTestModels.h"
#include "sim/Scheduler.h"

#include <fstream>

using namespace liberty;
using namespace simtest;

namespace {

constexpr unsigned JobCounts[] = {2, 4, 8};

void expectStatsEqual(const sim::ActivityStats &Ref,
                      const sim::ActivityStats &Got) {
  EXPECT_EQ(Ref.Selective, Got.Selective);
  EXPECT_EQ(Ref.Cycles, Got.Cycles);
  EXPECT_EQ(Ref.GroupsEvaluated, Got.GroupsEvaluated);
  EXPECT_EQ(Ref.GroupsSkipped, Got.GroupsSkipped);
  EXPECT_EQ(Ref.LeafEvals, Got.LeafEvals);
  EXPECT_EQ(Ref.LeafEvalsSkipped, Got.LeafEvalsSkipped);
  EXPECT_EQ(Ref.FixpointIters, Got.FixpointIters);
  EXPECT_EQ(Ref.NetWrites, Got.NetWrites);
  EXPECT_EQ(Ref.NetChanges, Got.NetChanges);
  EXPECT_EQ(Ref.EventsReplayed, Got.EventsReplayed);
  EXPECT_EQ(Ref.BypassCycles, Got.BypassCycles);
}

/// Runs \p Text serially, then at 2/4/8 worker threads, and requires the
/// parallel runs to reproduce the serial event stream, final net values,
/// and every activity counter bit-for-bit.
void expectParallelMatchesSerial(const std::string &Name,
                                 const std::string &Text, uint64_t Cycles,
                                 bool Selective) {
  auto Serial =
      compileSim(Name, Text, engineOptions(Selective, 1));
  ASSERT_NE(Serial, nullptr) << "serial compile failed for " << Name;
  TraceRecord Ref = runRecorded(*Serial, Cycles);
  ASSERT_FALSE(Serial->getSimulator()->hadRuntimeErrors()) << Name;
  sim::ActivityStats RefStats = Serial->getSimulator()->getActivityStats();

  for (unsigned Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    auto Par = compileSim(Name, Text, engineOptions(Selective, Jobs));
    ASSERT_NE(Par, nullptr) << "parallel compile failed for " << Name;
    TraceRecord Got = runRecorded(*Par, Cycles);
    EXPECT_FALSE(Par->getSimulator()->hadRuntimeErrors()) << Name;
    EXPECT_EQ(Ref.Events, Got.Events)
        << "event streams diverge for " << Name << " at " << Jobs << " jobs";
    EXPECT_EQ(Ref.FinalNets, Got.FinalNets)
        << "final net values diverge for " << Name;
    EXPECT_EQ(Ref.TotalEmitted, Got.TotalEmitted) << Name;
    EXPECT_EQ(traceDigest(Ref), traceDigest(Got)) << Name;
    expectStatsEqual(RefStats, Par->getSimulator()->getActivityStats());
  }
}

//===----------------------------------------------------------------------===//
// Differential: parallel == serial
//===----------------------------------------------------------------------===//

TEST(ParallelDifferential, SyntheticFamiliesSelective) {
  for (const SyntheticFamily &F : syntheticFamilies()) {
    SCOPED_TRACE(F.Name);
    expectParallelMatchesSerial(std::string(F.Name) + ".lss", F.Text, F.Cycles,
                                /*Selective=*/true);
  }
}

TEST(ParallelDifferential, SyntheticFamiliesExhaustive) {
  for (const SyntheticFamily &F : syntheticFamilies()) {
    SCOPED_TRACE(F.Name);
    expectParallelMatchesSerial(std::string(F.Name) + ".lss", F.Text, F.Cycles,
                                /*Selective=*/false);
  }
}

TEST(ParallelDifferential, WideIndependentLanes) {
  // 64 independent strands: the adders all land in one wide level, the
  // sharpest stress on shard merging and ascending event flush.
  std::string Text = wideIndependentLanes(64);
  for (bool Selective : {true, false}) {
    SCOPED_TRACE(Selective ? "selective" : "exhaustive");
    expectParallelMatchesSerial("wide_lanes.lss", Text, 30, Selective);
  }
  auto C = compileSim("wide_lanes.lss", Text, engineOptions(true, 4));
  ASSERT_NE(C, nullptr);
  const sim::Simulator::BuildInfo &BI = C->getSimulator()->getBuildInfo();
  EXPECT_GE(BI.MaxLevelWidth, 64u) << "lanes should share one wide level";
  EXPECT_LE(BI.NumLevels, 4u);
}

TEST(ParallelDifferential, AllPaperModels) {
  for (const std::string &Id : models::modelIds()) {
    SCOPED_TRACE("model " + Id);
    driver::Compiler Serial;
    ASSERT_TRUE(buildModelSim(Serial, Id, engineOptions(true, 1)))
        << Serial.diagnosticsText();
    TraceRecord Ref = runRecorded(Serial, 50);
    sim::ActivityStats RefStats = Serial.getSimulator()->getActivityStats();
    for (unsigned Jobs : JobCounts) {
      SCOPED_TRACE("jobs=" + std::to_string(Jobs));
      driver::Compiler Par;
      ASSERT_TRUE(buildModelSim(Par, Id, engineOptions(true, Jobs)))
          << Par.diagnosticsText();
      TraceRecord Got = runRecorded(Par, 50);
      EXPECT_EQ(Ref.Events, Got.Events)
          << "event streams diverge for model " << Id;
      EXPECT_EQ(Ref.FinalNets, Got.FinalNets)
          << "final net values diverge for model " << Id;
      expectStatsEqual(RefStats, Par.getSimulator()->getActivityStats());
    }
  }
}

TEST(ParallelDifferential, UninstrumentedFinalValuesMatch) {
  // Without collectors the engine runs unbuffered; final values must still
  // match the serial run.
  for (const SyntheticFamily &F : syntheticFamilies()) {
    SCOPED_TRACE(F.Name);
    auto Serial =
        compileSim(F.Name, F.Text, engineOptions(true, 1));
    ASSERT_NE(Serial, nullptr);
    Serial->getSimulator()->step(F.Cycles);
    std::vector<std::string> Ref = collectFinalNets(*Serial);
    for (unsigned Jobs : JobCounts) {
      auto Par = compileSim(F.Name, F.Text, engineOptions(true, Jobs));
      ASSERT_NE(Par, nullptr);
      Par->getSimulator()->step(F.Cycles);
      EXPECT_EQ(Ref, collectFinalNets(*Par))
          << F.Name << " at " << Jobs << " jobs";
    }
  }
}

//===----------------------------------------------------------------------===//
// Golden digests are thread-count invariant (read-only; never regenerated)
//===----------------------------------------------------------------------===//

std::string readGolden(const std::string &Name) {
  std::string Path = std::string(LIBERTY_GOLDEN_DIR) + "/" + Name + ".trace";
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "missing golden fixture " << Path;
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

TEST(ParallelGolden, SyntheticFamilies) {
  for (const SyntheticFamily &F : syntheticFamilies()) {
    SCOPED_TRACE(F.Name);
    std::string Want = readGolden(F.Name);
    for (unsigned Jobs : {1u, 2u, 4u, 8u})
      for (bool Selective : {true, false}) {
        SCOPED_TRACE("jobs=" + std::to_string(Jobs) +
                     (Selective ? " selective" : " exhaustive"));
        auto C = compileSim(F.Name, F.Text, engineOptions(Selective, Jobs));
        ASSERT_NE(C, nullptr);
        EXPECT_EQ(Want, goldenLine(runRecorded(*C, F.Cycles)));
      }
  }
}

TEST(ParallelGolden, PaperModels) {
  for (const std::string &Id : models::modelIds()) {
    SCOPED_TRACE("model " + Id);
    std::string Want = readGolden("model_" + Id);
    for (unsigned Jobs : {2u, 4u, 8u}) {
      SCOPED_TRACE("jobs=" + std::to_string(Jobs));
      driver::Compiler C;
      ASSERT_TRUE(buildModelSim(C, Id, engineOptions(true, Jobs)))
          << C.diagnosticsText();
      EXPECT_EQ(Want, goldenLine(runRecorded(C, 50)));
    }
  }
}

//===----------------------------------------------------------------------===//
// Level assignment unit tests (sim::computeSchedule)
//===----------------------------------------------------------------------===//

/// Levels must partition [0, NumGroups) — every group in exactly one
/// level, ascending within a level — and agree with GroupLevel.
void expectWellFormedLevels(const sim::Schedule &S) {
  ASSERT_EQ(S.GroupLevel.size(), S.numGroups());
  std::vector<int> Seen(S.numGroups(), 0);
  for (size_t L = 0; L != S.Levels.size(); ++L) {
    EXPECT_FALSE(S.Levels[L].empty()) << "empty level " << L;
    int Prev = -1;
    for (int G : S.Levels[L]) {
      ASSERT_GE(G, 0);
      ASSERT_LT(G, int(S.numGroups()));
      EXPECT_GT(G, Prev) << "level " << L << " not ascending";
      Prev = G;
      EXPECT_EQ(S.GroupLevel[size_t(G)], int(L));
      ++Seen[size_t(G)];
    }
  }
  for (size_t G = 0; G != Seen.size(); ++G)
    EXPECT_EQ(Seen[G], 1) << "group " << G << " not in exactly one level";
}

/// Every edge crossing groups must go to a strictly later level.
void expectLevelsRespectEdges(
    const sim::Schedule &S, int NumNodes,
    const std::vector<std::vector<int>> &Successors) {
  std::vector<int> NodeGroup(size_t(NumNodes), -1);
  for (size_t G = 0; G != S.numGroups(); ++G)
    for (int N : S.group(G))
      NodeGroup[size_t(N)] = int(G);
  for (int U = 0; U != NumNodes; ++U)
    for (int V : Successors[size_t(U)]) {
      int GU = NodeGroup[size_t(U)], GV = NodeGroup[size_t(V)];
      if (GU == GV)
        continue; // Intra-SCC edge.
      EXPECT_LT(S.GroupLevel[size_t(GU)], S.GroupLevel[size_t(GV)])
          << "edge " << U << "->" << V << " not level-ordered";
    }
}

TEST(ScheduleLevels, DiamondProducersPrecedeConsumers) {
  // 0 -> {1,2} -> 3: the join must sit strictly after both branches.
  std::vector<std::vector<int>> Succ = {{1, 2}, {3}, {3}, {}};
  sim::Schedule S = sim::computeSchedule(4, Succ);
  ASSERT_EQ(S.numGroups(), 4u);
  expectWellFormedLevels(S);
  expectLevelsRespectEdges(S, 4, Succ);
  EXPECT_EQ(S.numLevels(), 3u);
  EXPECT_EQ(S.maxLevelWidth(), 2u);
}

TEST(ScheduleLevels, IndependentNodesShareOneLevel) {
  std::vector<std::vector<int>> Succ(64);
  sim::Schedule S = sim::computeSchedule(64, Succ);
  expectWellFormedLevels(S);
  EXPECT_EQ(S.numLevels(), 1u);
  EXPECT_EQ(S.maxLevelWidth(), 64u);
}

TEST(ScheduleLevels, ChainIsFullySequential) {
  std::vector<std::vector<int>> Succ(10);
  for (int I = 0; I != 9; ++I)
    Succ[size_t(I)].push_back(I + 1);
  sim::Schedule S = sim::computeSchedule(10, Succ);
  expectWellFormedLevels(S);
  expectLevelsRespectEdges(S, 10, Succ);
  EXPECT_EQ(S.numLevels(), 10u);
  EXPECT_EQ(S.maxLevelWidth(), 1u);
}

TEST(ScheduleLevels, SccCollapsesToOneGroupWithOrderedLevels) {
  // 0 -> 1 <-> 2 -> 3: the cycle {1,2} forms one group between 0 and 3.
  std::vector<std::vector<int>> Succ = {{1}, {2}, {1, 3}, {}};
  sim::Schedule S = sim::computeSchedule(4, Succ);
  ASSERT_EQ(S.numGroups(), 3u);
  EXPECT_EQ(S.maxGroupSize(), 2u);
  expectWellFormedLevels(S);
  expectLevelsRespectEdges(S, 4, Succ);
  EXPECT_EQ(S.numLevels(), 3u);
}

TEST(ScheduleLevels, WideMiddleLayer) {
  // One source fanning out to 32 middles joining into one sink.
  size_t NumNodes = 34;
  std::vector<std::vector<int>> Succ(NumNodes);
  for (int M = 1; M <= 32; ++M) {
    Succ[0].push_back(M);
    Succ[size_t(M)].push_back(33);
  }
  sim::Schedule S = sim::computeSchedule(int(NumNodes), Succ);
  expectWellFormedLevels(S);
  expectLevelsRespectEdges(S, int(NumNodes), Succ);
  EXPECT_EQ(S.numLevels(), 3u);
  EXPECT_EQ(S.maxLevelWidth(), 32u);
}

} // namespace
