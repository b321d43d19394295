//===- CacheTest.cpp - CompilerInvocation keys and the artifact cache ------===//
///
/// Covers the driver API redesign end to end:
///  - CompilerInvocation fingerprint/key sensitivity, including the
///    contract that Solve.NumThreads and the solver budgets never
///    invalidate the solve artifact;
///  - CompileService cold/warm compiles against a disk cache directory,
///    with identical observable results (netlist print, simulation run);
///  - per-field invalidation, corrupted/truncated-entry recovery, and the
///    rule that failing compiles are never cached;
///  - batch compiles: input-order results and determinism under threads;
///  - the LSSNL/LSSSOL serializers: reload fixpoint and the byte-stability
///    of the solution artifact across serial and parallel inference.
///
//===----------------------------------------------------------------------===//

#include "driver/CompileService.h"
#include "driver/Compiler.h"
#include "driver/CompilerInvocation.h"
#include "infer/Solution.h"
#include "netlist/Serializer.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace liberty;

namespace {

const char *kChainSpec = R"(
instance g:counter_source;
instance one:const_source;
one.value = 1;
instance a:adder;
instance s:sink;
g.out -> a.in1;
one.out -> a.in2;
a.out -> s.in;
)";

const char *kMuxSpec = R"(
instance sel:counter_source;
instance i0:const_source;
i0.value = 10;
instance i1:const_source;
i1.value = 11;
instance m:mux;
instance s:sink;
sel.out -> m.sel;
i0.out -> m.in[0];
i1.out -> m.in[1];
m.out -> s.in;
)";

driver::CompilerInvocation chainInvocation(const char *Spec = kChainSpec) {
  driver::CompilerInvocation Inv;
  Inv.addSource("chain.lss", Spec);
  Inv.BuildSim = false;
  return Inv;
}

/// A scratch directory for one test's disk cache, removed on destruction.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/lss_cachetest_XXXXXX";
    Path = mkdtemp(Buf);
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

driver::CompileService::Options diskOpts(const TempDir &Dir) {
  driver::CompileService::Options O;
  O.Cache.DiskDir = Dir.Path;
  return O;
}

std::string netlistText(driver::Compiler &C) {
  std::ostringstream OS;
  C.getNetlist()->print(OS);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Key contract
//===----------------------------------------------------------------------===//

TEST(InvocationKeys, SourceTextChangesEveryKey) {
  driver::CompilerInvocation A = chainInvocation();
  driver::CompilerInvocation B = chainInvocation();
  B.Sources[0].Text += "\ninstance extra:sink;\n";
  EXPECT_NE(A.elabKey(), B.elabKey());
  EXPECT_NE(A.solveKey(), B.solveKey());
  EXPECT_NE(A.fingerprint(), B.fingerprint());
}

TEST(InvocationKeys, SourceNameIsExcluded) {
  // Content-addressed: renaming a file must hit the same artifacts.
  driver::CompilerInvocation A = chainInvocation();
  driver::CompilerInvocation B;
  B.addSource("renamed.lss", kChainSpec);
  B.BuildSim = false;
  EXPECT_EQ(A.elabKey(), B.elabKey());
  EXPECT_EQ(A.solveKey(), B.solveKey());
}

TEST(InvocationKeys, ElaborationOptionsInvalidateElabKey) {
  driver::CompilerInvocation A = chainInvocation();
  driver::CompilerInvocation B = chainInvocation();
  B.Elab.MaxSteps = A.Elab.MaxSteps / 2;
  EXPECT_NE(A.elabKey(), B.elabKey());

  driver::CompilerInvocation C = chainInvocation();
  C.Elab.MaxInstances = A.Elab.MaxInstances / 2;
  EXPECT_NE(A.elabKey(), C.elabKey());

  driver::CompilerInvocation D = chainInvocation();
  D.UseCoreLibrary = false;
  EXPECT_NE(A.elabKey(), D.elabKey());
}

TEST(InvocationKeys, SolverHeuristicsInvalidateSolveKeyOnly) {
  driver::CompilerInvocation A = chainInvocation();
  for (int Field = 0; Field != 3; ++Field) {
    driver::CompilerInvocation B = chainInvocation();
    if (Field == 0)
      B.Solve.ReorderSimpleFirst = false;
    else if (Field == 1)
      B.Solve.ForcedDisjunctElimination = false;
    else
      B.Solve.Partition = false;
    EXPECT_EQ(A.elabKey(), B.elabKey()) << "field " << Field;
    EXPECT_NE(A.solveKey(), B.solveKey()) << "field " << Field;
  }
}

TEST(InvocationKeys, ThreadCountsAndBudgetsNeverInvalidate) {
  // The serial/parallel bit-identical contract: NumThreads must not be
  // part of any key, and budgets only decide whether a solve finishes.
  driver::CompilerInvocation A = chainInvocation();
  driver::CompilerInvocation B = chainInvocation();
  B.Solve.NumThreads = 8;
  B.Solve.MaxSteps = 1234;
  B.Solve.DeadlineMs = 99;
  B.Sim.Jobs = 16;
  EXPECT_EQ(A.elabKey(), B.elabKey());
  EXPECT_EQ(A.solveKey(), B.solveKey());
}

//===----------------------------------------------------------------------===//
// Cold/warm service compiles
//===----------------------------------------------------------------------===//

TEST(CacheService, ColdThenWarmHitsAndMatches) {
  TempDir Dir;
  std::string ColdPrint, WarmPrint;
  {
    driver::CompileService Svc(diskOpts(Dir));
    driver::CompileResult R = Svc.compile(chainInvocation());
    ASSERT_TRUE(R.Success);
    EXPECT_FALSE(R.ElabFromCache);
    EXPECT_FALSE(R.SolutionFromCache);
    driver::CacheStats S = Svc.getCache().getStats();
    EXPECT_EQ(S.Hits, 0u);
    EXPECT_EQ(S.Misses, 2u);
    EXPECT_EQ(S.Stores, 3u); // elab, solve, dep
    ColdPrint = netlistText(*R.C);
  }
  {
    // A fresh service: nothing in memory, both artifacts come from disk.
    driver::CompileService Svc(diskOpts(Dir));
    driver::CompileResult R = Svc.compile(chainInvocation());
    ASSERT_TRUE(R.Success);
    EXPECT_TRUE(R.ElabFromCache);
    EXPECT_TRUE(R.SolutionFromCache);
    driver::CacheStats S = Svc.getCache().getStats();
    EXPECT_EQ(S.Hits, 2u);
    EXPECT_EQ(S.DiskHits, 2u);
    EXPECT_EQ(S.Misses, 0u);
    WarmPrint = netlistText(*R.C);
  }
  EXPECT_EQ(ColdPrint, WarmPrint);
}

TEST(CacheService, MemoryCacheHitsWithoutDisk) {
  driver::CompileService Svc; // Default: enabled, in-memory only.
  driver::CompileResult Cold = Svc.compile(chainInvocation());
  ASSERT_TRUE(Cold.Success);
  driver::CompileResult Warm = Svc.compile(chainInvocation());
  ASSERT_TRUE(Warm.Success);
  EXPECT_TRUE(Warm.ElabFromCache);
  EXPECT_TRUE(Warm.SolutionFromCache);
  EXPECT_EQ(Svc.getCache().getStats().MemoryHits, 2u);
  EXPECT_EQ(netlistText(*Cold.C), netlistText(*Warm.C));
}

TEST(CacheService, WarmSimulationMatchesCold) {
  TempDir Dir;
  auto RunOnce = [&](uint64_t &Cycle, std::string &Nets) {
    driver::CompileService Svc(diskOpts(Dir));
    driver::CompilerInvocation Inv = chainInvocation();
    Inv.BuildSim = true;
    driver::CompileResult R = Svc.compile(Inv);
    ASSERT_TRUE(R.Success);
    sim::Simulator *Sim = R.C->getSimulator();
    ASSERT_NE(Sim, nullptr);
    Sim->step(25);
    Cycle = Sim->getCycle();
    std::ostringstream OS;
    const interp::Value *V = Sim->peekPort("s", "in", 0);
    OS << (V ? V->str() : "(absent)");
    Nets = OS.str();
  };
  uint64_t ColdCycle = 0, WarmCycle = 0;
  std::string ColdNets, WarmNets;
  RunOnce(ColdCycle, ColdNets);
  RunOnce(WarmCycle, WarmNets);
  EXPECT_EQ(ColdCycle, WarmCycle);
  EXPECT_EQ(ColdNets, WarmNets);
}

TEST(CacheService, CompiledKernelIsRebuiltNotCached) {
  // Default simulator options resolve to the compiled engine. Its kernel
  // is lowered with every simulator: nothing is stored for it, and a warm
  // compile (netlist and solution from the cache) still builds one.
  TempDir Dir;
  driver::CompilerInvocation Inv = chainInvocation();
  Inv.BuildSim = true;
  const std::string ElabKey =
      driver::CompilerInvocation::keyString(Inv.elabKey());
  for (int Pass = 0; Pass != 2; ++Pass) {
    driver::CompileService Svc(diskOpts(Dir));
    driver::CompileResult R = Svc.compile(Inv);
    ASSERT_TRUE(R.Success);
    EXPECT_EQ(R.ElabFromCache, Pass == 1);
    EXPECT_EQ(R.C->getSimulator()->getEngine(), sim::EngineKind::Compiled);
    EXPECT_NE(R.C->getSimulator()->getKernelStats(), nullptr);
    std::string Stored;
    EXPECT_FALSE(Svc.getCache().get(ElabKey, "kernel", Stored));
  }
}

TEST(CacheService, EditedSourceMisses) {
  TempDir Dir;
  driver::CompileService Svc(diskOpts(Dir));
  ASSERT_TRUE(Svc.compile(chainInvocation()).Success);
  driver::CompilerInvocation Edited = chainInvocation();
  Edited.Sources[0].Text += "\ninstance extra:sink;\n";
  driver::CompileResult R = Svc.compile(Edited);
  ASSERT_TRUE(R.Success);
  EXPECT_FALSE(R.ElabFromCache);
  EXPECT_FALSE(R.SolutionFromCache);
  EXPECT_EQ(Svc.getCache().getStats().Stores, 6u); // 2 x (elab, solve, dep)
}

TEST(CacheService, DifferentThreadCountStillHits) {
  TempDir Dir;
  {
    driver::CompileService Svc(diskOpts(Dir));
    driver::CompilerInvocation Inv = chainInvocation();
    Inv.Solve.NumThreads = 1;
    ASSERT_TRUE(Svc.compile(Inv).Success);
  }
  driver::CompileService Svc(diskOpts(Dir));
  driver::CompilerInvocation Inv = chainInvocation();
  Inv.Solve.NumThreads = 8;
  driver::CompileResult R = Svc.compile(Inv);
  ASSERT_TRUE(R.Success);
  EXPECT_TRUE(R.ElabFromCache);
  EXPECT_TRUE(R.SolutionFromCache);
}

TEST(CacheService, FailingCompileIsNeverCached) {
  TempDir Dir;
  driver::CompilerInvocation Bad;
  Bad.addSource("bad.lss", "instance g:counter_source;\ng.out -> g.nosuch;\n");
  Bad.BuildSim = false;
  for (int Round = 0; Round != 2; ++Round) {
    driver::CompileService Svc(diskOpts(Dir));
    driver::CompileResult R = Svc.compile(Bad);
    EXPECT_FALSE(R.Success) << "round " << Round;
    EXPECT_FALSE(R.ElabFromCache);
    EXPECT_FALSE(R.SolutionFromCache);
    EXPECT_EQ(Svc.getCache().getStats().Stores, 0u) << "round " << Round;
  }
}

//===----------------------------------------------------------------------===//
// Corruption recovery
//===----------------------------------------------------------------------===//

TEST(CacheService, CorruptedEntriesAreDiagnosedAndRecompiled) {
  TempDir Dir;
  std::string CleanPrint;
  {
    driver::CompileService Svc(diskOpts(Dir));
    driver::CompileResult R = Svc.compile(chainInvocation());
    ASSERT_TRUE(R.Success);
    CleanPrint = netlistText(*R.C);
  }
  // Stomp every stored entry with garbage.
  unsigned Stomped = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path)) {
    std::ofstream(E.path()) << "garbage, definitely not an artifact\n";
    ++Stomped;
  }
  ASSERT_EQ(Stomped, 3u); // elab, solve, dep
  {
    driver::CompileService Svc(diskOpts(Dir));
    driver::CompileResult R = Svc.compile(chainInvocation());
    ASSERT_TRUE(R.Success); // Never a crash, never a failure.
    EXPECT_FALSE(R.ElabFromCache);
    EXPECT_FALSE(R.SolutionFromCache);
    EXPECT_EQ(Svc.getCache().getStats().Corrupt, 2u);
    EXPECT_NE(R.C->diagnosticsText().find("ignoring corrupted cache entry"),
              std::string::npos);
    EXPECT_EQ(netlistText(*R.C), CleanPrint);
  }
  // The recompile overwrote the stomped entries with valid ones.
  driver::CompileService Svc(diskOpts(Dir));
  driver::CompileResult R = Svc.compile(chainInvocation());
  ASSERT_TRUE(R.Success);
  EXPECT_TRUE(R.ElabFromCache);
  EXPECT_TRUE(R.SolutionFromCache);
}

TEST(CacheService, TruncatedEntryIsAMiss) {
  TempDir Dir;
  {
    driver::CompileService Svc(diskOpts(Dir));
    ASSERT_TRUE(Svc.compile(chainInvocation()).Success);
  }
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path)) {
    std::error_code EC;
    std::filesystem::resize_file(E.path(),
                                 std::filesystem::file_size(E.path()) / 2, EC);
    ASSERT_FALSE(EC);
  }
  driver::CompileService Svc(diskOpts(Dir));
  driver::CompileResult R = Svc.compile(chainInvocation());
  ASSERT_TRUE(R.Success);
  EXPECT_FALSE(R.ElabFromCache);
  EXPECT_EQ(Svc.getCache().getStats().Corrupt, 2u);
}

//===----------------------------------------------------------------------===//
// Memory-tier accounting: bytes_in_memory and the LRU eviction counter
//===----------------------------------------------------------------------===//

TEST(CacheBudget, BytesInMemoryTracksResidentPayloads) {
  driver::ArtifactCache Cache; // In-memory only, default budget.
  EXPECT_EQ(Cache.getStats().BytesInMemory, 0u);

  Cache.put("k1", "elab", std::string(100, 'a'));
  Cache.put("k2", "elab", std::string(40, 'b'));
  driver::CacheStats S = Cache.getStats();
  EXPECT_EQ(S.BytesInMemory, 140u);
  EXPECT_EQ(S.Evictions, 0u);

  // Re-storing a key replaces its payload: the gauge must not double-count.
  Cache.put("k1", "elab", std::string(10, 'c'));
  EXPECT_EQ(Cache.getStats().BytesInMemory, 50u);

  std::string Payload;
  ASSERT_TRUE(Cache.get("k1", "elab", Payload));
  EXPECT_EQ(Payload, std::string(10, 'c'));
  EXPECT_EQ(Cache.getStats().BytesInMemory, 50u); // Reads move no bytes.
}

TEST(CacheBudget, LruBudgetEvictsOldestAndCounts) {
  driver::ArtifactCache::Options O;
  O.MemoryBudgetBytes = 100;
  driver::ArtifactCache Cache(O);

  Cache.put("k1", "elab", std::string(60, 'a'));
  Cache.put("k2", "elab", std::string(60, 'b'));
  driver::CacheStats S = Cache.getStats();
  EXPECT_EQ(S.Evictions, 1u); // k1 dropped to fit k2.
  EXPECT_EQ(S.BytesInMemory, 60u);
  EXPECT_LE(S.BytesInMemory, O.MemoryBudgetBytes);

  // The evicted entry is gone (no disk tier to fall back to); the
  // survivor still hits.
  std::string Payload;
  EXPECT_FALSE(Cache.get("k1", "elab", Payload));
  EXPECT_TRUE(Cache.get("k2", "elab", Payload));

  // k2 (60 bytes) is resident. k3 overflows the budget and evicts it;
  // k4 then fits alongside k3 exactly at the budget, evicting nothing.
  Cache.put("k3", "elab", std::string(50, 'c'));
  Cache.put("k4", "elab", std::string(50, 'd'));
  S = Cache.getStats();
  EXPECT_EQ(S.Evictions, 2u);
  EXPECT_EQ(S.BytesInMemory, 100u);
  EXPECT_FALSE(Cache.get("k2", "elab", Payload));
  EXPECT_TRUE(Cache.get("k3", "elab", Payload));
  EXPECT_TRUE(Cache.get("k4", "elab", Payload));

  // An oversized payload still caches (the newest entry is never its own
  // victim) and the gauge reflects the overshoot honestly.
  Cache.put("big", "elab", std::string(500, 'e'));
  S = Cache.getStats();
  EXPECT_TRUE(Cache.get("big", "elab", Payload));
  EXPECT_EQ(S.BytesInMemory, 500u);
}

//===----------------------------------------------------------------------===//
// Cache self-healing: tmp sweep, quarantine, degraded mode
//===----------------------------------------------------------------------===//

/// Clears the fault schedule around each test: these tests inject disk
/// faults and must never leak them into later suites.
class CacheSelfHeal : public ::testing::Test {
protected:
  void SetUp() override { FaultInjection::reset(); }
  void TearDown() override { FaultInjection::reset(); }
};

driver::ArtifactCache::Options cacheOpts(const TempDir &Dir,
                                         uint64_t SweepAge = 0) {
  driver::ArtifactCache::Options O;
  O.DiskDir = Dir.Path;
  O.TmpSweepAgeSeconds = SweepAge;
  return O;
}

TEST_F(CacheSelfHeal, StartupSweepDeletesOnlyOldOrphanedTmpFiles) {
  TempDir Dir;
  std::string Orphan = Dir.Path + "/k.elab.lssart.tmp.999.0.deadbeef";
  std::string Bystander = Dir.Path + "/README.txt";
  std::ofstream(Orphan) << "half an envelope";
  std::ofstream(Bystander) << "not cache state";

  // A fresh tmp file survives the default sweep age (it could belong to a
  // live writer in another process)...
  {
    driver::ArtifactCache Cache(cacheOpts(Dir, /*SweepAge=*/3600));
    EXPECT_EQ(Cache.getStats().TmpSwept, 0u);
    EXPECT_TRUE(std::filesystem::exists(Orphan));
  }
  // ...and is collected once the age threshold admits it (tests use 0).
  {
    driver::ArtifactCache Cache(cacheOpts(Dir));
    EXPECT_EQ(Cache.getStats().TmpSwept, 1u);
    EXPECT_FALSE(std::filesystem::exists(Orphan));
    EXPECT_TRUE(std::filesystem::exists(Bystander));
  }
}

TEST_F(CacheSelfHeal, CrashMidWriteLeavesTmpThenSweepCollectsIt) {
  TempDir Dir;
  {
    driver::ArtifactCache Cache(cacheOpts(Dir));
    ASSERT_TRUE(FaultInjection::configure("cache.disk.write@1"));
    Cache.put("k1", "elab", "payload bytes");
    FaultInjection::reset();
    EXPECT_EQ(Cache.getStats().DiskWriteFailures, 1u);
  }
  // The simulated crash left a truncated temp file and no final entry.
  unsigned Tmps = 0, Finals = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path)) {
    std::string Name = E.path().filename().string();
    if (Name.find(".lssart.tmp") != std::string::npos)
      ++Tmps;
    else if (Name.find(".lssart") != std::string::npos)
      ++Finals;
  }
  EXPECT_EQ(Tmps, 1u);
  EXPECT_EQ(Finals, 0u);

  // The next startup sweeps the orphan; a clean put then publishes.
  driver::ArtifactCache Cache(cacheOpts(Dir));
  EXPECT_EQ(Cache.getStats().TmpSwept, 1u);
  Cache.put("k1", "elab", "payload bytes");
  driver::ArtifactCache Reader(cacheOpts(Dir));
  std::string Back;
  EXPECT_TRUE(Reader.get("k1", "elab", Back));
  EXPECT_EQ(Back, "payload bytes");
}

TEST_F(CacheSelfHeal, TornRenameIsQuarantinedAndRecompiledIdentically) {
  TempDir Dir;
  const std::string Payload = "the artifact bytes, cold == warm";
  {
    driver::ArtifactCache Cache(cacheOpts(Dir));
    ASSERT_TRUE(FaultInjection::configure("cache.disk.rename@1"));
    Cache.put("k2", "solve", Payload); // Torn bytes land at the final name.
    FaultInjection::reset();
  }
  driver::ArtifactCache Cache(cacheOpts(Dir));
  std::string Back, Note;
  // The torn entry fails its checksum: a diagnosed miss, moved aside.
  EXPECT_FALSE(Cache.get("k2", "solve", Back, &Note));
  EXPECT_EQ(Cache.getStats().Corrupt, 1u);
  EXPECT_EQ(Cache.getStats().Quarantined, 1u);
  EXPECT_NE(Note.find("ignoring corrupted cache entry"), std::string::npos);

  // The quarantined file is out of the read path: the next miss is clean.
  Note.clear();
  EXPECT_FALSE(Cache.get("k2", "solve", Back, &Note));
  EXPECT_EQ(Cache.getStats().Corrupt, 1u);
  EXPECT_TRUE(Note.empty());

  // The "recompile" republished under the original name with the same
  // bytes a never-faulted write would have produced.
  Cache.put("k2", "solve", Payload);
  driver::ArtifactCache Reader(cacheOpts(Dir));
  EXPECT_TRUE(Reader.get("k2", "solve", Back));
  EXPECT_EQ(Back, Payload);
}

TEST_F(CacheSelfHeal, ConsecutiveWriteFailuresDegradeToMemoryOnly) {
  TempDir Dir;
  driver::ArtifactCache::Options O = cacheOpts(Dir);
  O.DegradeAfterFailures = 3;
  driver::ArtifactCache Cache(O);

  ASSERT_TRUE(FaultInjection::configure("cache.disk.open_write"));
  Cache.put("a", "elab", "pa");
  Cache.put("b", "elab", "pb");
  EXPECT_FALSE(Cache.isDegraded()); // Two failures: still trying.
  Cache.put("c", "elab", "pc");
  FaultInjection::reset();

  EXPECT_TRUE(Cache.isDegraded());
  EXPECT_TRUE(Cache.getStats().Degraded);
  EXPECT_EQ(Cache.getStats().DiskWriteFailures, 3u);

  // Degraded mode is sticky: even with the disk healthy again, no new
  // disk entries appear — but the memory LRU still serves everything.
  Cache.put("d", "elab", "pd");
  EXPECT_EQ(Cache.getStats().DiskWriteFailures, 3u);
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path))
    FAIL() << "unexpected disk entry " << E.path();
  std::string Back;
  EXPECT_TRUE(Cache.get("d", "elab", Back));
  EXPECT_EQ(Back, "pd");
}

TEST_F(CacheSelfHeal, ASuccessfulWriteResetsTheFailureStreak) {
  TempDir Dir;
  driver::ArtifactCache::Options O = cacheOpts(Dir);
  O.DegradeAfterFailures = 3;
  driver::ArtifactCache Cache(O);

  // Fail, fail, succeed, fail, fail: never three in a row.
  ASSERT_TRUE(FaultInjection::configure("cache.disk.open_write@1,"
                                        "cache.disk.open_write@2,"
                                        "cache.disk.open_write@4,"
                                        "cache.disk.open_write@5"));
  for (int I = 0; I != 5; ++I)
    Cache.put("k" + std::to_string(I), "elab", "p");
  FaultInjection::reset();

  EXPECT_FALSE(Cache.isDegraded());
  EXPECT_EQ(Cache.getStats().DiskWriteFailures, 4u);
  // The one successful write really published.
  driver::ArtifactCache Reader(cacheOpts(Dir));
  std::string Back;
  EXPECT_TRUE(Reader.get("k2", "elab", Back));
}

TEST_F(CacheSelfHeal, ServiceStaysCorrectWhileCacheDegrades) {
  TempDir Dir;
  std::string CleanPrint;
  {
    driver::CompileService Ref;
    CleanPrint = netlistText(*Ref.compile(chainInvocation()).C);
  }
  driver::CompileService::Options O = diskOpts(Dir);
  O.Cache.DegradeAfterFailures = 1;
  driver::CompileService Svc(O);
  ASSERT_TRUE(FaultInjection::configure("cache.disk.open_write"));
  driver::CompileResult R = Svc.compile(chainInvocation());
  FaultInjection::reset();
  ASSERT_TRUE(R.Success); // The cache is an accelerator, never a gate.
  EXPECT_EQ(netlistText(*R.C), CleanPrint);
  EXPECT_TRUE(Svc.getCache().isDegraded());

  // Warm compiles still ride the in-memory level.
  driver::CompileResult R2 = Svc.compile(chainInvocation());
  ASSERT_TRUE(R2.Success);
  EXPECT_TRUE(R2.ElabFromCache);
  EXPECT_TRUE(R2.SolutionFromCache);
  EXPECT_EQ(netlistText(*R2.C), CleanPrint);
}

//===----------------------------------------------------------------------===//
// Batch compiles
//===----------------------------------------------------------------------===//

TEST(CacheService, BatchResultsAreInInputOrderAndDeterministic) {
  // Reference prints from isolated compiles.
  driver::CompileService Ref;
  std::string ChainPrint =
      netlistText(*Ref.compile(chainInvocation()).C);
  driver::CompilerInvocation MuxInv;
  MuxInv.addSource("mux.lss", kMuxSpec);
  MuxInv.BuildSim = false;
  std::string MuxPrint = netlistText(*Ref.compile(MuxInv).C);
  ASSERT_NE(ChainPrint, MuxPrint);

  std::vector<driver::CompilerInvocation> Invs;
  for (int I = 0; I != 4; ++I) {
    Invs.push_back(chainInvocation());
    Invs.push_back(MuxInv);
  }
  for (int Round = 0; Round != 2; ++Round) {
    driver::CompileService Svc;
    std::vector<driver::CompileResult> Rs = Svc.compileBatch(Invs, 4);
    ASSERT_EQ(Rs.size(), Invs.size());
    for (size_t I = 0; I != Rs.size(); ++I) {
      ASSERT_TRUE(Rs[I].Success) << "round " << Round << " input " << I;
      EXPECT_EQ(netlistText(*Rs[I].C), I % 2 ? MuxPrint : ChainPrint)
          << "round " << Round << " input " << I;
    }
  }
}

//===----------------------------------------------------------------------===//
// Serializer stability
//===----------------------------------------------------------------------===//

/// Compiles the chain spec and returns the serialized netlist bytes.
static bool serializeOnce(driver::Compiler &C, std::string &Out) {
  return netlist::serializeNetlist(*C.getNetlist(), C.getLibraryModules(),
                                   C.getNumUserTypeAnnotations(), {}, Out);
}

TEST(Serializer, NetlistReloadReachesFixpoint) {
  driver::CompileService Svc;
  driver::CompileResult R = Svc.compile(chainInvocation());
  ASSERT_TRUE(R.Success);
  std::string S1;
  ASSERT_TRUE(serializeOnce(*R.C, S1));

  // One reload may rename type variables (fresh ids); the second must be
  // byte-stable.
  types::TypeContext TC2;
  auto SC2 = netlist::deserializeNetlist(S1, TC2);
  ASSERT_NE(SC2.NL, nullptr);
  std::string S2;
  ASSERT_TRUE(netlist::serializeNetlist(*SC2.NL, SC2.LibraryModules,
                                        SC2.NumUserAnnotations, SC2.Diags,
                                        S2));
  types::TypeContext TC3;
  auto SC3 = netlist::deserializeNetlist(S2, TC3);
  ASSERT_NE(SC3.NL, nullptr);
  std::string S3;
  ASSERT_TRUE(netlist::serializeNetlist(*SC3.NL, SC3.LibraryModules,
                                        SC3.NumUserAnnotations, SC3.Diags,
                                        S3));
  EXPECT_EQ(S2, S3);
}

TEST(Serializer, InstanceIdsAgreeWithSerializationOrder) {
  // The serializer writes parent references as dense InstanceNode::Ids
  // instead of rebuilding a pointer->index map per serialize, which is
  // only sound if Id always equals the instance's position in creation
  // order — on a freshly elaborated netlist and on a reloaded one.
  driver::CompileService Svc;
  driver::CompileResult R = Svc.compile(chainInvocation());
  ASSERT_TRUE(R.Success);
  auto CheckIds = [](const netlist::Netlist &NL) {
    const auto &Instances = NL.getInstances();
    ASSERT_FALSE(Instances.empty());
    EXPECT_EQ(Instances.front()->Id, 0u); // Root.
    for (size_t I = 0; I != Instances.size(); ++I) {
      EXPECT_EQ(Instances[I]->Id, I);
      if (I)
        EXPECT_LT(Instances[I]->Parent->Id, Instances[I]->Id)
            << "parents must precede children";
    }
  };
  CheckIds(*R.C->getNetlist());

  std::string S1;
  ASSERT_TRUE(serializeOnce(*R.C, S1));
  types::TypeContext TC;
  auto SC = netlist::deserializeNetlist(S1, TC);
  ASSERT_NE(SC.NL, nullptr);
  CheckIds(*SC.NL);
}

TEST(Serializer, EmptyStringTokensRoundTrip) {
  std::string Out;
  ASSERT_TRUE(netlist::artifactUnescape(netlist::artifactEscape(""), Out));
  EXPECT_EQ(Out, "");
  ASSERT_TRUE(netlist::artifactUnescape(netlist::artifactEscape("%_"), Out));
  EXPECT_EQ(Out, "%_");
}

TEST(Serializer, SolutionBytesAreThreadCountInvariant) {
  // The bugfix regression: serial and parallel inference must export the
  // exact same solution artifact, byte for byte.
  auto SolveWith = [&](unsigned Threads, std::string &Bytes) {
    driver::Compiler C;
    driver::CompilerInvocation Inv;
    Inv.addSource("mux.lss", kMuxSpec);
    Inv.Solve.NumThreads = Threads;
    ASSERT_TRUE(C.addSources(Inv));
    ASSERT_TRUE(C.elaborate(Inv));
    ASSERT_TRUE(C.inferTypes(Inv));
    ASSERT_TRUE(
        infer::exportSolution(*C.getNetlist(), C.getInferenceStats(), {},
                              Bytes));
  };
  std::string Serial, Parallel;
  SolveWith(1, Serial);
  SolveWith(4, Parallel);
  EXPECT_FALSE(Serial.empty());
  EXPECT_EQ(Serial, Parallel);
}

} // namespace
