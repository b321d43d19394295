//===- ElabComplexityTest.cpp - Elaboration stays linear ------------------------===//
///
/// Complexity guard for compile-time elaboration. Elaborates the paper's
/// running example (delayn, Figures 2/8/9) beside an array-filling module
/// at n = 1000 and n = 4000 and bounds the growth of a deterministic work
/// counter: interpreter steps plus the payload entries Value deep-copied
/// by copy-on-write. Linear elaboration grows it ~4x; the bound is 4.5x.
/// A deep copy per indexing (each `delays[i]` copying the whole instance
/// array) or per lvalue write (each `b[i] = ...` copying `b`) grows it
/// ~16x. Wall time is deliberately not measured.
///
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"

#include <gtest/gtest.h>

using namespace liberty;

namespace {

std::string spec(int N) {
  return R"(
module delayn {
  parameter n:int;
  inport in: 'a;
  outport out: 'a;
  var delays:instance ref[];
  delays = new instance[n](delay, "delays");
  in -> delays[0].in;
  var i:int;
  for (i = 1; i < n; i = i + 1) {
    delays[i-1].out -> delays[i].in;
  }
  delays[n-1].out -> out;
};
module filler {
  parameter n:int;
  var a:int[] = array(n, 0);
  var i:int;
  for (i = 0; i < n; i = i + 1) {
    a[i] = i;
  }
  var b:int[] = a;
  var sum:int = 0;
  for (i = 0; i < n; i = i + 1) {
    b[i] = b[i] + a[i];
    sum = sum + b[i];
  }
  LSS_assert(sum == n * (n - 1), "filler sum");
  LSS_assert(a[n-1] == n - 1, "copy-on-write left a intact");
};
instance gen:counter_source;
instance hole:sink;
instance chain:delayn;
chain.n = )" + std::to_string(N) + R"(;
gen.out -> chain.in;
chain.out -> hole.in;
instance fill:filler;
fill.n = )" + std::to_string(N) + R"(;
)";
}

struct Work {
  uint64_t Steps = 0;
  uint64_t CowEntries = 0;
  uint64_t total() const { return Steps + CowEntries; }
};

Work elaborateChain(int N) {
  driver::Compiler C;
  uint64_t CowBefore = interp::Value::getCowCopiedEntries();
  bool Ok = C.addCoreLibrary() && C.addSource("chain.lss", spec(N)) &&
            C.elaborate();
  EXPECT_TRUE(Ok) << C.diagnosticsText();
  EXPECT_NE(C.getNetlist()->findByPath("chain.delays[" +
                                       std::to_string(N - 1) + "]"),
            nullptr);
  Work W;
  W.Steps = C.getInterpreter()->getSteps();
  W.CowEntries = interp::Value::getCowCopiedEntries() - CowBefore;
  return W;
}

TEST(ElabComplexity, DelayChainElaborationIsLinear) {
  Work Small = elaborateChain(1000);
  Work Large = elaborateChain(4000);
  // `b = a` shares a's payload; the first write to b unshares it once.
  EXPECT_EQ(Small.CowEntries, 1000u);
  EXPECT_EQ(Large.CowEntries, 4000u);
  double Growth = double(Large.total()) / double(Small.total());
  EXPECT_LE(Growth, 4.5) << "steps " << Small.Steps << " -> " << Large.Steps
                         << ", copy-on-write entries " << Small.CowEntries
                         << " -> " << Large.CowEntries;
}

} // namespace
