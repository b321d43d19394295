//===- bench_delaychain.cpp - Figures 2/8/9: the parametric delay chain -------===//
///
/// The paper's running example: the delayn flexible hierarchical module.
/// Sweeps the chain length n up to 3000, showing that a one-parameter
/// change re-elaborates arbitrarily large structures (the thing Figure 2's
/// static-structural system cannot express) in time linear in n, and
/// cross-checks each generated simulator's output against the hand-coded
/// chain.
///
//===----------------------------------------------------------------------===//

#include "baseline/HandCodedSim.h"
#include "driver/Compiler.h"

#include <chrono>
#include <cstdio>
#include <string>

using namespace liberty;

static std::string delayChainSpec(int N) {
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
instance gen:counter_source;
instance hole:sink;
instance chain:delayn;
chain.n = )" + std::to_string(N) + R"(;
gen.out -> chain.in;
chain.out -> hole.in;
)";
}

int main() {
  std::printf("=== Figures 2/8/9: parametric n-stage delay chain ===\n\n");
  std::printf("%8s %10s %12s %12s %12s %14s %8s\n", "n", "instances",
              "compile(ms)", "elab(ms)", "sim(ms)", "sink value", "check");

  const uint64_t Cycles = 2000;
  bool AllOk = true;
  for (int N : {1, 3, 10, 100, 1000, 3000}) {
    auto T0 = std::chrono::steady_clock::now();
    driver::CompilerInvocation Inv;
    Inv.addSource("delaychain.lss", delayChainSpec(N));
    auto C = driver::Compiler::compileForSim(Inv);
    auto T1 = std::chrono::steady_clock::now();
    if (!C) {
      std::printf("%8d compilation FAILED\n", N);
      AllOk = false;
      continue;
    }
    sim::Simulator *Sim = C->getSimulator();
    Sim->step(Cycles);
    auto T2 = std::chrono::steady_clock::now();

    const interp::Value *Out = Sim->peekPort(
        "chain.delays[" + std::to_string(N - 1) + "]", "out", 0);
    int64_t Expected = baseline::runHandCodedDelayChain(N, Cycles);
    bool Ok = Out && Out->isInt() && Out->getInt() == Expected;
    AllOk &= Ok;

    auto Ms = [](auto D) {
      return std::chrono::duration<double, std::milli>(D).count();
    };
    const PhaseTimer::Phase *Elab =
        C->getPhaseTimer().findPhase("elaborate");
    std::printf("%8d %10zu %12.2f %12.2f %12.2f %14lld %8s\n", N,
                C->getNetlist()->getInstances().size() - 1, Ms(T1 - T0),
                Elab ? Elab->WallMs : -1.0, Ms(T2 - T1),
                Out && Out->isInt() ? (long long)Out->getInt() : -1,
                Ok ? "ok" : "MISMATCH");
  }

  std::printf("\nA static structural system would require a hand-drawn "
              "netlist per n; a structural-OOP system builds the chain at "
              "run time but cannot analyze it statically. LSS elaborates "
              "the parametric chain at compile time and still type-infers "
              "and schedules it (paper Sections 3-4).\n");
  return AllOk ? 0 : 1;
}
