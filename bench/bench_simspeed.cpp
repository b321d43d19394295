//===- bench_simspeed.cpp - Section 8's simulation-speed comparison -----------===//
///
/// The paper claims (Section 8, citing [12]): "reusable components in LSE
/// with LSS are at least as fast as custom components written in SystemC."
/// This bench compares cycles/second on the same delay-chain and CPU
/// workloads across:
///   - the LSS-generated simulator (static schedule, reusable components),
///   - the structural-OOP engine (run-time composition, no schedule — the
///     SystemC-analogue this repository implements), and
///   - a hand-written monomorphic C++ simulator (the absolute ceiling).
/// The paper's claim maps to LSS >= structural-OOP; the hand-coded C++
/// ceiling is reported for calibration.
///
//===----------------------------------------------------------------------===//

#include "baseline/HandCodedSim.h"
#include "baseline/OopSim.h"
#include "driver/Compiler.h"
#include "models/Models.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace liberty;

namespace {

/// --sim-engine NAME (default auto): the engine for the LSS benchmarks
/// that don't sweep engines themselves, enabling whole-suite comparisons.
/// The legacy --selective on|off and --sim-jobs N flags remain as
/// aliases; they only matter when the engine is auto (sim::resolveEngine
/// then picks compiled/interp/wavefront from them, exactly as lssc
/// does).
sim::EngineKind GEngine = sim::EngineKind::Auto;

/// --selective on|off (default on): legacy alias, see GEngine.
bool GSelective = true;

/// --sim-jobs N (default 1): legacy alias, see GEngine.
unsigned GSimJobs = 1;

sim::Simulator::Options simOptions() {
  sim::Simulator::Options O;
  O.Selective = GSelective;
  O.Jobs = GSimJobs;
  O.Engine = GEngine;
  return O;
}

/// One-source invocation under the suite-wide engine options.
driver::CompilerInvocation invocationFor(const std::string &Name,
                                         std::string Text,
                                         sim::Simulator::Options O) {
  driver::CompilerInvocation Inv;
  Inv.addSource(Name, std::move(Text));
  Inv.Sim = O;
  return Inv;
}

std::string delayChainSpec(int N) {
  return R"(
module delayn {
  parameter n:int;
  inport in: 'a;
  outport out: 'a;
  var delays:instance ref[];
  delays = new instance[n](delay, "delays");
  in -> delays[0].in;
  var i:int;
  for (i = 1; i < n; i = i + 1) { delays[i-1].out -> delays[i].in; }
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

void BM_LssDelayChain(benchmark::State &State) {
  int N = State.range(0);
  auto C = driver::Compiler::compileForSim(
      invocationFor("chain.lss", delayChainSpec(N), simOptions()));
  if (!C) {
    State.SkipWithError("compile failed");
    return;
  }
  sim::Simulator *Sim = C->getSimulator();
  for (auto _ : State)
    Sim->step(100);
  State.counters["cycles/s"] = benchmark::Counter(
      100.0 * State.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LssDelayChain)->Arg(10)->Arg(100);

void BM_OopDelayChain(benchmark::State &State) {
  using namespace baseline::oop;
  int N = State.range(0);
  Engine E;
  Signal<int64_t> In, Out;
  E.track(&In);
  E.track(&Out);
  E.add(std::make_unique<CounterSource>(&In, E));
  E.add(std::make_unique<DelayN<int64_t>>(E, &In, &Out, N, int64_t(0)));
  E.add(std::make_unique<Sink<int64_t>>(&Out));
  E.reset();
  for (auto _ : State)
    E.step(100);
  State.counters["cycles/s"] = benchmark::Counter(
      100.0 * State.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OopDelayChain)->Arg(10)->Arg(100);

void BM_OopBoxedDelayChain(benchmark::State &State) {
  using namespace baseline::oop;
  using namespace baseline::oop::boxed;
  int N = State.range(0);
  Engine E;
  std::vector<std::unique_ptr<BoxedSignal>> Wires;
  auto Wire = [&] {
    Wires.push_back(std::make_unique<BoxedSignal>());
    E.track(Wires.back().get());
    return Wires.back().get();
  };
  BoxedSignal *Prev = Wire();
  auto *Src = new BoxedCounterSource(E);
  Src->bindPort("out", Prev);
  E.add(std::unique_ptr<Component>(Src));
  for (int I = 0; I != N; ++I) {
    BoxedSignal *Next = Wire();
    auto *D = new BoxedDelay(0);
    D->bindPort("in", Prev);
    D->bindPort("out", Next);
    E.add(std::unique_ptr<Component>(D));
    Prev = Next;
  }
  auto *Snk = new BoxedSink();
  Snk->bindPort("in", Prev);
  E.add(std::unique_ptr<Component>(Snk));
  E.reset();
  for (auto _ : State)
    E.step(100);
  State.counters["cycles/s"] = benchmark::Counter(
      100.0 * State.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OopBoxedDelayChain)->Arg(10)->Arg(100);

void BM_HandCodedDelayChain(benchmark::State &State) {
  int N = State.range(0);
  int64_t Sum = 0;
  for (auto _ : State)
    Sum += baseline::runHandCodedDelayChain(N, 100);
  benchmark::DoNotOptimize(Sum);
  State.counters["cycles/s"] = benchmark::Counter(
      100.0 * State.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HandCodedDelayChain)->Arg(10)->Arg(100);

void BM_LssCpuModelC(benchmark::State &State) {
  driver::Compiler C;
  driver::CompilerInvocation Inv;
  Inv.Sim = simOptions();
  if (!models::loadModel(C, "C") || !C.elaborate(Inv) || !C.inferTypes(Inv) ||
      !C.buildSimulator(Inv)) {
    State.SkipWithError("model C failed");
    return;
  }
  sim::Simulator *Sim = C.getSimulator();
  for (auto _ : State)
    Sim->step(100);
  State.counters["cycles/s"] = benchmark::Counter(
      100.0 * State.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LssCpuModelC);

/// A model dominated by quiescent combinational logic: one long adder
/// chain fed by a constant (never changes after cycle 0) next to a short
/// active chain fed by a counter (changes every cycle). The selective
/// engine should skip the whole quiet chain every cycle; exhaustive
/// evaluation pays for it regardless.
std::string lowActivitySpec(int QuietN, int ActiveN) {
  return R"(
module addchain {
  parameter n:int;
  inport in: 'a;
  outport out: 'a;
  var as:instance ref[];
  as = new instance[n](adder, "a");
  in -> as[0].in1;
  in -> as[0].in2;
  var i:int;
  for (i = 1; i < n; i = i + 1) {
    as[i-1].out -> as[i].in1;
    in -> as[i].in2;
  }
  as[n-1].out -> out;
};
instance quiet_src:const_source;
quiet_src.value = 3;
instance quiet_chain:addchain;
quiet_chain.n = )" + std::to_string(QuietN) + R"(;
instance quiet_sink:sink;
quiet_src.out -> quiet_chain.in;
quiet_chain.out -> quiet_sink.in;
instance act_src:counter_source;
instance act_chain:addchain;
act_chain.n = )" + std::to_string(ActiveN) + R"(;
instance act_sink:sink;
act_src.out -> act_chain.in;
act_chain.out -> act_sink.in;
)";
}

/// A/B pair for the selective engine: Arg(0) = exhaustive, Arg(1) =
/// selective. The acceptance bar is selective >= 1.3x cycles/s here.
void BM_LssLowActivity(benchmark::State &State) {
  bool Selective = State.range(0) != 0;
  sim::Simulator::Options O;
  O.Engine = Selective ? sim::EngineKind::Selective : sim::EngineKind::Interp;
  auto C = driver::Compiler::compileForSim(
      invocationFor("lowact.lss", lowActivitySpec(200, 8), O));
  if (!C) {
    State.SkipWithError("compile failed");
    return;
  }
  sim::Simulator *Sim = C->getSimulator();
  for (auto _ : State)
    Sim->step(100);
  State.SetLabel(Selective ? "selective=on" : "selective=off");
  State.counters["cycles/s"] = benchmark::Counter(
      100.0 * State.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LssLowActivity)->Arg(0)->Arg(1);

/// A wide, embarrassingly parallel model: \p Lanes independent
/// source->adder->sink strands. ASAP level packing puts all the adders
/// (and all the sources) into one wide schedule level, so this is the
/// wavefront engine's best case and the sweep's scaling workload.
std::string wideLanesSpec(int Lanes) {
  std::string N = std::to_string(Lanes);
  return R"(
module lane {
  outport out: int;
  instance g:counter_source;
  instance a:adder;
  g.out -> a.in1;
  g.out -> a.in2;
  a.out -> out;
};
var lanes:instance ref[];
lanes = new instance[)" + N + R"(](lane, "lane");
instance s:sink;
var i:int;
for (i = 0; i < )" + N + R"(; i = i + 1) {
  lanes[i].out -> s.in[i];
}
)";
}

/// Thread-count scaling on the wide model: Arg = worker threads (1 is the
/// serial interpreter the wavefront engine is measured against).
void BM_LssWideLanes(benchmark::State &State) {
  unsigned Jobs = unsigned(State.range(0));
  sim::Simulator::Options O;
  O.Selective = GSelective;
  O.Jobs = Jobs;
  if (Jobs == 1)
    O.Engine = GSelective ? sim::EngineKind::Selective : sim::EngineKind::Interp;
  auto C = driver::Compiler::compileForSim(
      invocationFor("wide.lss", wideLanesSpec(64), O));
  if (!C) {
    State.SkipWithError("compile failed");
    return;
  }
  sim::Simulator *Sim = C->getSimulator();
  for (auto _ : State)
    Sim->step(100);
  State.SetLabel("jobs=" + std::to_string(Jobs));
  State.counters["cycles/s"] = benchmark::Counter(
      100.0 * State.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LssWideLanes)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_HandCodedPipeline(benchmark::State &State) {
  baseline::PipelineConfig Cfg;
  Cfg.NumInstrs = 1000000000; // Effectively endless; bound by MaxCycles.
  Cfg.MaxCycles = 100;
  Cfg.FetchWidth = 4;
  Cfg.NumFus = 4;
  Cfg.WindowSize = 16;
  uint64_t Sum = 0;
  for (auto _ : State)
    Sum += baseline::runHandCodedPipeline(Cfg).Retired;
  benchmark::DoNotOptimize(Sum);
  State.counters["cycles/s"] = benchmark::Counter(
      100.0 * State.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HandCodedPipeline);

/// Measures steady-state cycles/s for one engine configuration on the
/// wide model: warm up, then run 200-cycle batches until ~0.25 s of wall
/// time has accumulated.
double measureWideLanes(sim::Simulator::Options O) {
  auto C = driver::Compiler::compileForSim(
      invocationFor("wide.lss", wideLanesSpec(64), O));
  if (!C)
    return -1.0;
  sim::Simulator *Sim = C->getSimulator();
  Sim->step(50); // Warmup.
  using Clock = std::chrono::steady_clock;
  uint64_t Cycles = 0;
  auto Start = Clock::now();
  double Elapsed = 0.0;
  while (Elapsed < 0.25) {
    Sim->step(200);
    Cycles += 200;
    Elapsed = std::chrono::duration<double>(Clock::now() - Start).count();
  }
  return double(Cycles) / Elapsed;
}

/// `--sweep [FILE]`: the machine-readable per-engine sweep. One row per
/// engine configuration (the wavefront engine at several thread counts),
/// each with cycles/s and its speedup over the serial interpreter — the
/// baseline every other engine is an optimization of.
int runSweep(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out) {
    std::cerr << "bench_simspeed: cannot write '" << Path << "'\n";
    return 1;
  }
  struct Config {
    sim::EngineKind Engine;
    unsigned Jobs;
  };
  const Config Configs[] = {
      {sim::EngineKind::Interp, 1},    {sim::EngineKind::Selective, 1},
      {sim::EngineKind::Wavefront, 2}, {sim::EngineKind::Wavefront, 4},
      {sim::EngineKind::Wavefront, 8}, {sim::EngineKind::Compiled, 1},
  };
  Out << "{\n  \"model\": \"wide_lanes_64\",\n  \"runs\": [";
  double Serial = 0.0;
  bool First = true;
  for (const Config &Cfg : Configs) {
    sim::Simulator::Options O;
    O.Engine = Cfg.Engine;
    O.Jobs = Cfg.Jobs;
    double Rate = measureWideLanes(O);
    if (Cfg.Engine == sim::EngineKind::Interp)
      Serial = Rate;
    if (!First)
      Out << ",";
    First = false;
    Out << "\n    {\"engine\": \"" << sim::engineName(Cfg.Engine)
        << "\", \"jobs\": " << Cfg.Jobs << ", \"selective\": "
        << (Cfg.Engine == sim::EngineKind::Selective ? "true" : "false")
        << ", \"cycles_per_s\": " << Rate << ", \"speedup_vs_serial\": "
        << (Serial > 0.0 ? Rate / Serial : 0.0) << "}";
    std::cerr << "sweep: engine=" << sim::engineName(Cfg.Engine)
              << " jobs=" << Cfg.Jobs << " -> " << uint64_t(Rate)
              << " cycles/s\n";
  }
  Out << "\n  ]\n}\n";
  std::cerr << "bench_simspeed: wrote " << Path << "\n";
  return 0;
}

} // namespace

// Custom main so the whole suite can be A/B'd with `--sim-engine NAME`
// (or the legacy `--selective on|off` / `--sim-jobs N` aliases, which
// feed the auto engine's resolution rules), and so `--sweep [FILE]` can
// emit the machine-readable per-engine scaling record (all stripped
// before Google Benchmark sees the arguments).
int main(int argc, char **argv) {
  std::vector<char *> Args;
  bool Sweep = false;
  std::string SweepPath = "BENCH_simspeed.json";
  for (int I = 0; I < argc; ++I) {
    if ((std::strcmp(argv[I], "--sim-engine") == 0 ||
         std::strcmp(argv[I], "--engine") == 0) &&
        I + 1 < argc) {
      if (!sim::parseEngineName(argv[I + 1], GEngine)) {
        std::cerr << "bench_simspeed: unknown engine '" << argv[I + 1]
                  << "' (expected interp, selective, wavefront, or "
                     "compiled)\n";
        return 1;
      }
      ++I;
      continue;
    }
    if (std::strcmp(argv[I], "--selective") == 0 && I + 1 < argc) {
      GSelective = std::strcmp(argv[I + 1], "off") != 0;
      ++I;
      continue;
    }
    if (std::strcmp(argv[I], "--sim-jobs") == 0 && I + 1 < argc) {
      GSimJobs = unsigned(std::strtoul(argv[I + 1], nullptr, 10));
      if (GSimJobs == 0)
        GSimJobs = 1;
      ++I;
      continue;
    }
    if (std::strcmp(argv[I], "--sweep") == 0) {
      Sweep = true;
      if (I + 1 < argc && argv[I + 1][0] != '-') {
        SweepPath = argv[I + 1];
        ++I;
      }
      continue;
    }
    Args.push_back(argv[I]);
  }
  if (Sweep)
    return runSweep(SweepPath);
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
