//===- InProcess.cpp - paper_sim, delayn_elab and quiet_sim ---------------===//
///
/// The three in-process workloads share one operation: compile an input
/// cold through the stages a user runs (addSources -> elaborate ->
/// inferTypes -> buildSimulator), step it a fixed number of cycles, and
/// read its outputs. A pass runs every input of the workload once, in a
/// seeded order; the run repeats passes until its time is up and reports
/// medians over them.
///
/// The traced mode alternates untraced and traced passes (their difference
/// is the tracing overhead), then re-runs every input on the interp and
/// compiled engines: the interp engine is re-checked against the expected
/// outputs, with instrumentation counters attached, and both engines'
/// cycle rates are reported.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"

#include "baseline/HandCodedSim.h"
#include "driver/Compiler.h"
#include "driver/DaemonProtocol.h"
#include "sim/CompiledKernel.h"

#include <cmath>
#include <fstream>
#include <sstream>

using namespace liberty;
using driver::Json;

namespace lssbench {
namespace {

/// Peak memory is read after this many passes, so that it measures a
/// fixed amount of work rather than however many passes the host's speed
/// allowed.
constexpr size_t RssPasses = 3;

/// Everything one operation measured and observed.
struct OpRecord {
  std::string Name;
  bool Ok = false;
  std::string Error;
  double ParseMs = 0, ElabMs = 0, InferMs = 0, BuildMs = 0, StepMs = 0;
  double CompileMs = 0; ///< Text -> simulator ready.
  double TotalMs = 0;   ///< Text -> N cycles stepped and outputs read.
  uint64_t Cycles = 0;
  size_t Bytes = 0;
  unsigned Instances = 0;
  uint64_t Constraints = 0, UnifySteps = 0, BranchPoints = 0;
  uint64_t LeafEvals = 0, NetWrites = 0, GroupsSkipped = 0,
           GroupsEvaluated = 0;
  unsigned KernelOps = 0, KernelGeneric = 0;
  /// (key, value) pairs in instance order: each sink's receive count and
  /// the value on each of its inputs after the last cycle.
  std::vector<std::pair<std::string, std::string>> Outputs;
  /// Instrumentation counts; only filled when counters were attached.
  uint64_t EventsReceived = 0, EventsRetire = 0;
  /// delayn only: the values the hand-coded oracle is checked against.
  int64_t TapValue = 0, SinkValue = 0;
  bool HaveDelayValues = false;

  double cyclesPerS() const { return StepMs > 0 ? Cycles / StepMs * 1e3 : 0; }
};

void observeSinks(driver::Compiler &C, sim::Simulator &Sim, OpRecord &R) {
  for (const auto &I : C.getNetlist()->getInstances()) {
    if (I->ModuleName != "sink")
      continue;
    const interp::Value *Count = Sim.findState(I->Path, "received");
    R.Outputs.push_back(
        {I->Path + ".received",
         Count && Count->isInt() ? std::to_string(Count->getInt()) : "0"});
    const netlist::Port *P = I->findPort("in");
    for (int K = 0; P && K < P->Width; ++K) {
      const interp::Value *V = Sim.peekPort(I->Path, "in", K);
      R.Outputs.push_back({I->Path + ".in[" + std::to_string(K) + "]",
                           V ? V->str() : "absent"});
    }
  }
}

/// The delayn oracle reads two points of the chain: a tap inside the
/// prefix the counter has already filled, and the chain's last stage.
int delaynTap(uint64_t Cycles, int N) {
  return std::min<int>(int(Cycles / 2), N);
}

void observeDelayn(sim::Simulator &Sim, int N, uint64_t Cycles,
                   OpRecord &R) {
  auto Read = [&](int Stage, int64_t &Out) {
    const interp::Value *V = Sim.peekPort(
        "chain.delays[" + std::to_string(Stage - 1) + "]", "out", 0);
    if (!V || !V->isInt())
      return false;
    Out = V->getInt();
    return true;
  };
  R.HaveDelayValues =
      Read(delaynTap(Cycles, N), R.TapValue) && Read(N, R.SinkValue);
}

/// One operation. \p Engine Auto keeps the default Simulator::Options{};
/// the benchmark never sets any other simulator option.
OpRecord runOp(const SimInput &In, Tracer *T, sim::EngineKind Engine,
               bool CountEvents, int DelaynN) {
  OpRecord R;
  R.Name = In.Name;
  R.Cycles = In.Cycles;
  R.Bytes = In.sourceBytes();
  Scope Op(T, ("#op " + In.Name).c_str());
  driver::CompilerInvocation Inv = In.invocation();
  if (Engine != sim::EngineKind::Auto)
    Inv.Sim.Engine = Engine;

  auto T0 = Clock::now();
  {
    driver::Compiler C;
    bool Ok;
    {
      Scope S(T, "lss:Compiler::addSources");
      Ok = C.addSources(Inv);
    }
    auto T1 = Clock::now();
    if (Ok) {
      Scope S(T, "interp:Compiler::elaborate");
      Ok = C.elaborate(Inv);
    }
    auto T2 = Clock::now();
    if (Ok) {
      Scope S(T, "infer:Compiler::inferTypes");
      Ok = C.inferTypes(Inv);
    }
    auto T3 = Clock::now();
    sim::Simulator *Sim = nullptr;
    if (Ok) {
      Scope S(T, "sim:Compiler::buildSimulator");
      Sim = C.buildSimulator(Inv);
    }
    auto T4 = Clock::now();
    if (!Sim) {
      R.Error = "compile failed: " + C.diagnosticsText();
      return R;
    }
    uint64_t *Received = nullptr, *Retire = nullptr;
    if (CountEvents) {
      Received = &Sim->getInstrumentation().attachCounter("*", "received");
      Retire = &Sim->getInstrumentation().attachCounter("*", "retire");
    }
    {
      // One span for the whole stepping loop: a span per step() call would
      // cost more than a quiescent cycle does.
      Scope S(T, "sim:Simulator::step");
      Sim->step(In.Cycles);
    }
    auto T5 = Clock::now();
    if (Sim->hadRuntimeErrors()) {
      R.Error = "runtime error: " + C.diagnosticsText();
      return R;
    }
    if (DelaynN > 0)
      observeDelayn(*Sim, DelaynN, In.Cycles, R);
    else
      observeSinks(C, *Sim, R);
    if (CountEvents) {
      R.EventsReceived = *Received;
      R.EventsRetire = *Retire;
    }

    R.ParseMs = msBetween(T0, T1);
    R.ElabMs = msBetween(T1, T2);
    R.InferMs = msBetween(T2, T3);
    R.BuildMs = msBetween(T3, T4);
    R.StepMs = msBetween(T4, T5);
    R.CompileMs = msBetween(T0, T4);
    R.Instances = unsigned(C.getNetlist()->getInstances().size() - 1);
    const infer::SolveStats &SS = C.getInferenceStats().Solve;
    R.Constraints = SS.NumConstraints;
    R.UnifySteps = SS.UnifySteps;
    R.BranchPoints = SS.BranchPoints;
    const sim::ActivityStats &A = Sim->getActivityStats();
    R.LeafEvals = A.LeafEvals;
    R.NetWrites = A.NetWrites;
    R.GroupsSkipped = A.GroupsSkipped;
    R.GroupsEvaluated = A.GroupsEvaluated;
    if (const sim::KernelStats *K = Sim->getKernelStats()) {
      R.KernelOps = K->NumOps;
      R.KernelGeneric = K->NumGenericOps;
    }
    R.Ok = true;
  }
  // The Compiler's teardown belongs to the operation a user waits for.
  R.TotalMs = msBetween(T0, Clock::now());
  return R;
}

/// Where each workload's outputs are checked against.
class Oracle {
public:
  /// Loads the expected-output file section for paper_sim / quiet_sim.
  bool loadExpected(const std::string &Path, const std::string &Section,
                    std::string &Err) {
    std::ifstream In(Path);
    if (!In) {
      Err = "cannot read expected-output file " + Path;
      return false;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    Json Doc;
    if (!Json::parse(SS.str(), Doc, &Err))
      return false;
    const Json *S = Doc.get(Section);
    if (!S || !S->isObject()) {
      Err = "expected-output file has no '" + Section + "' section";
      return false;
    }
    Expected = *S;
    return true;
  }

  /// Checks \p R; returns an empty string when it matches.
  std::string check(const OpRecord &R, int DelaynN, bool WithEvents) const {
    if (!R.Ok)
      return R.Name + ": " + R.Error;
    if (DelaynN > 0) {
      if (!R.HaveDelayValues)
        return R.Name + ": chain outputs absent";
      int Tap = delaynTap(R.Cycles, DelaynN);
      int64_t WantTap = baseline::runHandCodedDelayChain(Tap, R.Cycles);
      int64_t WantSink = baseline::runHandCodedDelayChain(DelaynN, R.Cycles);
      if (R.TapValue != WantTap || R.SinkValue != WantSink)
        return R.Name + ": stage " + std::to_string(Tap) + "/" +
               std::to_string(DelaynN) + " read " +
               std::to_string(R.TapValue) + "/" + std::to_string(R.SinkValue) +
               ", hand-coded chain gives " + std::to_string(WantTap) + "/" +
               std::to_string(WantSink);
      return "";
    }
    const Json *E = Expected.get(R.Name);
    if (!E)
      return R.Name + ": no expected outputs recorded";
    if (E->getU64("cycles") != R.Cycles)
      return R.Name + ": expected outputs were recorded at another cycle "
                      "count";
    const std::vector<Json> &Want = E->get("outputs")
                                        ? E->get("outputs")->items()
                                        : std::vector<Json>();
    if (Want.size() != R.Outputs.size())
      return R.Name + ": " + std::to_string(R.Outputs.size()) +
             " outputs observed, " + std::to_string(Want.size()) +
             " expected";
    for (size_t I = 0; I != Want.size(); ++I) {
      const std::vector<Json> &Pair = Want[I].items();
      if (Pair.size() != 2 || Pair[0].asString() != R.Outputs[I].first ||
          Pair[1].asString() != R.Outputs[I].second)
        return R.Name + ": " + R.Outputs[I].first + " = " +
               R.Outputs[I].second + ", expected " + Want[I].dump();
    }
    if (WithEvents) {
      const Json *Ev = E->get("events");
      if (!Ev || Ev->getU64("received") != R.EventsReceived ||
          Ev->getU64("retire") != R.EventsRetire)
        return R.Name + ": instrumentation counts received=" +
               std::to_string(R.EventsReceived) +
               " retire=" + std::to_string(R.EventsRetire) +
               " differ from the expected " + (Ev ? Ev->dump() : "(none)");
    }
    return "";
  }

private:
  Json Expected = Json::object();
};

/// A workload: its inputs (in canonical order) and how to check them.
struct Workload {
  std::vector<SimInput> Inputs;
  /// Per input: the delayn chain length, or 0 for sink-observed inputs.
  std::vector<int> DelaynN;
  /// Report per-input metrics as model.<id>.* (paper_sim).
  bool PerModel = false;
  Oracle Check;
  bool Sinks = true;
};

Json outputsJson(const OpRecord &R) {
  Json Out = Json::array();
  for (const auto &[K, V] : R.Outputs)
    Out.push(Json::array().push(K).push(V));
  return Out;
}

double sumOf(const std::vector<OpRecord> &Ops, double OpRecord::*Field) {
  double S = 0;
  for (const OpRecord &R : Ops)
    S += R.*Field;
  return S;
}

/// One input's values over passes.
std::vector<double>
inputValues(const std::vector<std::vector<OpRecord>> &Passes,
            const std::string &Name, double (*Get)(const OpRecord &)) {
  std::vector<double> V;
  for (const auto &P : Passes)
    for (const OpRecord &R : P)
      if (R.Name == Name)
        V.push_back(Get(R));
  return V;
}

double inputMedian(const std::vector<std::vector<OpRecord>> &Passes,
                   const std::string &Name,
                   double (*Get)(const OpRecord &)) {
  return median(inputValues(Passes, Name, Get));
}

bool makeWorkload(const RunConfig &Cfg, Workload &W, std::string &Err) {
  if (Cfg.Workload == "paper_sim") {
    W.Inputs = paperModels(Cfg.RepoRoot);
    if (W.Inputs.empty()) {
      Err = "cannot read the models under " + Cfg.RepoRoot + "/models";
      return false;
    }
    W.PerModel = true;
    W.DelaynN.assign(W.Inputs.size(), 0);
    return W.Check.loadExpected(Cfg.ExpectedPath, "paper_sim", Err);
  }
  if (Cfg.Workload == "delayn_elab") {
    W.Inputs = delaynInputs(Cfg.Seed);
    for (int N : DelaynSizes)
      W.DelaynN.push_back(N);
    W.Sinks = false;
    return true;
  }
  W.Inputs = {quietFarm(quietVariantForSeed(Cfg.Seed))};
  W.DelaynN = {0};
  return W.Check.loadExpected(Cfg.ExpectedPath, "quiet_sim", Err);
}

} // namespace

double setupProbe(const RunConfig &Cfg) {
  Workload W;
  std::string Err;
  if (!makeWorkload(Cfg, W, Err))
    return -1;
  auto T0 = Clock::now();
  driver::CompilerInvocation Inv = W.Inputs.front().invocation();
  if (!driver::Compiler::compileForSim(Inv))
    return -1;
  return msBetween(T0, Clock::now());
}

RunResult runInProcess(const RunConfig &Cfg) {
  RunResult Res;
  Workload W;
  std::string Err;
  if (!makeWorkload(Cfg, W, Err)) {
    Res.mismatch(Err);
    return Res;
  }
  size_t NumInputs = W.Inputs.size();
  auto delaynOf = [&](const std::string &Name) {
    for (size_t I = 0; I != NumInputs; ++I)
      if (W.Inputs[I].Name == Name)
        return W.DelaynN[I];
    return 0;
  };

  Rng Order(Cfg.Seed);
  Tracer Trace(Clock::now());
  std::vector<std::vector<OpRecord>> Untraced, Traced;
  std::vector<double> UntracedPassMs, TracedPassMs, OpMs, PassRate;
  double PeakRss = 0;

  auto Deadline = Clock::now() + std::chrono::duration<double>(Cfg.Seconds);
  const size_t MinPasses = Cfg.Trace ? 4 : RssPasses;
  for (size_t Pass = 0;
       Pass < MinPasses || Clock::now() < Deadline; ++Pass) {
    bool TracedPass = Cfg.Trace && Pass % 2 == 1;
    Tracer *T = TracedPass ? &Trace : nullptr;
    std::vector<SimInput> Inputs = W.Inputs;
    Order.shuffle(Inputs);
    std::vector<OpRecord> Ops;
    auto P0 = Clock::now();
    {
      Scope PassSpan(T, "#pass");
      for (const SimInput &In : Inputs)
        Ops.push_back(
            runOp(In, T, sim::EngineKind::Auto, false, delaynOf(In.Name)));
    }
    double PassMs = msBetween(P0, Clock::now());
    for (const OpRecord &R : Ops) {
      ++Res.Attempted;
      if (!R.Ok)
        ++Res.Failed;
      std::string Bad = W.Check.check(R, delaynOf(R.Name), false);
      if (!Bad.empty())
        Res.mismatch(Bad);
      OpMs.push_back(R.TotalMs);
    }
    if (TracedPass) {
      TracedPassMs.push_back(PassMs);
      Traced.push_back(std::move(Ops));
    } else {
      UntracedPassMs.push_back(PassMs);
      size_t Completed = 0;
      for (const OpRecord &R : Ops)
        Completed += R.Ok;
      PassRate.push_back(double(Completed) / (PassMs / 1e3));
      Untraced.push_back(std::move(Ops));
      if (Untraced.size() == RssPasses)
        PeakRss = peakRssMb("self");
    }
  }

  Metrics &M = Res.M;
  if (!Cfg.Trace) {
    std::vector<double> Compile, Rate;
    for (const SimInput &In : W.Inputs) {
      // The mean, not the median: compile times are bimodal on a shared
      // host (boosted and sustained clock phases), and the median of a
      // bimodal sample jumps between the modes from run to run.
      std::vector<double> V = inputValues(
          Untraced, In.Name, [](const OpRecord &R) { return R.CompileMs; });
      double Sum = 0;
      for (double X : V)
        Sum += X;
      Compile.push_back(Sum / double(V.size()));
      Rate.push_back(inputMedian(Untraced, In.Name, [](const OpRecord &R) {
        return R.cyclesPerS();
      }));
    }
    M.set("run_s", median(UntracedPassMs) / 1e3, "s");
    M.set("compile_ms", geomean(Compile), "ms");
    M.set("sim_cycles_per_s", geomean(Rate), "cycles/s");
    M.set("req_p50_ms", quantile(OpMs, 0.5), "ms");
    M.set("req_p95_ms", quantile(OpMs, 0.95), "ms");
    // The rate a typical pass sustains: the median over passes.
    M.set("req_per_s", median(PassRate), "requests/s");
    M.set("peak_rss_mb", PeakRss, "MB");
    Res.Facts["passes"] = double(UntracedPassMs.size());
    Res.Facts["requests"] = double(OpMs.size());
    Res.Facts["req_p95_samples_beyond"] =
        std::floor(0.05 * double(OpMs.size()));
    return Res;
  }

  // Traced mode: the per-layer table.
  size_t NumSpansInPasses = Trace.spans().size();
  auto passMedian = [&](double OpRecord::*Field) {
    std::vector<double> V;
    for (const auto &P : Traced)
      V.push_back(sumOf(P, Field));
    return median(V);
  };
  auto passSum = [&](auto Get) {
    double S = 0;
    for (const OpRecord &R : Traced.front())
      S += double(Get(R));
    return S;
  };
  double ParseMs = passMedian(&OpRecord::ParseMs);
  double ElabMs = passMedian(&OpRecord::ElabMs);
  double Bytes = passSum([](const OpRecord &R) { return R.Bytes; });
  double Instances = passSum([](const OpRecord &R) { return R.Instances; });
  double Cycles = passSum([](const OpRecord &R) { return R.Cycles; });
  M.set("lss.parse_ms", ParseMs, "ms");
  M.set("lss.bytes_per_ms", Bytes / ParseMs, "B/ms");
  M.set("interp.elaborate_ms", ElabMs, "ms");
  M.set("interp.instances_per_ms", Instances / ElabMs, "1/ms");
  M.set("infer.infer_ms", passMedian(&OpRecord::InferMs), "ms");
  M.set("infer.constraints",
        passSum([](const OpRecord &R) { return R.Constraints; }), "count");
  M.set("infer.unify_steps",
        passSum([](const OpRecord &R) { return R.UnifySteps; }), "count");
  M.set("infer.branch_points",
        passSum([](const OpRecord &R) { return R.BranchPoints; }), "count");
  M.set("sim.build_ms", passMedian(&OpRecord::BuildMs), "ms");
  M.set("sim.step_ms", passMedian(&OpRecord::StepMs), "ms");
  M.set("sim.leaf_evals_per_cycle",
        passSum([](const OpRecord &R) { return R.LeafEvals; }) / Cycles,
        "count");
  M.set("sim.net_writes_per_cycle",
        passSum([](const OpRecord &R) { return R.NetWrites; }) / Cycles,
        "count");
  double Skipped = passSum([](const OpRecord &R) { return R.GroupsSkipped; });
  double Evaluated =
      passSum([](const OpRecord &R) { return R.GroupsEvaluated; });
  M.set("sim.skip_share", Skipped / (Skipped + Evaluated), "share");

  std::vector<double> DefaultRate;
  for (size_t I = 0; I != NumInputs; ++I) {
    const std::string &Name = W.Inputs[I].Name;
    double Rate = inputMedian(Traced, Name, [](const OpRecord &R) {
      return R.cyclesPerS();
    });
    DefaultRate.push_back(Rate);
    if (W.PerModel) {
      std::string P = "model." + Name + ".";
      M.set(P + "sim.cycles_per_s.default", Rate, "cycles/s");
      M.set(P + "interp.elaborate_ms",
            inputMedian(Traced, Name,
                        [](const OpRecord &R) { return R.ElabMs; }),
            "ms");
      M.set(P + "sim.build_ms",
            inputMedian(Traced, Name,
                        [](const OpRecord &R) { return R.BuildMs; }),
            "ms");
    } else if (W.DelaynN[I] > 0) {
      std::string P = Name + ".";
      double Elab = inputMedian(Traced, Name,
                                [](const OpRecord &R) { return R.ElabMs; });
      double Inst = inputMedian(Traced, Name, [](const OpRecord &R) {
        return double(R.Instances);
      });
      M.set(P + "sim.cycles_per_s.default", Rate, "cycles/s");
      M.set(P + "interp.elaborate_ms", Elab, "ms");
      M.set(P + "interp.instances_per_ms", Inst / Elab, "1/ms");
    }
  }
  M.set("sim.cycles_per_s.default", geomean(DefaultRate), "cycles/s");

  // Self time per layer, per traced pass, and how much of the pass the
  // layer spans account for.
  double LayerMsSum = 0, PassMsSum = 0;
  for (const auto &[Layer, Ms] : selfTimeByLayer(Trace.spans())) {
    M.set("self." + Layer + "_ms", Ms / double(Traced.size()), "ms");
    LayerMsSum += Ms;
  }
  for (double Ms : TracedPassMs)
    PassMsSum += Ms;
  double Coverage = LayerMsSum / PassMsSum;
  M.set("trace.coverage", Coverage, "share");
  M.set("trace.run_s", median(TracedPassMs) / 1e3, "s");
  M.set("trace.untraced_run_s", median(UntracedPassMs) / 1e3, "s");
  M.set("trace.overhead_s",
        (median(TracedPassMs) - median(UntracedPassMs)) / 1e3, "s");
  if (Coverage < 0.9)
    Res.mismatch("layer spans cover " + std::to_string(Coverage) +
                 " of run_s, below the required 0.9");

  // The engine matrix: interp (the simulation oracle) and compiled, each
  // once for its cycle rate and, where the expected file records them,
  // once more with instrumentation counters attached.
  std::vector<double> InterpRate, CompiledRate;
  double KernelOps = 0, KernelGeneric = 0;
  for (size_t I = 0; I != NumInputs; ++I) {
    const SimInput &In = W.Inputs[I];
    int N = W.DelaynN[I];
    for (sim::EngineKind E :
         {sim::EngineKind::Interp, sim::EngineKind::Compiled}) {
      OpRecord R = runOp(In, &Trace, E, false, N);
      ++Res.Attempted;
      if (!R.Ok)
        ++Res.Failed;
      std::string Bad = W.Check.check(R, N, false);
      if (!Bad.empty())
        Res.mismatch(std::string(sim::engineName(E)) + " engine: " + Bad);
      if (W.Sinks) {
        OpRecord Ev = runOp(In, &Trace, E, true, N);
        ++Res.Attempted;
        if (!Ev.Ok)
          ++Res.Failed;
        Bad = W.Check.check(Ev, N, true);
        if (!Bad.empty())
          Res.mismatch(std::string(sim::engineName(E)) +
                       " engine with counters: " + Bad);
      }
      bool Interp = E == sim::EngineKind::Interp;
      (Interp ? InterpRate : CompiledRate).push_back(R.cyclesPerS());
      std::string P = W.PerModel ? "model." + In.Name + "." : "";
      if (!P.empty())
        M.set(P + "sim.cycles_per_s." + (Interp ? "interp" : "compiled"),
              R.cyclesPerS(), "cycles/s");
      if (!Interp) {
        KernelOps += R.KernelOps;
        KernelGeneric += R.KernelGeneric;
        if (!P.empty())
          M.set(P + "sim.kernel_generic_share",
                double(R.KernelGeneric) / R.KernelOps, "share");
      }
    }
  }
  M.set("sim.cycles_per_s.interp", geomean(InterpRate), "cycles/s");
  M.set("sim.cycles_per_s.compiled", geomean(CompiledRate), "cycles/s");
  M.set("sim.kernel_ops", KernelOps, "count");
  M.set("sim.kernel_generic_share", KernelGeneric / KernelOps, "share");
  Res.Facts["traced_passes"] = double(Traced.size());
  Res.Facts["untraced_passes"] = double(Untraced.size());
  Res.Facts["spans_in_passes"] = double(NumSpansInPasses);
  Res.Spans = std::move(Trace.spans());
  return Res;
}

int recordExpected(const RunConfig &Cfg) {
  Json Doc = Json::object();
  Doc.set("recorded_with", "interp engine, instrumentation counters on");
  Json Paper = Json::object();
  std::vector<SimInput> Models = paperModels(Cfg.RepoRoot);
  if (Models.empty())
    return 1;
  std::vector<SimInput> Quiet;
  for (unsigned V = 0; V != QuietVariants; ++V)
    Quiet.push_back(quietFarm(V));
  Json QuietJ = Json::object();
  for (auto *Set : {&Models, &Quiet}) {
    for (const SimInput &In : *Set) {
      OpRecord R = runOp(In, nullptr, sim::EngineKind::Interp, true, 0);
      if (!R.Ok) {
        std::fprintf(stderr, "lssbench: %s: %s\n", In.Name.c_str(),
                     R.Error.c_str());
        return 1;
      }
      Json E = Json::object();
      E.set("cycles", R.Cycles);
      E.set("outputs", outputsJson(R));
      E.set("events", Json::object()
                          .set("received", R.EventsReceived)
                          .set("retire", R.EventsRetire));
      (Set == &Models ? Paper : QuietJ).set(In.Name, std::move(E));
    }
  }
  Doc.set("paper_sim", std::move(Paper));
  Doc.set("quiet_sim", std::move(QuietJ));
  std::ofstream Out(Cfg.ExpectedPath);
  Out << Doc.dump() << "\n";
  return Out ? 0 : 1;
}

} // namespace lssbench
