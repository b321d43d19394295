//===- Bench.cpp - Span bookkeeping and order statistics ------------------===//

#include "Bench.h"
#include "Inputs.h"

#include "driver/DaemonProtocol.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <cstdlib>

namespace lssbench {

std::string layerOf(const std::string &SpanName) {
  if (SpanName.empty() || SpanName[0] == '#')
    return "";
  return SpanName.substr(0, SpanName.find(':'));
}

std::map<std::string, double>
selfTimeByLayer(const std::vector<Tracer::Span> &Spans) {
  std::vector<double> ChildMs(Spans.size(), 0.0);
  for (const Tracer::Span &S : Spans)
    if (S.Parent >= 0)
      ChildMs[S.Parent] += S.EndMs - S.StartMs;
  std::map<std::string, double> Self;
  for (size_t I = 0; I != Spans.size(); ++I) {
    std::string Layer = layerOf(Spans[I].Name);
    if (Layer.empty())
      continue;
    double Ms = Spans[I].EndMs - Spans[I].StartMs - ChildMs[I];
    Self[Layer] += std::max(Ms, 0.0);
  }
  return Self;
}

bool writeSpans(const std::string &Path,
                const std::vector<Tracer::Span> &Spans) {
  using liberty::driver::Json;
  Json Events = Json::array();
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Tracer::Span &S = Spans[I];
    Events.push(Json::object()
                    .set("name", S.Name)
                    .set("ph", "X")
                    .set("pid", 1)
                    .set("tid", uint64_t(S.Thread))
                    .set("ts", S.StartMs * 1e3)
                    .set("dur", (S.EndMs - S.StartMs) * 1e3)
                    .set("args", Json::object()
                                     .set("id", uint64_t(I))
                                     .set("parent", S.Parent)
                                     .set("request_id", double(S.RequestId))));
  }
  std::ofstream Out(Path);
  Out << Json::object().set("traceEvents", std::move(Events)).dump() << "\n";
  return bool(Out);
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  if (Lo + 1 >= V.size())
    return V.back();
  return V[Lo] + (Pos - double(Lo)) * (V[Lo + 1] - V[Lo]);
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

void addMissingLayerMetrics(Metrics &M) {
  auto add = [&M](const std::string &Name, const char *Unit) {
    if (!M.all().count(Name))
      M.set(Name, 0, Unit);
  };
  static const std::pair<const char *, const char *> Table[] = {
      {"lss.parse_ms", "ms"},
      {"lss.bytes_per_ms", "B/ms"},
      {"interp.elaborate_ms", "ms"},
      {"interp.instances_per_ms", "1/ms"},
      {"infer.infer_ms", "ms"},
      {"infer.constraints", "count"},
      {"infer.unify_steps", "count"},
      {"infer.branch_points", "count"},
      {"sim.build_ms", "ms"},
      {"sim.kernel_ops", "count"},
      {"sim.kernel_generic_share", "share"},
      {"sim.step_ms", "ms"},
      {"sim.cycles_per_s.default", "cycles/s"},
      {"sim.cycles_per_s.compiled", "cycles/s"},
      {"sim.cycles_per_s.interp", "cycles/s"},
      {"sim.leaf_evals_per_cycle", "count"},
      {"sim.net_writes_per_cycle", "count"},
      {"sim.skip_share", "share"},
      {"netlist.serialize_ms", "ms"},
      {"netlist.deserialize_ms", "ms"},
      {"netlist.artifact_bytes", "B"},
      {"driver.hot_compile_ms", "ms"},
      {"driver.incremental_ms", "ms"},
      {"driver.cache_hit_ratio", "share"},
      {"driver.modules_reelaborated", "count"},
      {"driver.groups_resolved", "count"},
      {"driver.groups_spliced", "count"},
      {"lssd.queue_p50_ms", "ms"},
      {"lssd.queue_p95_ms", "ms"},
      {"lssd.service_p50_ms", "ms"},
      {"lssd.wire_ms", "ms"},
      {"lssd.hot_p50_ms", "ms"},
      {"lssd.incr_p50_ms", "ms"},
      {"lssd.cold_p50_ms", "ms"},
      {"self.lss_ms", "ms"},
      {"self.interp_ms", "ms"},
      {"self.infer_ms", "ms"},
      {"self.sim_ms", "ms"},
      {"self.netlist_ms", "ms"},
      {"self.driver_ms", "ms"},
      {"self.lssd_ms", "ms"},
      {"trace.coverage", "share"},
      {"trace.overhead_s", "s"},
      {"trace.run_s", "s"},
      {"trace.untraced_run_s", "s"},
  };
  for (const auto &[Name, Unit] : Table)
    add(Name, Unit);
  for (const char *Id : {"A", "B", "C", "D", "E", "F"}) {
    std::string P = std::string("model.") + Id + ".";
    add(P + "interp.elaborate_ms", "ms");
    add(P + "sim.build_ms", "ms");
    add(P + "sim.cycles_per_s.default", "cycles/s");
    add(P + "sim.cycles_per_s.compiled", "cycles/s");
    add(P + "sim.cycles_per_s.interp", "cycles/s");
    add(P + "sim.kernel_generic_share", "share");
  }
  for (int N : DelaynSizes) {
    std::string P = (std::string("n") += std::to_string(N)) += ".";
    add(P + "interp.elaborate_ms", "ms");
    add(P + "interp.instances_per_ms", "1/ms");
    add(P + "sim.cycles_per_s.default", "cycles/s");
  }
}

double peakRssMb(const std::string &Process) {
  std::ifstream In("/proc/" + Process + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0; // Reported in kB.
  return 0;
}

} // namespace lssbench
