//===- Bench.h - Shared pieces of the lssbench binary -----------*- C++ -*-===//
///
/// \file
/// The run configuration, the metric table a run fills, the in-memory span
/// recorder of the traced mode, and the order statistics every workload
/// reports with. Spans are recorded here, around calls into the program's
/// public entry points; nothing inside the program is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef LSSBENCH_BENCH_H
#define LSSBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lssbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// One invocation of the benchmark.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string RepoRoot = ".";  ///< Where models/ lives.
  std::string WorkDir;         ///< Scratch space (cache dirs, sockets).
  std::string LssdPath;        ///< The lssd binary (edit_loop).
  std::string SelfPath;        ///< This binary (setup probes).
  std::string ExpectedPath;    ///< Expected-output file (paper/quiet).
};

/// Every metric a run produced, by name. run.py keeps the ones
/// BENCHMARK.json lists; the results file keeps them all.
class Metrics {
public:
  void set(const std::string &Name, double Value, const std::string &Unit) {
    Values[Name] = {Value, Unit};
  }
  struct Entry {
    double Value = 0;
    std::string Unit;
  };
  const std::map<std::string, Entry> &all() const { return Values; }

private:
  std::map<std::string, Entry> Values;
};

/// In-memory span recorder. A span has a name, start and end, the span
/// that was open when it began (its parent), and for daemon requests the
/// request id shared by the client span and the server-reported queue and
/// service intervals. One Tracer per thread; merge() joins them at the
/// end. A null Tracer* means tracing is off, and every helper is a no-op.
class Tracer {
public:
  struct Span {
    std::string Name;
    double StartMs = 0, EndMs = 0; ///< Since the tracer's epoch.
    int Parent = -1;
    int64_t RequestId = -1;
    unsigned Thread = 0;
  };

  explicit Tracer(Clock::time_point Epoch, unsigned Thread = 0)
      : Epoch(Epoch), Thread(Thread) {}

  int begin(std::string Name, int64_t RequestId = -1) {
    Span S;
    S.Name = std::move(Name);
    S.StartMs = msBetween(Epoch, Clock::now());
    S.Parent = Open.empty() ? -1 : Open.back();
    S.RequestId = RequestId;
    S.Thread = Thread;
    Spans.push_back(std::move(S));
    Open.push_back(int(Spans.size()) - 1);
    return Open.back();
  }
  void end(int Id) {
    Spans[Id].EndMs = msBetween(Epoch, Clock::now());
    if (!Open.empty() && Open.back() == Id)
      Open.pop_back();
  }
  /// Records an interval measured elsewhere (the daemon's queue and
  /// service times) as a closed child of \p Parent.
  void addClosed(std::string Name, int Parent, double StartMs, double EndMs,
                 int64_t RequestId) {
    Span S;
    S.Name = std::move(Name);
    S.StartMs = StartMs;
    S.EndMs = EndMs;
    S.Parent = Parent;
    S.RequestId = RequestId;
    S.Thread = Thread;
    Spans.push_back(std::move(S));
  }
  /// Appends \p Other's spans, rebasing their parent indices.
  void merge(const Tracer &Other) {
    int Base = int(Spans.size());
    for (Span S : Other.Spans) {
      if (S.Parent >= 0)
        S.Parent += Base;
      Spans.push_back(std::move(S));
    }
  }
  const std::vector<Span> &spans() const { return Spans; }
  std::vector<Span> &spans() { return Spans; }

private:
  Clock::time_point Epoch;
  unsigned Thread;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// RAII span over a call; does nothing when \p T is null.
class Scope {
public:
  Scope(Tracer *T, const char *Name, int64_t RequestId = -1)
      : T(T), Id(T ? T->begin(Name, RequestId) : -1) {}
  ~Scope() {
    if (T)
      T->end(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer *T;
  int Id;
};

/// What a workload hands back to main().
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Mismatches; ///< One line per wrong output.
  Metrics M;
  /// Free-form facts for the results file (sample counts, sizes).
  std::map<std::string, double> Facts;
  /// The traced mode's spans, written out when the run ends.
  std::vector<Tracer::Span> Spans;

  void mismatch(std::string What) {
    Correct = false;
    if (Mismatches.size() < 20)
      Mismatches.push_back(std::move(What));
  }
};

/// The layer a span name belongs to: the text before the first ':' of
/// its name ("sim:Simulator::step" -> "sim"), or "" for grouping spans
/// (passes, operations) that are not a layer.
std::string layerOf(const std::string &SpanName);

/// Per-layer self time (span duration minus the part its children cover),
/// summed over \p Spans, in ms.
std::map<std::string, double>
selfTimeByLayer(const std::vector<Tracer::Span> &Spans);

/// Writes \p Spans as a Chrome trace-event JSON file.
bool writeSpans(const std::string &Path,
                const std::vector<Tracer::Span> &Spans);

// Order statistics. All take their input by value and sort a copy.
double median(std::vector<double> V);
/// Linear-interpolated quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);

/// Deterministic 64-bit stream (splitmix64) for seeded input generation.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// A value in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

/// Sets every per-layer metric the run did not produce to 0, so each
/// traced run reports the whole table; a layer a workload does not
/// exercise reads 0.
void addMissingLayerMetrics(Metrics &M);

/// Peak resident set so far of a process ("self" or a pid), in MB; 0 when
/// the process is gone.
double peakRssMb(const std::string &Process);

// Workloads. Each runs its measured loop for Cfg.Seconds and fills a
// RunResult: end-to-end metrics untraced, per-layer metrics when
// Cfg.Trace is set.
/// paper_sim, delayn_elab and quiet_sim.
RunResult runInProcess(const RunConfig &Cfg);
RunResult runEditLoop(const RunConfig &Cfg);

/// The in-process workloads' one-time setup, timed in a fresh process:
/// the process's first compile of the workload's first input. Returns
/// milliseconds, or a negative value on failure.
double setupProbe(const RunConfig &Cfg);

/// Records the interp engine's outputs for paper_sim and quiet_sim into
/// the expected-output file (lssbench --record-expected).
int recordExpected(const RunConfig &Cfg);

} // namespace lssbench

#endif // LSSBENCH_BENCH_H
