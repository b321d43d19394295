//===- main.cpp - lssbench: the repository benchmark ----------------------===//
///
/// Usage (normally through run.py, which builds this first):
///
///   lssbench --workload W --seed N --seconds S --trace 0|1
///            --repo-root DIR --work-dir DIR --lssd PATH --expected FILE
///            [--results FILE] [--spans FILE] [--commit SHA]
///            [--source-digest HEX]
///   lssbench --record-expected --repo-root DIR --expected FILE
///
/// Prints, as its last line, a JSON object with correct/attempted/failed
/// and every metric the run produced; mismatches go to stderr. Exits 1 on
/// any output mismatch and 3 when built without optimization.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Process.h"

#include "driver/DaemonProtocol.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

using namespace lssbench;
using liberty::driver::Json;

namespace {

constexpr unsigned SetupProbes = 15;

const char *const BuildType = LSSBENCH_BUILD_TYPE;

bool optimizedBuild() {
#ifdef __OPTIMIZE__
  return std::strcmp(BuildType, "Release") == 0 ||
         std::strcmp(BuildType, "RelWithDebInfo") == 0;
#else
  return false;
#endif
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

/// The in-process workloads' set-up time: the median over fresh copies of
/// this process, each timing its first compile.
bool measureSetup(const RunConfig &Cfg, double &SetupS, std::string &Err) {
  std::vector<double> Ms;
  for (unsigned I = 0; I != SetupProbes; ++I) {
    ChildProcess P;
    if (!P.start({Cfg.SelfPath, "--setup-probe", "--workload", Cfg.Workload,
                  "--seed", std::to_string(Cfg.Seed), "--repo-root",
                  Cfg.RepoRoot, "--expected", Cfg.ExpectedPath},
                 Err))
      return false;
    std::string Out = P.readAll();
    int Code = P.wait();
    double V = Code == 0 ? std::atof(Out.c_str()) : -1;
    if (V <= 0) {
      Err = "set-up probe failed";
      return false;
    }
    Ms.push_back(V);
  }
  SetupS = median(Ms) / 1e3;
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: lssbench --workload W --seed N --seconds S --trace "
               "0|1 --repo-root DIR --work-dir DIR --lssd PATH --expected "
               "FILE [--results FILE] [--spans FILE] [--commit SHA] "
               "[--source-digest HEX]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  std::string ResultsPath, SpansPath, Commit = "unknown",
                                      SourceDigest = "unknown";
  bool Probe = false, Record = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto next = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : "";
    };
    if (A == "--workload")
      Cfg.Workload = next();
    else if (A == "--seed")
      Cfg.Seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      Cfg.Seconds = std::atof(next().c_str());
    else if (A == "--trace")
      Cfg.Trace = next() == "1";
    else if (A == "--repo-root")
      Cfg.RepoRoot = next();
    else if (A == "--work-dir")
      Cfg.WorkDir = next();
    else if (A == "--lssd")
      Cfg.LssdPath = next();
    else if (A == "--expected")
      Cfg.ExpectedPath = next();
    else if (A == "--results")
      ResultsPath = next();
    else if (A == "--spans")
      SpansPath = next();
    else if (A == "--commit")
      Commit = next();
    else if (A == "--source-digest")
      SourceDigest = next();
    else if (A == "--setup-probe")
      Probe = true;
    else if (A == "--record-expected")
      Record = true;
    else
      return usage();
  }
  Cfg.SelfPath = std::filesystem::canonical("/proc/self/exe").string();

  if (!optimizedBuild()) {
    std::fprintf(stderr, "lssbench: refusing to report from a %s build "
                         "without optimization; configure with "
                         "CMAKE_BUILD_TYPE=Release\n",
                 BuildType);
    return 3;
  }
  if (Record)
    return recordExpected(Cfg);
  if (Probe) {
    double Ms = setupProbe(Cfg);
    if (Ms <= 0)
      return 1;
    std::printf("%.6f\n", Ms);
    return 0;
  }

  bool InProcess = Cfg.Workload == "paper_sim" ||
                   Cfg.Workload == "delayn_elab" ||
                   Cfg.Workload == "quiet_sim";
  if ((!InProcess && Cfg.Workload != "edit_loop") || Cfg.Seconds <= 0 ||
      Cfg.WorkDir.empty())
    return usage();
  std::filesystem::create_directories(Cfg.WorkDir);

  double SetupS = 0;
  std::string Err;
  if (InProcess && !Cfg.Trace && !measureSetup(Cfg, SetupS, Err)) {
    std::fprintf(stderr, "lssbench: %s\n", Err.c_str());
    return 1;
  }

  RunResult R = InProcess ? runInProcess(Cfg) : runEditLoop(Cfg);
  if (InProcess && !Cfg.Trace)
    R.M.set("setup_s", SetupS, "s");
  if (Cfg.Trace)
    addMissingLayerMetrics(R.M);
  R.M.set("failed_share",
          R.Attempted ? double(R.Failed) / double(R.Attempted) : 1.0,
          "share");

  Json Metrics = Json::object();
  for (const auto &[Name, E] : R.M.all())
    Metrics.set(Name, Json::object().set("value", E.Value).set("unit", E.Unit));
  for (const std::string &M : R.Mismatches)
    std::fprintf(stderr, "lssbench: MISMATCH: %s\n", M.c_str());

  if (!ResultsPath.empty()) {
    Json Host = Json::object();
    Host.set("nproc", uint64_t(std::thread::hardware_concurrency()))
        .set("cpu_model", cpuModel())
        .set("compiler", LSSBENCH_COMPILER)
        .set("build_type", BuildType)
        .set("git_commit", Commit)
        .set("source_digest", SourceDigest);
    Json Facts = Json::object();
    for (const auto &[K, V] : R.Facts)
      Facts.set(K, V);
    Json Bad = Json::array();
    for (const std::string &M : R.Mismatches)
      Bad.push(M);
    Json Doc = Json::object();
    Doc.set("workload", Cfg.Workload)
        .set("seed", Cfg.Seed)
        .set("seconds", Cfg.Seconds)
        .set("trace", Cfg.Trace)
        .set("host", std::move(Host))
        .set("correct", R.Correct)
        .set("attempted", R.Attempted)
        .set("failed", R.Failed)
        .set("metrics", Metrics)
        .set("facts", std::move(Facts))
        .set("mismatches", std::move(Bad));
    std::ofstream Out(ResultsPath);
    Out << Doc.dump() << "\n";
  }
  if (!SpansPath.empty() && Cfg.Trace)
    writeSpans(SpansPath, R.Spans);

  Json Line = Json::object();
  Line.set("correct", R.Correct)
      .set("attempted", R.Attempted)
      .set("failed", R.Failed)
      .set("metrics", std::move(Metrics));
  std::printf("%s\n", Line.dump().c_str());
  return R.Correct ? 0 : 1;
}
