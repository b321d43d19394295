//===- EditLoop.cpp - edit_loop: lssd serving a designer's edit loop ------===//
///
/// A real lssd (2 workers, fresh cache directory) serves a closed loop of
/// 2 CompileClient connections from this process: each client sends its
/// next request only when the previous reply arrived, as every
/// `lssc --daemon` caller does. A pass is a fixed-size seeded mix of
/// requests against the lanes project: ~70% hot (the unchanged project),
/// ~20% `recompile` with a fresh single-lane edit, ~10% cold (a changed
/// top, which forces a full compile). Each request's invocation is built
/// before the pass starts, so the timings hold only the round trip.
///
/// Every reply is checked against an in-process cold compile of the same
/// kind of input: success, instance count and connection count. The
/// traced mode adds client spans carrying a request id, with the daemon's
/// reported queue and service intervals as children, and then times the
/// driver, netlist, infer, interp and lss layers in-process on the same
/// project, including a byte-identity check of compileIncremental's
/// artifacts against a cold compile.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"
#include "Process.h"

#include "driver/CompileClient.h"
#include "driver/CompileService.h"
#include "driver/Compiler.h"
#include "driver/Stats.h"
#include "netlist/Serializer.h"

#include <cmath>
#include <csignal>
#include <filesystem>
#include <thread>

using namespace liberty;
using driver::CompileClient;
using driver::CompilerInvocation;

namespace lssbench {
namespace {

constexpr unsigned Clients = 2;
constexpr unsigned Workers = 2;
/// Each client's share of a pass: 28 hot, 8 incremental, 4 cold. Giving
/// both clients the same mix keeps one client from idling at the end of a
/// pass while the other works through its cold compiles.
constexpr unsigned ClientRequests = 40, ClientHot = 28, ClientIncr = 8;
constexpr unsigned SetupRounds = 5;
/// Peak memory is read after this many passes, so it measures a fixed
/// amount of work: the daemon's in-memory cache grows with every distinct
/// compile, and a run's pass count depends on the host's speed.
constexpr unsigned RssPasses = 6;

enum class Kind { Hot, Incr, Cold };
const char *kindName(Kind K) {
  return K == Kind::Hot ? "hot" : K == Kind::Incr ? "incr" : "cold";
}

struct Request {
  Kind K = Kind::Hot;
  const CompilerInvocation *Inv = nullptr;
  int64_t Id = 0;
};

struct Reply {
  Kind K = Kind::Hot;
  double LatencyMs = 0;
  CompileClient::Result R;
};

/// Instance and connection counts of each kind of input, from in-process
/// cold compiles (the cache is off, so no daemon code path is shared).
struct Expected {
  uint64_t Instances[3] = {0, 0, 0};
  uint64_t Connections[3] = {0, 0, 0};
};

bool coldCounts(const CompilerInvocation &Inv, uint64_t &Instances,
                uint64_t &Connections, std::string &Err) {
  driver::CompileService::Options O;
  O.CacheEnabled = false;
  driver::CompileService Svc(O);
  driver::CompileResult R = Svc.compile(Inv);
  if (!R.Success) {
    Err = "in-process cold compile failed: " + R.C->diagnosticsText();
    return false;
  }
  driver::ModelStats MS =
      driver::computeModelStats(*R.C->getNetlist(), R.C->getLibraryModules(),
                                R.C->getNumUserTypeAnnotations());
  Instances = MS.TotalInstances;
  Connections = MS.Connections;
  return true;
}

/// One lssd process with its own cache directory.
class Daemon {
public:
  bool start(const RunConfig &Cfg, unsigned Index, std::string &Err) {
    std::string Tag = "lssd" + std::to_string(Index);
    Address = Cfg.WorkDir + "/" + Tag + ".sock";
    CacheDir = Cfg.WorkDir + "/" + Tag + "-cache";
    std::error_code EC;
    std::filesystem::remove_all(CacheDir, EC);
    std::filesystem::remove(Address, EC);
    if (!Proc.start({Cfg.LssdPath, "--listen", Address, "--workers",
                     std::to_string(Workers), "--cache-dir", CacheDir},
                    Err))
      return false;
    std::string Line;
    if (!Proc.readLine(Line, 30000) || Line.rfind("lssd: ready", 0) != 0) {
      Err = "lssd did not report ready";
      return false;
    }
    return true;
  }
  /// Drains and reaps the daemon.
  void stop() {
    CompileClient C(Address);
    std::string Err;
    if (!C.connect(&Err) || !C.shutdownServer(&Err))
      Proc.kill(SIGTERM);
    Proc.wait();
    std::error_code EC;
    std::filesystem::remove_all(CacheDir, EC);
    std::filesystem::remove(Address, EC);
  }
  double peakRssMb() const {
    return lssbench::peakRssMb(std::to_string(Proc.pid()));
  }
  const std::string &address() const { return Address; }

private:
  ChildProcess Proc;
  std::string Address, CacheDir;
};

/// Starts a daemon and runs the warm-up compiles that fill its cache:
/// the project cold, then one lane edit so the dependency graph exists.
/// Returns the elapsed ms (lssd start until the warm-up finished).
double setUp(const RunConfig &Cfg, unsigned Index, Daemon &D,
             const CompilerInvocation &Base, const CompilerInvocation &Edit,
             std::string &Err) {
  auto T0 = Clock::now();
  if (!D.start(Cfg, Index, Err))
    return -1;
  CompileClient C(D.address());
  if (!C.connect(&Err))
    return -1;
  CompileClient::Result R1 = C.compile(Base);
  CompileClient::Result R2 = C.recompile(Edit);
  if (!R1.Error.empty() || !R1.Success || !R2.Error.empty() || !R2.Success) {
    Err = "warm-up compile failed: " + R1.Error + R2.Error + R1.Diagnostics +
          R2.Diagnostics;
    return -1;
  }
  return msBetween(T0, Clock::now());
}

/// One client's share of a pass.
void clientLoop(CompileClient &C, const std::vector<Request> &Reqs,
                std::vector<Reply> &Out, Tracer *T) {
  for (const Request &Q : Reqs) {
    Reply Rep;
    Rep.K = Q.K;
    auto T0 = Clock::now();
    int SpanId = -1;
    if (T)
      SpanId = T->begin(Q.K == Kind::Incr ? "lssd:CompileClient::recompile"
                                          : "lssd:CompileClient::compile",
                        Q.Id);
    Rep.R = Q.K == Kind::Incr ? C.recompile(*Q.Inv) : C.compile(*Q.Inv);
    if (T) {
      T->end(SpanId);
      // The daemon reports queue wait and service time (admission to
      // reply ready, so it includes the queue wait); the rest of the
      // client span is the wire. Place the server interval in the middle.
      const Tracer::Span &S = T->spans()[SpanId];
      double Wire = (S.EndMs - S.StartMs) - Rep.R.ServiceMs;
      double Admit = S.StartMs + std::max(Wire, 0.0) / 2;
      T->addClosed("lssd:queue", SpanId, Admit, Admit + Rep.R.QueueMs, Q.Id);
      T->addClosed("driver:CompileService (in lssd)", SpanId,
                   Admit + Rep.R.QueueMs, Admit + Rep.R.ServiceMs, Q.Id);
    }
    Rep.LatencyMs = msBetween(T0, Clock::now());
    Out.push_back(std::move(Rep));
  }
}

struct PassResult {
  double Ms = 0;
  std::vector<Reply> Replies;
};

/// The in-process half of the traced mode: every layer the daemon runs,
/// timed around its public entry point on the same project.
void inProcessLayers(const RunConfig &Cfg, const CompilerInvocation &Base,
                     uint64_t &Token, Tracer &T, RunResult &Res) {
  Metrics &M = Res.M;
  constexpr int Reps = 5;

  // lss, interp, infer: the staged compile a cold request runs.
  std::vector<double> Parse, Elab, Infer;
  std::string Artifact;
  double Instances = 0;
  std::unique_ptr<driver::Compiler> Last; // Kept for the netlist layer.
  for (int I = 0; I != Reps; ++I) {
    auto Owned = std::make_unique<driver::Compiler>();
    driver::Compiler &C = *Owned;
    auto T0 = Clock::now();
    bool Ok;
    {
      Scope S(&T, "lss:Compiler::addSources");
      Ok = C.addSources(Base);
    }
    auto T1 = Clock::now();
    {
      Scope S(&T, "interp:Compiler::elaborate");
      Ok = Ok && C.elaborate(Base);
    }
    auto T2 = Clock::now();
    {
      Scope S(&T, "infer:Compiler::inferTypes");
      Ok = Ok && C.inferTypes(Base);
    }
    auto T3 = Clock::now();
    if (!Ok) {
      Res.mismatch("in-process staged compile failed: " +
                   C.diagnosticsText());
      return;
    }
    Parse.push_back(msBetween(T0, T1));
    Elab.push_back(msBetween(T1, T2));
    Infer.push_back(msBetween(T2, T3));
    Instances = double(C.getNetlist()->getInstances().size() - 1);
    const infer::SolveStats &SS = C.getInferenceStats().Solve;
    M.set("infer.constraints", SS.NumConstraints, "count");
    M.set("infer.unify_steps", double(SS.UnifySteps), "count");
    M.set("infer.branch_points", double(SS.BranchPoints), "count");
    if (I == 0)
      netlist::serializeNetlist(*C.getNetlist(), C.getLibraryModules(),
                                C.getNumUserTypeAnnotations(),
                                C.getDiags().getDiagnostics(), Artifact);
    Last = std::move(Owned);
  }
  size_t Bytes = 0;
  for (const auto &S : Base.Sources)
    Bytes += S.Text.size();
  M.set("lss.parse_ms", median(Parse), "ms");
  M.set("lss.bytes_per_ms", double(Bytes) / median(Parse), "B/ms");
  M.set("interp.elaborate_ms", median(Elab), "ms");
  M.set("interp.instances_per_ms", Instances / median(Elab), "1/ms");
  M.set("infer.infer_ms", median(Infer), "ms");

  // netlist: the LSSNL artifact a hot request reloads, serialized from the
  // last staged compile and checked against the first one's bytes.
  {
    driver::Compiler &C = *Last;
    std::vector<double> Ser, De;
    for (int I = 0; I != Reps; ++I) {
      std::string Out;
      auto T0 = Clock::now();
      {
        Scope S(&T, "netlist:serializeNetlist");
        netlist::serializeNetlist(*C.getNetlist(), C.getLibraryModules(),
                                  C.getNumUserTypeAnnotations(),
                                  C.getDiags().getDiagnostics(), Out);
      }
      Ser.push_back(msBetween(T0, Clock::now()));
      if (Out != Artifact)
        Res.mismatch("two cold compiles serialize to different bytes");
      types::TypeContext TC;
      auto T1 = Clock::now();
      netlist::SerializedCompile SC;
      {
        Scope S(&T, "netlist:deserializeNetlist");
        SC = netlist::deserializeNetlist(Out, TC);
      }
      De.push_back(msBetween(T1, Clock::now()));
      if (!SC.NL || SC.NL->getInstances().size() !=
                        C.getNetlist()->getInstances().size())
        Res.mismatch("deserializeNetlist did not reload the netlist");
    }
    M.set("netlist.serialize_ms", median(Ser), "ms");
    M.set("netlist.deserialize_ms", median(De), "ms");
    M.set("netlist.artifact_bytes", double(Artifact.size()), "B");
  }

  // driver: hot compiles and incremental compiles on a disk-backed
  // service, and the byte-identity of incremental artifacts against a
  // cold compile of the same edit.
  std::string IncDir = Cfg.WorkDir + "/inproc-incremental";
  std::string ColdDir = Cfg.WorkDir + "/inproc-cold";
  std::error_code EC;
  std::filesystem::remove_all(IncDir, EC);
  std::filesystem::remove_all(ColdDir, EC);
  {
    driver::CompileService::Options O;
    O.Cache.DiskDir = IncDir;
    driver::CompileService Svc(O);
    {
      Scope S(&T, "driver:CompileService::compile");
      if (!Svc.compile(Base).Success)
        Res.mismatch("in-process cold compile failed");
    }
    std::vector<double> Hot, Incr;
    for (int I = 0; I != Reps; ++I) {
      auto T0 = Clock::now();
      driver::CompileResult R;
      {
        Scope S(&T, "driver:CompileService::compile");
        R = Svc.compile(Base);
      }
      Hot.push_back(msBetween(T0, Clock::now()));
      if (!R.Success || !R.ElabFromCache)
        Res.mismatch("in-process hot compile missed the cache");
    }
    CompilerInvocation Last;
    for (int I = 0; I != Reps; ++I) {
      Last = lanesProject(int((Token * 7) % EditLanes), Token, 0);
      ++Token;
      auto T0 = Clock::now();
      driver::CompileResult R;
      {
        Scope S(&T, "driver:CompileService::compileIncremental");
        R = Svc.compileIncremental(Last);
      }
      Incr.push_back(msBetween(T0, Clock::now()));
      if (!R.Success)
        Res.mismatch("in-process incremental compile failed");
    }
    M.set("driver.hot_compile_ms", median(Hot), "ms");
    M.set("driver.incremental_ms", median(Incr), "ms");

    driver::CompileService::Options CO;
    CO.Cache.DiskDir = ColdDir;
    driver::CompileService Cold(CO);
    if (!Cold.compile(Last).Success)
      Res.mismatch("cold compile of the last edit failed");
    for (auto [Kind, Key] : {std::pair<const char *, uint64_t>(
                                 "elab", Last.elabKey()),
                             {"solve", Last.solveKey()}}) {
      std::string A, B;
      std::string K = CompilerInvocation::keyString(Key);
      if (!Svc.getCache().get(K, Kind, A) || !Cold.getCache().get(K, Kind, B))
        Res.mismatch(std::string("missing ") + Kind + " artifact");
      else if (A != B)
        Res.mismatch(std::string("compileIncremental ") + Kind +
                     " artifact differs from a cold compile's");
    }
  }
  std::filesystem::remove_all(IncDir, EC);
  std::filesystem::remove_all(ColdDir, EC);
}

} // namespace

RunResult runEditLoop(const RunConfig &Cfg) {
  RunResult Res;
  std::string Err;
  uint64_t Token = 1;
  CompilerInvocation Base = lanesProject(-1, 0, 0);
  CompilerInvocation WarmEdit = lanesProject(0, Token++, 0);

  // The oracle: one in-process cold compile per kind of input. Lane edits
  // and top changes keep the structure, so one of each stands for all.
  Expected Want;
  if (!coldCounts(Base, Want.Instances[0], Want.Connections[0], Err) ||
      !coldCounts(WarmEdit, Want.Instances[1], Want.Connections[1], Err) ||
      !coldCounts(lanesProject(-1, 0, 1), Want.Instances[2],
                  Want.Connections[2], Err)) {
    Res.mismatch(Err);
    return Res;
  }

  // Set-up, several times: all but the last daemon are stopped again.
  std::vector<double> SetupMs;
  Daemon D;
  for (unsigned I = 0; I != (Cfg.Trace ? 1 : SetupRounds); ++I) {
    if (I)
      D.stop();
    double Ms = setUp(Cfg, I, D, Base, WarmEdit, Err);
    if (Ms < 0) {
      Res.mismatch("lssd set-up failed: " + Err);
      D.stop();
      return Res;
    }
    SetupMs.push_back(Ms);
  }

  std::vector<std::unique_ptr<CompileClient>> Conns;
  for (unsigned I = 0; I != Clients; ++I) {
    Conns.push_back(std::make_unique<CompileClient>(D.address()));
    if (!Conns.back()->connect(&Err)) {
      Res.mismatch("client connect failed: " + Err);
      D.stop();
      return Res;
    }
  }

  Rng Gen(Cfg.Seed);
  Clock::time_point Epoch = Clock::now();
  std::vector<Tracer> Tracers;
  for (unsigned I = 0; I != Clients; ++I)
    Tracers.emplace_back(Epoch, I);
  std::vector<PassResult> Untraced, Traced;
  int64_t NextId = 1;
  double DaemonRssMb = 0;
  auto Deadline = Clock::now() + std::chrono::duration<double>(Cfg.Seconds);
  const size_t MinPasses = Cfg.Trace ? 4 : 3;
  for (size_t Pass = 0; Pass < MinPasses || Clock::now() < Deadline;
       ++Pass) {
    bool TracedPass = Cfg.Trace && Pass % 2 == 1;
    // The pass's requests, invocations built up front.
    std::vector<CompilerInvocation> Invs;
    Invs.reserve(Clients * ClientRequests);
    std::vector<std::vector<Request>> PerClient(Clients);
    for (unsigned C = 0; C != Clients; ++C) {
      std::vector<Kind> Kinds(ClientRequests, Kind::Cold);
      std::fill(Kinds.begin(), Kinds.begin() + ClientHot, Kind::Hot);
      std::fill(Kinds.begin() + ClientHot,
                Kinds.begin() + ClientHot + ClientIncr, Kind::Incr);
      Gen.shuffle(Kinds);
      for (Kind K : Kinds) {
        Request Q;
        Q.K = K;
        Q.Id = NextId++;
        if (K == Kind::Hot) {
          Q.Inv = &Base;
        } else {
          Invs.push_back(
              K == Kind::Incr
                  ? lanesProject(int(Gen.below(EditLanes)), Token, 0)
                  : lanesProject(-1, 0, Token));
          ++Token;
          Q.Inv = &Invs.back();
        }
        PerClient[C].push_back(Q);
      }
    }

    std::vector<std::vector<Reply>> Out(Clients);
    auto P0 = Clock::now();
    {
      std::vector<std::jthread> Threads;
      for (unsigned I = 0; I != Clients; ++I)
        Threads.emplace_back([&, I] {
          clientLoop(*Conns[I], PerClient[I], Out[I],
                     TracedPass ? &Tracers[I] : nullptr);
        });
    }
    PassResult PR;
    PR.Ms = msBetween(P0, Clock::now());
    for (auto &V : Out)
      for (Reply &R : V)
        PR.Replies.push_back(std::move(R));
    for (const Reply &R : PR.Replies) {
      ++Res.Attempted;
      int K = int(R.K);
      if (!R.R.Error.empty()) {
        ++Res.Failed; // Transport error or a queue_full refusal.
        continue;
      }
      if (!R.R.Success) {
        ++Res.Failed;
        Res.mismatch(std::string(kindName(R.K)) +
                     " request failed to compile: " + R.R.Diagnostics);
      } else if (R.R.Instances != Want.Instances[K] ||
                 R.R.Connections != Want.Connections[K]) {
        Res.mismatch(std::string(kindName(R.K)) + " reply reports " +
                     std::to_string(R.R.Instances) + " instances / " +
                     std::to_string(R.R.Connections) +
                     " connections; the cold compile has " +
                     std::to_string(Want.Instances[K]) + " / " +
                     std::to_string(Want.Connections[K]));
      }
    }
    if (!TracedPass && Untraced.size() + 1 == RssPasses)
      DaemonRssMb = D.peakRssMb();
    (TracedPass ? Traced : Untraced).push_back(std::move(PR));
  }

  auto latencies = [](const std::vector<PassResult> &Passes, int OnlyKind) {
    std::vector<double> V;
    for (const PassResult &P : Passes)
      for (const Reply &R : P.Replies)
        if (OnlyKind < 0 || int(R.K) == OnlyKind)
          V.push_back(R.LatencyMs);
    return V;
  };
  auto passMs = [](const std::vector<PassResult> &Passes) {
    std::vector<double> V;
    for (const PassResult &P : Passes)
      V.push_back(P.Ms);
    return V;
  };
  Metrics &M = Res.M;

  if (!Cfg.Trace) {
    std::vector<double> All = latencies(Untraced, -1);
    // The rate a typical pass sustains: the median over passes.
    std::vector<double> PassRate;
    for (const PassResult &P : Untraced) {
      size_t Completed = 0;
      for (const Reply &R : P.Replies)
        Completed += R.R.Error.empty() && R.R.Success;
      PassRate.push_back(double(Completed) / (P.Ms / 1e3));
    }
    if (Untraced.size() < RssPasses)
      DaemonRssMb = D.peakRssMb();
    for (auto &Conn : Conns)
      Conn->close();
    D.stop();
    M.set("setup_s", median(SetupMs) / 1e3, "s");
    M.set("run_s", median(passMs(Untraced)) / 1e3, "s");
    M.set("compile_ms", geomean(All), "ms");
    M.set("req_p50_ms", quantile(All, 0.5), "ms");
    M.set("req_p95_ms", quantile(All, 0.95), "ms");
    M.set("req_per_s", median(PassRate), "requests/s");
    M.set("peak_rss_mb", DaemonRssMb, "MB");
    M.set("hot_p50_ms", median(latencies(Untraced, int(Kind::Hot))), "ms");
    M.set("incr_p50_ms", median(latencies(Untraced, int(Kind::Incr))), "ms");
    M.set("cold_p50_ms", median(latencies(Untraced, int(Kind::Cold))), "ms");
    Res.Facts["passes"] = double(Untraced.size());
    Res.Facts["requests"] = double(All.size());
    Res.Facts["req_p95_samples_beyond"] = std::floor(0.05 * All.size());
    return Res;
  }

  // Traced mode. Per-layer metrics the daemon reports, then the layers
  // timed in-process.
  driver::Json Stats;
  if (!Conns.front()->stats(Stats, &Err))
    Res.mismatch("daemon stats request failed: " + Err);
  for (auto &Conn : Conns)
    Conn->close();
  D.stop();

  std::vector<double> Queue, Service, Wire, Reelab, Resolved, Spliced;
  for (const PassResult &P : Traced)
    for (const Reply &R : P.Replies) {
      Queue.push_back(R.R.QueueMs);
      Service.push_back(R.R.ServiceMs);
      Wire.push_back(R.LatencyMs - R.R.ServiceMs);
      if (R.K == Kind::Incr) {
        Reelab.push_back(double(R.R.ModulesReelaborated));
        Resolved.push_back(double(R.R.GroupsResolved));
        Spliced.push_back(double(R.R.GroupsSpliced));
      }
    }
  M.set("lssd.queue_p50_ms", quantile(Queue, 0.5), "ms");
  M.set("lssd.queue_p95_ms", quantile(Queue, 0.95), "ms");
  M.set("lssd.service_p50_ms", median(Service), "ms");
  M.set("lssd.wire_ms", median(Wire), "ms");
  M.set("lssd.hot_p50_ms", median(latencies(Traced, int(Kind::Hot))), "ms");
  M.set("lssd.incr_p50_ms", median(latencies(Traced, int(Kind::Incr))),
        "ms");
  M.set("lssd.cold_p50_ms", median(latencies(Traced, int(Kind::Cold))),
        "ms");
  M.set("driver.modules_reelaborated", median(Reelab), "count");
  M.set("driver.groups_resolved", median(Resolved), "count");
  M.set("driver.groups_spliced", median(Spliced), "count");
  double Hits = Stats.getNumber("elab_cache_hits");
  double Misses = Stats.getNumber("elab_cache_misses");
  M.set("driver.cache_hit_ratio", Hits + Misses > 0 ? Hits / (Hits + Misses)
                                                    : 0,
        "share");

  Tracer All(Epoch, 0);
  for (const Tracer &T : Tracers)
    All.merge(T);
  std::map<std::string, double> Self = selfTimeByLayer(All.spans());
  for (const auto &[Layer, Ms] : Self)
    M.set("self." + Layer + "_ms", Ms / double(Traced.size()), "ms");
  double InSpans = 0, PassTotal = 0;
  for (const Tracer::Span &S : All.spans())
    if (S.Parent < 0)
      InSpans += S.EndMs - S.StartMs;
  for (double Ms : passMs(Traced))
    PassTotal += Ms * Clients;
  M.set("trace.coverage", InSpans / PassTotal, "share");
  double TracedRun = median(passMs(Traced)) / 1e3;
  double UntracedRun = median(passMs(Untraced)) / 1e3;
  M.set("trace.run_s", TracedRun, "s");
  M.set("trace.untraced_run_s", UntracedRun, "s");
  M.set("trace.overhead_s", TracedRun - UntracedRun, "s");

  Tracer InProc(Epoch, Clients);
  inProcessLayers(Cfg, Base, Token, InProc, Res);
  All.merge(InProc);
  Res.Facts["traced_passes"] = double(Traced.size());
  Res.Facts["untraced_passes"] = double(Untraced.size());
  Res.Facts["incremental_fallbacks"] = 0;
  for (const PassResult &P : Traced)
    for (const Reply &R : P.Replies)
      if (R.K == Kind::Incr && !R.R.IncrementalUsed)
        Res.Facts["incremental_fallbacks"] += 1;
  Res.Spans = std::move(All.spans());
  return Res;
}

} // namespace lssbench
