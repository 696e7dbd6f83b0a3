//===- perfbench/src/Main.cpp - Workload runner ----------------------------===//
///
/// \file
/// perfbench --workload <serve_light|serve_heavy|ship> --seed <n>
///           --seconds <s> --trace <0|1> --state-dir <dir>
///
/// Every workload has the same shape. Set-up ships the workload's served
/// module set once (compile -> cold load -> restart, see Ship.h), computes
/// the output oracles and, for the serve workloads, starts a 2-worker
/// host::Server and warms it; set-up is repeated and its median reported.
/// The timed window is cut into 2-second slices: a serve workload serves
/// (closed loop, 4 requests outstanding) for 80% of each slice and ships
/// the common ship set for the rest; the ship workload ships throughout.
/// Afterwards every served module runs once on every target through the
/// cycle-accurate ModuleHost::runTarget, twice (the restarted host and a
/// fresh one), to check outputs and the determinism of the cycle counts.
///
/// --trace 0 prints the end-to-end metrics. --trace 1 prints the
/// per-layer metrics: it times each layer from outside, with spans around
/// the benchmark's calls into the layers' public functions, and writes the
/// spans to <state-dir>/trace-<workload>.json.
///
/// The last stdout line is the result object; lines before it starting
/// with '#' are notes for a reader.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Serve.h"
#include "Ship.h"
#include "Spans.h"

#include "support/Format.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace omni;
using namespace perfbench;

namespace {

constexpr unsigned NT = target::NumTargets;
constexpr unsigned Workers = 2;
constexpr unsigned Outstanding = 4;
/// Length of one slice of the window, and the share of a serve workload's
/// slice spent serving (the rest ships).
constexpr double SliceSeconds = 2;
constexpr double ServeShare = 0.8;
/// Highest percentile latency_tail_ms reports. Every workload has well over
/// 100 latency samples, so the percentile stays fixed as the system gets
/// faster or slower. p95 and p99 spread 0.19-0.27 between runs of the same
/// code on a shared 4-vCPU VM, against a bound of 0.25.
constexpr double TailCap = 90;

struct Args {
  std::string Workload;
  std::string StateDir; ///< count records and span files
  std::string WorkDir;  ///< this process's L2 directories, removed at exit
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
};

struct Spec {
  /// The served set: set-up ships it, the server serves it and the
  /// oracle runs it.
  std::vector<Source> Sources;
  std::vector<Source> ShipSet; ///< what the window's ship passes ship
  bool Serves = false;     ///< the timed window serves (else it ships)
  unsigned SetupReps = 5;  ///< set-ups per run; the median is reported
  unsigned Warmup = 0;     ///< discarded warm-up requests per set-up
};

/// State of one set-up: the shipped module set, the serving items over
/// it, and the server (destroyed before the host it serves from).
struct Fixture {
  Shipped Set;
  ShipResult Ship;
  std::vector<ServeItem> Items;
  std::unique_ptr<host::Server> Srv;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    char *End = nullptr;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--state-dir")
      A.StateDir = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), &End);
    else if (K == "--trace")
      A.Trace = V == "1";
    else
      return false;
    if (End && *End)
      return false;
  }
  return Argc % 2 == 1 && !A.StateDir.empty() && A.Seconds > 0 &&
         (A.Workload == "serve_light" || A.Workload == "serve_heavy" ||
          A.Workload == "ship");
}

Spec makeSpec(const Args &A) {
  Spec S;
  if (A.Workload == "serve_light") {
    S.Sources = lightSources(A.Seed, 1, 1);
    S.Serves = true;
    S.SetupReps = 7;
    S.Warmup = 32;
  } else if (A.Workload == "serve_heavy") {
    S.Sources = paperSources();
    S.Serves = true;
    S.Warmup = 8;
  }
  // Every workload ships the same set: the paper programs plus sixteen
  // seeded light bodies. The ship workload also serves it.
  S.ShipSet = paperSources();
  for (Source &L : lightSources(A.Seed, 2, 8))
    S.ShipSet.push_back(std::move(L));
  if (S.Sources.empty())
    S.Sources = S.ShipSet;
  return S;
}

void startServer(Fixture &F) {
  host::Server::Options SO;
  SO.Workers = Workers;
  SO.QueueCapacity = 64;
  F.Srv = std::make_unique<host::Server>(*F.Set.Host, SO);
}

/// One set-up: ship the module set, fill the light bodies' oracles from
/// the reference interpreter, start and warm the server.
std::unique_ptr<Fixture> setUp(Spec &S, const Args &A, Outcome &O) {
  auto F = std::make_unique<Fixture>();
  shipPass(S.Sources, A.WorkDir + "/l2-setup", O, F->Ship, F->Set);
  for (size_t M = 0; M < S.Sources.size(); ++M) {
    Source &Src = S.Sources[M];
    if (Src.Pinned || F->Set.Exes[M].Code.empty())
      continue;
    runtime::RunResult R = runtime::runOnInterpreter(F->Set.Exes[M]);
    std::string Why = "the interpreter oracle for " + Src.Name;
    if (!O.check(R.Trap.Kind == vm::TrapKind::Halt, Why + " trapped"))
      continue;
    if (Src.Expected.empty())
      Src.Expected = R.Output;
    O.check(Src.Expected == R.Output, Why + " changed between set-ups");
  }
  for (size_t M = 0; M < S.Sources.size(); ++M)
    for (unsigned T = 0; T < NT; ++T)
      if (auto LM = F->Set.Handles[M * NT + T])
        F->Items.push_back({LM, &F->Set.Exes[M], target::allTargets(T),
                            &S.Sources[M]});
  if (S.Serves) {
    startServer(*F);
    closedLoop(*F->Srv, F->Items, 0, Outstanding, 0, S.Warmup, O);
  }
  return F;
}

/// Records the deterministic sizes of a ship pass, under names that
/// start with \p Prefix.
void countShip(const ShipResult &R, const std::string &Prefix, Outcome &O) {
  O.count(Prefix + "owx_bytes", R.OwxBytes);
  O.count(Prefix + "vm_instrs", R.VmInstrs);
  O.count(Prefix + "native_code_instrs", R.nativeTotal());
  for (unsigned T = 0; T < NT; ++T)
    O.count(Prefix + "native_code_instrs." +
                targetSuffix(target::allTargets(T)),
            R.NativeInstrs[T]);
}

/// Runs every module once per target through the cycle-accurate
/// runTarget on the restarted host and on a fresh host, checking outputs
/// and that both agree on cycles and instructions.
void runOracle(const Spec &S, Fixture &F, Outcome &O) {
  host::ModuleHost Fresh;
  uint64_t Cycles = 0, Instrs = 0;
  for (size_t M = 0; M < S.Sources.size(); ++M) {
    if (F.Set.Exes[M].Code.empty())
      continue;
    for (unsigned T = 0; T < NT; ++T) {
      target::TargetKind K = target::allTargets(T);
      runtime::TargetRunResult R1 = F.Set.Host->runTarget(
          K, F.Set.Exes[M], loadOptions(), vm::DefaultStepBudget, nullptr);
      runtime::TargetRunResult R2 = Fresh.runTarget(
          K, F.Set.Exes[M], loadOptions(), vm::DefaultStepBudget, nullptr);
      std::string What = S.Sources[M].Name + " on " + targetSuffix(K);
      O.check(R1.Run.Trap.Kind == vm::TrapKind::Halt &&
                  R1.Run.Output == S.Sources[M].Expected,
              "oracle run of " + What + " printed [" + R1.Run.Output + "]");
      O.check(R1.Stats.Cycles == R2.Stats.Cycles &&
                  R1.Stats.Instructions == R2.Stats.Instructions,
              "cycle counts of " + What +
                  " differ between the L2-restored and a fresh translation");
      Cycles += R1.Stats.Cycles;
      Instrs += R1.Stats.Instructions;
    }
  }
  O.count("sim_cycles", Cycles);
  O.count("target.instrs", Instrs);
}

std::string binaryIdentity() {
  struct stat St;
  if (stat("/proc/self/exe", &St) != 0)
    return "unknown";
  return formatStr("%llx-%llx", static_cast<unsigned long long>(St.st_size),
                   static_cast<unsigned long long>(St.st_mtim.tv_sec) *
                           1000000000ull +
                       static_cast<unsigned long long>(St.st_mtim.tv_nsec));
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0;
}

void noteTail(Outcome &O, const char *Metric, const Tail &T) {
  O.note(formatStr("%s is p%g over %zu samples (%zu beyond it)", Metric,
                   T.Percentile, T.Samples, T.Beyond));
}

//===----------------------------------------------------------------------===//
// --trace 0: end-to-end metrics
//===----------------------------------------------------------------------===//

void runEndToEnd(Spec &S, const Args &A, Outcome &O) {
  std::vector<double> SetupS;
  std::unique_ptr<Fixture> F;
  for (unsigned Rep = 0; Rep < S.SetupReps; ++Rep) {
    F.reset();
    uint64_t T0 = nowNs();
    F = setUp(S, A, O);
    SetupS.push_back(nsToMs(nowNs() - T0) / 1e3);
    countShip(F->Ship, "served.", O);
  }

  // The window is cut into slices. A serve workload serves for the first
  // ServeShare of each slice and ships the ship set for the rest, so both
  // measurements see the same drift in machine speed; the ship workload
  // ships throughout.
  size_t Start = mixSeed(A.Seed, 3) % std::max<size_t>(F->Items.size(), 1);
  std::vector<double> LatencyMs, CompileMs, ColdMs, RestartMs, SliceRates;
  uint64_t Served = 0;
  unsigned Slices =
      std::max(1u, static_cast<unsigned>(A.Seconds / SliceSeconds));
  double Slice = A.Seconds / Slices;
  for (unsigned I = 0; I < Slices; ++I) {
    if (S.Serves) {
      LoopResult L = closedLoop(*F->Srv, F->Items, Start + Served,
                                Outstanding, Slice * ServeShare, 0, O);
      Served += L.Completed;
      SliceRates.push_back(L.WallNs ? L.Completed / (L.WallNs / 1e9) : 0);
      LatencyMs.insert(LatencyMs.end(), L.LatencyMs.begin(),
                       L.LatencyMs.end());
    }
    uint64_t Modules = 0, PipelineNs = 0;
    uint64_t Deadline =
        nowNs() + static_cast<uint64_t>(
                      Slice * (S.Serves ? 1 - ServeShare : 1) * 1e9);
    do {
      ShipResult R;
      Shipped Out;
      shipPass(S.ShipSet, A.WorkDir + "/l2-pass", O, R, Out);
      countShip(R, "", O);
      CompileMs.push_back(nsToMs(R.CompileNs));
      ColdMs.push_back(nsToMs(R.ColdNs));
      RestartMs.push_back(nsToMs(R.RestartNs));
      PipelineNs += R.CompileNs + R.ColdNs + R.RestartNs;
      Modules += R.ModuleNs.size();
      if (!S.Serves)
        for (uint64_t Ns : R.ModuleNs)
          LatencyMs.push_back(nsToMs(Ns));
    } while (nowNs() < Deadline);
    if (!S.Serves)
      SliceRates.push_back(Modules / (PipelineNs / 1e9));
  }
  // Throughput is the median over slices, so one slow second (a noisy
  // neighbour, a file-system flush) cannot move it.
  double ReqPerS = median(SliceRates);
  if (S.Serves)
    O.note(formatStr("served %llu requests round-robin over %zu modules "
                     "from offset %zu",
                     static_cast<unsigned long long>(Served), F->Items.size(),
                     Start));
  O.note(formatStr("shipped %zu passes of %zu modules", CompileMs.size(),
                   S.ShipSet.size()));

  runOracle(S, *F, O);
  O.crossCheckCounts(A.StateDir, A.Workload + "-" + std::to_string(A.Seed) +
                                     "-" + binaryIdentity());
  F.reset();

  Tail T = tailOf(LatencyMs, TailCap);
  noteTail(O, "latency_tail_ms", T);
  O.note(formatStr("fail_frac %.6g (%llu of %llu operations failed)",
                   O.attempted() ? double(O.failed()) / O.attempted() : 1.0,
                   static_cast<unsigned long long>(O.failed()),
                   static_cast<unsigned long long>(O.attempted())));
  O.metric("setup_s", median(SetupS), "s");
  O.metric("peak_rss_mb", peakRssMb(), "MB");
  O.metric("req_per_s", ReqPerS, "1/s");
  O.metric("latency_p50_ms", median(LatencyMs), "ms");
  O.metric("latency_tail_ms", T.Value, "ms");
  O.metric("sim_cycles", double(O.countOf("sim_cycles")), "cycles");
  O.metric("compile_ms", median(CompileMs), "ms");
  O.metric("cold_load_ms", median(ColdMs), "ms");
  O.metric("restart_load_ms", median(RestartMs), "ms");
  O.metric("owx_bytes", double(O.countOf("owx_bytes")), "bytes");
  O.metric("native_code_instrs", double(O.countOf("native_code_instrs")),
           "instrs");
  // Last, so that every check above is counted.
  O.metric("ok_frac",
           O.attempted() ? 1.0 - double(O.failed()) / O.attempted() : 0,
           "1");
}

//===----------------------------------------------------------------------===//
// --trace 1: per-layer metrics
//===----------------------------------------------------------------------===//

/// Layer spans of the ship path, in pipeline order.
const char *const ShipLayers[] = {
    "frontend.parse", "frontend.lower", "ir.verify", "ir.optimize",
    "ir.addrfold", "codegen.generate", "vm.verify_compile", "vm.link",
    "vm.serialize", "vm.deserialize", "support.hash", "vm.verify",
    "host.l2_probe_miss", "translate.translate.mips",
    "translate.translate.sparc", "translate.translate.ppc",
    "translate.translate.x86", "sficheck.check.mips", "sficheck.check.sparc",
    "sficheck.check.ppc", "sficheck.check.x86", "host.l2_encode",
    "host.l2_store", "host.l2_read", "host.l2_decode", "host.l2_note_hit"};

/// Layer spans of the serve path.
const char *const ServeLayers[] = {"host.l1_lookup", "host.session_create",
                                   "vm.segment", "host.bind",
                                   "vm.segment_free"};

void noteBreakdown(Outcome &O, const char *Root, const Breakdown &B) {
  O.note(formatStr("trace reconciliation under %s: %llu roots, %.3f ms; "
                   "layers %.3f ms + unattributed %.3f ms",
                   Root, static_cast<unsigned long long>(B.Roots),
                   nsToMs(B.RootNs), nsToMs(B.LayerNs),
                   nsToMs(B.ContainerNs)));
  for (const auto &[Name, L] : B.Layers)
    O.note(formatStr("  %-28s %8llu calls %10.3f ms self %6.2f%%",
                     Name.c_str(), static_cast<unsigned long long>(L.Calls),
                     nsToMs(L.SelfNs),
                     B.RootNs ? 100.0 * L.SelfNs / B.RootNs : 0.0));
  O.check(B.Defect.empty(), "malformed span tree: " + B.Defect);
  O.check(B.Roots > 0 && B.LayerNs + B.ContainerNs == B.RootNs,
          std::string("layer self times do not reconcile under ") + Root);
}

void runTraced(Spec &S, const Args &A, Outcome &O) {
  std::unique_ptr<Fixture> F = setUp(S, A, O);
  countShip(F->Ship, "served.", O);
  Recorder Traced(true), Untraced(false);
  double Third = A.Seconds / 3;
  const std::string Dir = A.WorkDir + "/l2-trace";
  size_t Start = mixSeed(A.Seed, 3) % std::max<size_t>(F->Items.size(), 1);

  // Ship path, over the ship set. The ship workload spends its window
  // here; the serve workloads run two real passes and two replays of each
  // kind.
  double ShipSeconds = S.Serves ? 0 : Third;
  std::vector<double> RealLoadNs, UntracedPassNs, TracedPassNs;
  uint64_t L2Probes = 0, L2Hits = 0, TracedLoadStageNs = 0, TracedLoads = 0;
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(ShipSeconds * 1e9);
  Shipped Ref; // the last real pass, which the replays must reproduce
  while (RealLoadNs.size() < 2 || nowNs() < Deadline) {
    ShipResult R;
    shipPass(S.ShipSet, Dir, O, R, Ref);
    countShip(R, "", O);
    RealLoadNs.push_back(double(R.ColdNs + R.RestartNs));
  }
  // Untraced and traced replays alternate, so drift in the machine's
  // speed affects both alike.
  StageResult SR;
  Deadline = nowNs() + static_cast<uint64_t>(2 * ShipSeconds * 1e9);
  while (TracedPassNs.size() < 2 || nowNs() < Deadline) {
    shipStages(S.ShipSet, Ref, Dir, Untraced, 0, O, SR);
    UntracedPassNs.push_back(double(SR.PassNs));
    shipStages(S.ShipSet, Ref, Dir, Traced, TracedPassNs.size() + 1, O, SR);
    TracedPassNs.push_back(double(SR.PassNs));
    L2Probes += SR.L2Probes;
    L2Hits += SR.L2Hits;
    TracedLoadStageNs += SR.LoadStageNs;
    TracedLoads += SR.Loads;
    O.count("ir.instrs_after_opt", SR.IrInstrs);
    O.count("codegen.vm_instrs", SR.VmInstrs);
  }

  // Serve path. The serve workloads split their window between the
  // server (queueing), an untraced replay and a traced replay; the ship
  // workload serves one round of its module set.
  if (!F->Srv)
    startServer(*F);
  double ServeSeconds = S.Serves ? Third : 0;
  std::vector<uint64_t> BusyBefore;
  for (const host::WorkerStats &W : F->Srv->servingStats().Workers)
    BusyBefore.push_back(W.BusyNs);
  LoopResult L = closedLoop(*F->Srv, F->Items, Start, Outstanding,
                            ServeSeconds, S.Serves ? 0 : F->Items.size(), O);
  uint64_t BusyNs = 0;
  std::vector<host::WorkerStats> After = F->Srv->servingStats().Workers;
  for (size_t W = 0; W < After.size(); ++W)
    BusyNs += After[W].BusyNs - (W < BusyBefore.size() ? BusyBefore[W] : 0);
  F->Srv->drain();
  O.note(formatStr("server phase: %llu requests in %.3f s, workers busy "
                   "%.3f s",
                   static_cast<unsigned long long>(L.Completed),
                   L.WallNs / 1e9, BusyNs / 1e9));

  ReplayResult RU, RT;
  Deadline = nowNs() + static_cast<uint64_t>(2 * ServeSeconds * 1e9);
  while (RT.Rounds == 0 || nowNs() < Deadline) {
    replay(*F->Set.Host, F->Items, Start, 1, Untraced, O, RU);
    replay(*F->Set.Host, F->Items, Start, 1, Traced, O, RT);
  }

  runOracle(S, *F, O);
  O.crossCheckCounts(A.StateDir, A.Workload + "-" + std::to_string(A.Seed) +
                                     "-" + binaryIdentity());

  // Per-layer metrics.
  Breakdown Ship = breakdown(Traced.spans(), "bench.pass");
  Breakdown Serve = breakdown(Traced.spans(), "bench.request");
  noteBreakdown(O, "bench.pass", Ship);
  noteBreakdown(O, "bench.request", Serve);
  auto Layer = [&](const Breakdown &B, const char *Name) {
    O.check(B.Layers.count(Name) != 0,
            std::string("no span recorded for layer ") + Name);
    O.metric(layerMetricName(Name), B.layerUs(Name), "us");
  };
  for (const char *Name : ShipLayers)
    Layer(Ship, Name);
  for (const char *Name : ServeLayers)
    Layer(Serve, Name);
  O.metric("ir.instrs_after_opt", double(O.countOf("ir.instrs_after_opt")),
           "count");
  O.metric("codegen.vm_instrs", double(O.countOf("codegen.vm_instrs")),
           "count");
  uint64_t VmInstrs = O.countOf("vm_instrs");
  uint64_t SimNs = 0, SimCalls = 0;
  for (unsigned T = 0; T < NT; ++T) {
    std::string Suffix = targetSuffix(target::allTargets(T));
    O.metric("translate.expansion." + Suffix,
             VmInstrs ? double(O.countOf("native_code_instrs." + Suffix)) /
                            VmInstrs
                      : 0,
             "x");
    auto It = Serve.Layers.find("target.simulate." + Suffix);
    uint64_t Ns = It == Serve.Layers.end() ? 0 : It->second.SelfNs;
    SimNs += Ns;
    SimCalls += It == Serve.Layers.end() ? 0 : It->second.Calls;
    O.metric("target.ns_per_instr." + Suffix,
             RT.Instrs[T] ? double(Ns) / RT.Instrs[T] : 0, "ns/instr");
  }
  O.metric("target.simulate_us", SimCalls ? nsToUs(SimNs) / SimCalls : 0,
           "us");
  O.metric("target.instrs", double(O.countOf("target.instrs")), "count");
  O.metric("host.l2_hit_ratio", L2Probes ? double(L2Hits) / L2Probes : 0,
           "1");
  O.metric("host.l1_hit_ratio",
           RT.L1Lookups ? double(RT.L1Hits) / RT.L1Lookups : 0, "1");
  // loadBytes wall time of the real passes minus the load-stage spans of
  // the traced replay, per load.
  double RealPerLoad = median(RealLoadNs) / double(2 * S.ShipSet.size() * NT);
  double StagePerLoad =
      TracedLoads ? double(TracedLoadStageNs) / TracedLoads : 0;
  O.metric("host.load_unattributed_us", (RealPerLoad - StagePerLoad) / 1e3,
           "us");
  double QueueMs = 0, ServiceMs = 0;
  for (size_t I = 0; I < L.QueueMs.size(); ++I) {
    QueueMs += L.QueueMs[I];
    ServiceMs += L.ServiceMs[I];
  }
  O.metric("host.queue_wait_ms", L.Completed ? QueueMs / L.Completed : 0,
           "ms");
  O.metric("host.service_ms", L.Completed ? ServiceMs / L.Completed : 0,
           "ms");
  O.metric("host.worker_busy_frac",
           L.WallNs ? double(BusyNs) / (double(L.WallNs) * Workers) : 0, "1");
  // Tracing overhead on the workload's own path: traced minus untraced
  // replay of the same work.
  double Overhead;
  if (S.Serves)
    Overhead = (double(RT.WallNs) / RT.Requests) /
                   (double(RU.WallNs) / RU.Requests) -
               1;
  else
    Overhead = median(TracedPassNs) / median(UntracedPassNs) - 1;
  O.metric("bench.trace_overhead_frac", Overhead, "1");
  O.metric("bench.unattributed_frac",
           S.Serves ? Serve.unattributedFrac() : Ship.unattributedFrac(),
           "1");

  std::string Path = A.StateDir + "/trace-" + A.Workload + ".json";
  std::string Error;
  O.check(exportSpans(Traced.spans(), Path, Error),
          "span export failed: " + Error);
  O.note("spans: " + Path);
  F.reset();
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <serve_light|serve_heavy|ship> "
                 "--seed <n> --seconds <s> --trace <0|1> --state-dir <dir>\n");
    return 2;
  }
  A.WorkDir = A.StateDir + "/work-" + std::to_string(getpid());
  std::error_code EC;
  std::filesystem::create_directories(A.WorkDir, EC);
  if (EC) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", A.StateDir.c_str());
    return 2;
  }
  Spec S = makeSpec(A);
  Outcome O;
  O.note(formatStr("workload %s seed %llu seconds %g trace %d",
                   A.Workload.c_str(),
                   static_cast<unsigned long long>(A.Seed), A.Seconds,
                   A.Trace ? 1 : 0));
  if (A.Trace)
    runTraced(S, A, O);
  else
    runEndToEnd(S, A, O);
  std::filesystem::remove_all(A.WorkDir, EC);
  O.print();
  return 0;
}
