//===- perfbench/src/Serve.cpp ---------------------------------------------===//

#include "Serve.h"

#include "Ship.h"

#include <condition_variable>
#include <mutex>

using namespace omni;
using namespace perfbench;

namespace {

const char *const SimulateSpan[target::NumTargets] = {
    "target.simulate.mips", "target.simulate.sparc", "target.simulate.ppc",
    "target.simulate.x86"};

/// Empty when \p R is the expected answer to a request for \p Src.
std::string wrongAnswer(const runtime::RunResult &R, const Source &Src) {
  if (R.Trap.Kind != vm::TrapKind::Halt)
    return Src.Name + " trapped: " + vm::printTrap(R.Trap) + " " + R.Output;
  if (R.Output != Src.Expected)
    return Src.Name + " printed [" + R.Output + "], expected [" +
           Src.Expected + "]";
  return std::string();
}

struct Completion {
  uint64_t SubmitNs, DoneNs, QueueNs, TotalNs;
  std::string Why; ///< empty on a correct response
};

struct LoopState {
  std::mutex Mu;
  std::condition_variable Cv;
  unsigned InFlight = 0;               ///< guarded by Mu
  std::vector<Completion> Completions; ///< guarded by Mu
};

} // namespace

LoopResult perfbench::closedLoop(host::Server &Srv,
                                 const std::vector<ServeItem> &Items,
                                 size_t Start, unsigned Outstanding,
                                 double Seconds, uint64_t MaxRequests,
                                 Outcome &O) {
  LoopResult R;
  if (!O.check(!Items.empty(), "no module loaded to serve"))
    return R;
  LoopState St;
  uint64_t Begin = nowNs();
  uint64_t Deadline =
      Begin + static_cast<uint64_t>(Seconds > 0 ? Seconds * 1e9 : 0);
  uint64_t Submitted = 0;
  for (size_t Next = Start;; ++Next) {
    {
      std::unique_lock<std::mutex> Lock(St.Mu);
      St.Cv.wait(Lock, [&] { return St.InFlight < Outstanding; });
      if ((Seconds > 0 && nowNs() >= Deadline) ||
          (MaxRequests && Submitted == MaxRequests))
        break;
      ++St.InFlight;
    }
    const ServeItem &It = Items[Next % Items.size()];
    host::Request Req;
    Req.Module = It.LM;
    Req.Kind = It.Kind;
    Req.Opts = loadOptions();
    uint64_t SubmitNs = nowNs();
    const Source *Src = It.Src;
    bool Accepted = Srv.submit(
        std::move(Req),
        [&St, Src, SubmitNs](host::Response Resp) {
          Completion C{SubmitNs, nowNs(), Resp.QueueNs, Resp.TotalNs, {}};
          if (!Resp.Executed)
            C.Why = Src->Name + " was refused: " + Resp.Load.str();
          else
            C.Why = wrongAnswer(Resp.Run, *Src);
          std::lock_guard<std::mutex> Lock(St.Mu);
          St.Completions.push_back(std::move(C));
          --St.InFlight;
          St.Cv.notify_all();
        },
        /*Wait=*/true);
    ++Submitted;
    if (!Accepted) {
      O.check(false, "the server refused a submit");
      std::lock_guard<std::mutex> Lock(St.Mu);
      --St.InFlight;
    }
  }
  std::unique_lock<std::mutex> Lock(St.Mu);
  St.Cv.wait(Lock, [&] { return St.InFlight == 0; });

  uint64_t LastDone = Begin;
  for (const Completion &C : St.Completions) {
    O.check(C.Why.empty(), C.Why);
    R.LatencyMs.push_back(nsToMs(C.DoneNs - C.SubmitNs));
    R.QueueMs.push_back(nsToMs(C.QueueNs));
    R.ServiceMs.push_back(nsToMs(C.TotalNs - C.QueueNs));
    LastDone = std::max(LastDone, C.DoneNs);
  }
  R.Completed = St.Completions.size();
  R.WallNs = LastDone - Begin;
  return R;
}

void perfbench::replay(host::ModuleHost &Host,
                       const std::vector<ServeItem> &Items, size_t Start,
                       uint64_t Rounds, Recorder &Rec, Outcome &O,
                       ReplayResult &R) {
  const translate::TranslateOptions Opts = loadOptions();
  uint64_t Begin = nowNs();
  for (uint64_t Round = 0; Round < Rounds; ++Round) {
    for (size_t I = 0; I < Items.size(); ++I) {
      const ServeItem &It = Items[(Start + I) % Items.size()];
      unsigned T = static_cast<unsigned>(It.Kind);
      // Bind time comes from the host's own BindNs counter; the snapshot
      // is taken outside the request span.
      uint64_t BindBefore = Rec.on() ? Host.stats().BindNs : 0;
      int32_t CreateId = -1;
      {
        Scope Request(Rec, "bench.request", ++R.Requests);
        host::LoadError Err;
        std::shared_ptr<const host::LoadedModule> LM;
        {
          Scope S(Rec, "host.l1_lookup");
          LM = Host.load(It.Kind, *It.Exe, Opts, Err);
        }
        ++R.L1Lookups;
        R.L1Hits += LM && LM->WarmLoad;
        std::unique_ptr<host::Session> Sess;
        {
          Scope S(Rec, "host.session_create");
          CreateId = S.id();
          Sess = Host.createSession(std::move(LM));
        }
        runtime::RunResult Run;
        {
          Scope S(Rec, SimulateSpan[T]);
          Run = Sess->run();
        }
        R.Instrs[T] += Run.InstrCount;
        std::string Why = wrongAnswer(Run, *It.Src);
        O.check(Why.empty(), Why);
        {
          Scope S(Rec, "vm.segment_free");
          Sess.reset();
        }
      }
      if (CreateId >= 0) {
        // Split the create span into the segment setup that precedes the
        // bind and the bind itself.
        uint64_t Bind = Host.stats().BindNs - BindBefore;
        const SpanRec &C = Rec.spans()[CreateId];
        uint64_t Split = C.EndNs - std::min(Bind, C.EndNs - C.StartNs);
        uint64_t CStart = C.StartNs, CEnd = C.EndNs;
        Rec.attach(CreateId, "vm.segment", CStart, Split);
        Rec.attach(CreateId, "host.bind", Split, CEnd);
      }
    }
    ++R.Rounds;
  }
  R.WallNs += nowNs() - Begin;
}
