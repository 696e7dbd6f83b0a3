//===- perfbench/src/Serve.h - Closed-loop serving and replay ---*- C++ -*-===//
///
/// \file
/// The serving side of a workload. closedLoop() drives a host::Server
/// from one generator thread that keeps a fixed number of requests
/// outstanding, round-robin over preloaded modules, and checks every
/// response against its source's expected output. replay() sends the same
/// request sequence through ModuleHost::load (an L1 lookup),
/// createSession and Session::run on the calling thread, with a span
/// around each call when its recorder is on.
///
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_SERVE_H
#define PERFBENCH_SERVE_H

#include "Bench.h"
#include "Spans.h"

#include "host/Server.h"

namespace perfbench {

/// One preloaded module and the source it came from.
struct ServeItem {
  std::shared_ptr<const omni::host::LoadedModule> LM;
  const omni::vm::Module *Exe = nullptr;
  omni::target::TargetKind Kind = omni::target::TargetKind::Mips;
  const Source *Src = nullptr;
};

struct LoopResult {
  std::vector<double> LatencyMs; ///< submit -> response, per request
  std::vector<double> QueueMs;   ///< Response::QueueNs
  std::vector<double> ServiceMs; ///< Response::TotalNs - QueueNs
  uint64_t Completed = 0;
  uint64_t WallNs = 0; ///< first submit -> last response
};

/// Keeps \p Outstanding requests in flight against \p Srv, round-robin
/// over \p Items from index \p Start, until \p Seconds have passed (when
/// positive) or \p MaxRequests have been submitted (when non-zero), then
/// waits for the last response.
LoopResult closedLoop(omni::host::Server &Srv,
                      const std::vector<ServeItem> &Items, size_t Start,
                      unsigned Outstanding, double Seconds,
                      uint64_t MaxRequests, Outcome &O);

struct ReplayResult {
  uint64_t Rounds = 0;
  uint64_t Requests = 0;
  uint64_t WallNs = 0;
  uint64_t L1Lookups = 0;
  uint64_t L1Hits = 0;
  uint64_t Instrs[omni::target::NumTargets] = {}; ///< simulated, per target
};

/// Replays \p Rounds whole rounds of the request sequence on the calling
/// thread, adding to \p R.
void replay(omni::host::ModuleHost &Host, const std::vector<ServeItem> &Items,
            size_t Start, uint64_t Rounds, Recorder &Rec, Outcome &O,
            ReplayResult &R);

} // namespace perfbench

#endif // PERFBENCH_SERVE_H
