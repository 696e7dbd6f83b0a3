//===- perfbench/src/Ship.h - compile -> cold load -> restart ---*- C++ -*-===//
///
/// \file
/// One ship pass takes a set of sources through three phases:
///   (a) compile, link and serialize every source;
///   (b) cold-load every image on all four targets with
///       ModuleHost::loadBytes, in a fresh host whose L2 directory is
///       empty, so every load translates, proves and stores to the L2;
///   (c) load the same images in a second fresh host on that directory,
///       so every load is an L2 hit that re-hashes and re-proves.
///
/// shipPass() runs the phases through driver::compileAndLink and
/// ModuleHost::loadBytes and times them from outside. shipStages() replays
/// the same work stage by stage, in the order those functions run them,
/// with a span around each call, and checks that the replay produces the
/// same bytes and code sizes as the real pass.
///
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_SHIP_H
#define PERFBENCH_SHIP_H

#include "Bench.h"
#include "Spans.h"

#include "host/ModuleHost.h"

#include <memory>

namespace perfbench {

/// Translation options of every load: the mobile default with SFI.
omni::translate::TranslateOptions loadOptions();

/// Timings and sizes of one real ship pass.
struct ShipResult {
  uint64_t CompileNs = 0; ///< phase (a)
  uint64_t ColdNs = 0;    ///< phase (b)
  uint64_t RestartNs = 0; ///< phase (c)
  /// Per source: its compile plus its four cold and four restart loads.
  std::vector<uint64_t> ModuleNs;
  uint64_t OwxBytes = 0;
  uint64_t VmInstrs = 0; ///< linked OmniVM instructions over all sources
  uint64_t NativeInstrs[omni::target::NumTargets] = {};

  uint64_t nativeTotal() const;
};

/// The module set a real pass shipped, kept alive to be served.
struct Shipped {
  std::vector<omni::vm::Module> Exes;
  std::vector<std::vector<uint8_t>> Owx;
  /// The restarted host of phase (c); every handle below lives in its L1.
  std::unique_ptr<omni::host::ModuleHost> Host;
  /// Handle of source M on target T at [M * NumTargets + T]; null when
  /// the load failed.
  std::vector<std::shared_ptr<const omni::host::LoadedModule>> Handles;
};

/// Runs one real ship pass over \p Srcs with the L2 in \p L2Dir (emptied
/// first). Every compile and load is checked into \p O.
void shipPass(const std::vector<Source> &Srcs, const std::string &L2Dir,
              Outcome &O, ShipResult &R, Shipped &Out);

/// Counts and totals of one stage-by-stage replay.
struct StageResult {
  uint64_t PassNs = 0;     ///< wall time of the whole replay
  uint64_t LoadStageNs = 0; ///< summed load-stage spans (traced only)
  uint64_t Loads = 0;
  uint64_t IrInstrs = 0; ///< IR instructions after optimization
  uint64_t VmInstrs = 0; ///< OmniVM instructions out of codegen
  uint64_t L2Probes = 0; ///< phase (c) L2 probes
  uint64_t L2Hits = 0;
};

/// Replays a ship pass stage by stage under spans in \p Rec (which may be
/// off). \p Ref is the real pass the replay must reproduce: same OWX bytes
/// per source, same native code size per load.
void shipStages(const std::vector<Source> &Srcs, const Shipped &Ref,
                const std::string &L2Dir, Recorder &Rec, uint64_t PassId,
                Outcome &O, StageResult &R);

} // namespace perfbench

#endif // PERFBENCH_SHIP_H
