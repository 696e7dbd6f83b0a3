//===- perfbench/src/Ship.cpp ----------------------------------------------===//

#include "Ship.h"

#include "codegen/OmniCodeGen.h"
#include "frontend/AST.h"
#include "frontend/Lowering.h"
#include "frontend/pascal/PascalAST.h"
#include "frontend/pascal/PascalFrontend.h"
#include "host/DiskCache.h"
#include "ir/IR.h"
#include "ir/Passes.h"
#include "sficheck/SfiChecker.h"
#include "vm/Linker.h"
#include "vm/Verifier.h"

#include <fcntl.h>
#include <filesystem>
#include <unistd.h>

using namespace omni;
using namespace perfbench;

namespace {

constexpr unsigned NT = target::NumTargets;

const char *const TranslateSpan[NT] = {
    "translate.translate.mips", "translate.translate.sparc",
    "translate.translate.ppc", "translate.translate.x86"};
const char *const CheckSpan[NT] = {"sficheck.check.mips",
                                   "sficheck.check.sparc",
                                   "sficheck.check.ppc", "sficheck.check.x86"};

/// Empties the L2 directory \p Dir and flushes its file system. Passes
/// store and delete thousands of files a second; without the flush, the
/// file system's backlog grows through a run and later passes time it
/// (on ext4 the store phase doubled within 20 seconds) rather than the
/// stores themselves.
void resetDir(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::error_code EC;
  fs::remove_all(Dir, EC);
  std::string Parent = fs::path(Dir).parent_path().string();
  int Fd = open(Parent.empty() ? "." : Parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd >= 0) {
    syncfs(Fd);
    close(Fd);
  }
}

uint64_t irInstrs(const ir::Program &P) {
  uint64_t N = 0;
  for (const ir::Function &F : P.Functions)
    for (const ir::Block &B : F.Blocks)
      N += B.Insts.size();
  return N;
}

/// Summed duration of the direct children of span \p Id.
uint64_t childNs(const Recorder &Rec, int32_t Id) {
  uint64_t N = 0;
  if (Id < 0)
    return 0;
  const std::vector<SpanRec> &S = Rec.spans();
  for (size_t I = Id + 1; I < S.size(); ++I)
    if (S[I].Parent == Id)
      N += S[I].EndNs - S[I].StartNs;
  return N;
}

/// The stages every load starts with, in ModuleHost::loadBytes's order:
/// deserialize, content hash, verify.
bool frontStages(Recorder &Rec, const std::vector<uint8_t> &Owx,
                 vm::Module &Exe, uint64_t &Hash) {
  std::string Error;
  bool Ok;
  {
    Scope S(Rec, "vm.deserialize");
    Ok = vm::Module::deserialize(Owx, Exe, Error);
  }
  {
    Scope S(Rec, "support.hash");
    Hash = host::ModuleHost::contentHash(Exe);
  }
  std::vector<std::string> Errors;
  if (Ok) {
    Scope S(Rec, "vm.verify");
    Ok = vm::verifyExecutable(Exe, Errors);
  }
  return Ok;
}

} // namespace

translate::TranslateOptions perfbench::loadOptions() {
  return translate::TranslateOptions::mobile(true);
}

uint64_t ShipResult::nativeTotal() const {
  uint64_t N = 0;
  for (uint64_t V : NativeInstrs)
    N += V;
  return N;
}

void perfbench::shipPass(const std::vector<Source> &Srcs,
                         const std::string &L2Dir, Outcome &O, ShipResult &R,
                         Shipped &Out) {
  const size_t NM = Srcs.size();
  const translate::TranslateOptions Opts = loadOptions();
  resetDir(L2Dir);
  R = ShipResult();
  R.ModuleNs.assign(NM, 0);
  Out.Exes.assign(NM, vm::Module());
  Out.Owx.assign(NM, {});
  std::vector<bool> Compiled(NM, false);

  // (a) compile, link, serialize.
  uint64_t Start = nowNs();
  for (size_t M = 0; M < NM; ++M) {
    uint64_t T0 = nowNs();
    driver::CompileOptions CO;
    CO.Lang = Srcs[M].Lang;
    std::string Error;
    Compiled[M] =
        driver::compileAndLink(Srcs[M].Text, CO, Out.Exes[M], Error);
    if (Compiled[M])
      Out.Owx[M] = Out.Exes[M].serialize();
    R.ModuleNs[M] += nowNs() - T0;
    if (!Compiled[M])
      O.check(false, "compile " + Srcs[M].Name + ": " + Error);
  }
  R.CompileNs = nowNs() - Start;

  // (b) cold loads into an empty L2.
  std::vector<host::LoadError> ColdErr(NM * NT), WarmErr(NM * NT);
  std::vector<std::shared_ptr<const host::LoadedModule>> Cold(NM * NT);
  Start = nowNs();
  {
    host::ModuleHost ColdHost;
    ColdHost.options().CacheDir = L2Dir;
    for (size_t M = 0; M < NM; ++M) {
      if (!Compiled[M])
        continue;
      for (unsigned T = 0; T < NT; ++T) {
        uint64_t T0 = nowNs();
        Cold[M * NT + T] = ColdHost.loadBytes(target::allTargets(T),
                                              Out.Owx[M], Opts,
                                              ColdErr[M * NT + T]);
        R.ModuleNs[M] += nowNs() - T0;
      }
    }
    R.ColdNs = nowNs() - Start;
  }

  // (c) a restarted host on the same directory: every load an L2 hit.
  Start = nowNs();
  Out.Host = std::make_unique<host::ModuleHost>();
  Out.Host->options().CacheDir = L2Dir;
  Out.Handles.assign(NM * NT, nullptr);
  for (size_t M = 0; M < NM; ++M) {
    if (!Compiled[M])
      continue;
    for (unsigned T = 0; T < NT; ++T) {
      uint64_t T0 = nowNs();
      Out.Handles[M * NT + T] = Out.Host->loadBytes(
          target::allTargets(T), Out.Owx[M], Opts, WarmErr[M * NT + T]);
      R.ModuleNs[M] += nowNs() - T0;
    }
  }
  R.RestartNs = nowNs() - Start;

  // Outputs of the pass, checked outside the phase timers.
  for (size_t M = 0; M < NM; ++M) {
    if (!Compiled[M])
      continue;
    uint64_t Hash = host::ModuleHost::contentHash(Out.Exes[M]);
    R.OwxBytes += Out.Owx[M].size();
    R.VmInstrs += Out.Exes[M].Code.size();
    for (unsigned T = 0; T < NT; ++T) {
      const auto &C = Cold[M * NT + T];
      const auto &W = Out.Handles[M * NT + T];
      std::string What =
          Srcs[M].Name + " on " + targetSuffix(target::allTargets(T));
      O.check(C && !C->WarmLoad && !C->DiskWarm && C->ContentHash == Hash,
              "cold load of " + What + ": " + ColdErr[M * NT + T].str());
      O.check(W && W->DiskWarm && W->ContentHash == Hash && C &&
                  W->Translation->CodeSize == C->Translation->CodeSize,
              "restart load of " + What + " was not an equal L2 hit: " +
                  WarmErr[M * NT + T].str());
      if (C)
        R.NativeInstrs[T] += C->Translation->CodeSize;
    }
  }
}

void perfbench::shipStages(const std::vector<Source> &Srcs,
                           const Shipped &Ref, const std::string &L2Dir,
                           Recorder &Rec, uint64_t PassId, Outcome &O,
                           StageResult &R) {
  const size_t NM = Srcs.size();
  const translate::TranslateOptions Opts = loadOptions();
  sficheck::CheckOptions CheckOpts;
  CheckOpts.Sfi = Opts.Sfi;
  CheckOpts.SfiReads = Opts.SfiReads;
  resetDir(L2Dir);
  R = StageResult();
  std::vector<std::vector<uint8_t>> Owx(NM);

  uint64_t PassStart = nowNs();
  Scope Pass(Rec, "bench.pass", PassId);

  // (a) compile: driver::compileAndLink, one public call at a time.
  {
    Scope Phase(Rec, "bench.compile_phase", PassId);
    for (size_t M = 0; M < NM; ++M) {
      Scope Module(Rec, "bench.compile", M + 1);
      DiagnosticEngine Diags;
      ir::Program P;
      bool Ok;
      if (Srcs[M].Lang == driver::Language::MiniC) {
        std::unique_ptr<minic::TranslationUnit> TU;
        {
          Scope S(Rec, "frontend.parse");
          TU = minic::parse(Srcs[M].Text, Diags);
        }
        Scope S(Rec, "frontend.lower");
        Ok = TU && minic::lowerToIR(*TU, P, Diags);
      } else {
        std::unique_ptr<pascal::Module> PM;
        {
          Scope S(Rec, "frontend.parse");
          PM = pascal::parse(Srcs[M].Text, Diags);
        }
        Scope S(Rec, "frontend.lower");
        Ok = PM && pascal::lowerToIR(*PM, P, Diags);
      }
      std::vector<std::string> Errors;
      if (Ok) {
        Scope S(Rec, "ir.verify");
        Ok = ir::verifyProgram(P, Errors);
      }
      if (Ok) {
        {
          Scope S(Rec, "ir.optimize");
          ir::optimizeProgram(P, ir::OptOptions::standard());
        }
        Scope S(Rec, "ir.addrfold");
        for (ir::Function &F : P.Functions)
          ir::foldIndexedAddressing(F);
      }
      R.IrInstrs += irInstrs(P);
      vm::Module Obj, Exe;
      std::string Error;
      if (Ok) {
        Scope S(Rec, "codegen.generate");
        Ok = codegen::generateOmniVM(P, codegen::CodeGenOptions(), Obj,
                                     Error);
      }
      R.VmInstrs += Obj.Code.size();
      if (Ok) {
        Scope S(Rec, "vm.verify_compile");
        Ok = vm::verifyObject(Obj, Errors);
      }
      if (Ok) {
        Scope S(Rec, "vm.link");
        Ok = vm::link({Obj}, vm::LinkOptions(), Exe, Errors);
      }
      if (Ok) {
        Scope S(Rec, "vm.verify_compile");
        Ok = vm::verifyExecutable(Exe, Errors);
      }
      if (Ok) {
        Scope S(Rec, "vm.serialize");
        Owx[M] = Exe.serialize();
      }
      O.check(Ok && Owx[M] == Ref.Owx[M],
              "stage replay of " + Srcs[M].Name +
                  " did not reproduce compileAndLink's image");
    }
  }

  // (b) cold loads, in ModuleHost::load's stage order, into an empty L2.
  {
    Scope Phase(Rec, "bench.cold_phase", PassId);
    host::DiskCache Disk(L2Dir);
    for (size_t M = 0; M < NM; ++M)
      for (unsigned T = 0; T < NT; ++T) {
        target::TargetKind Kind = target::allTargets(T);
        Scope Load(Rec, "bench.cold_load", M * NT + T + 1);
        vm::Module Exe;
        uint64_t Hash = 0;
        bool Ok = frontStages(Rec, Owx[M], Exe, Hash);
        std::string Error;
        translate::SegmentLayout Seg = host::ModuleHost::segmentFor(Exe);
        host::CacheKey Key = host::makeCacheKey(Hash, Kind, Opts, Seg);
        std::vector<uint8_t> Payload;
        if (Ok) {
          Scope S(Rec, "host.l2_probe_miss");
          Ok = Disk.load(Key, Payload) == host::DiskCache::Probe::Miss;
        }
        target::TargetCode Code;
        if (Ok) {
          Scope S(Rec, TranslateSpan[T]);
          Ok = translate::translate(Kind, Exe, Opts, Seg, Code, Error);
        }
        if (Ok) {
          Scope S(Rec, CheckSpan[T]);
          Ok = sficheck::checkTranslation(Kind, Code, Seg, CheckOpts).Ok;
        }
        if (Ok) {
          {
            Scope S(Rec, "host.l2_encode");
            Payload = host::encodeTranslationImage(Exe, Code);
          }
          Scope S(Rec, "host.l2_store");
          Ok = Disk.store(Key, Payload);
        }
        R.LoadStageNs += childNs(Rec, Load.id());
        ++R.Loads;
        const auto &H = Ref.Handles[M * NT + T];
        O.check(Ok && H && Code.Code.size() == H->Translation->CodeSize,
                "stage replay of the cold load of " + Srcs[M].Name + " on " +
                    targetSuffix(Kind) + " diverged from ModuleHost");
      }
  }

  // (c) restart: every probe must be a hit that decodes, re-hashes to the
  // key's content address, and re-proves.
  {
    Scope Phase(Rec, "bench.restart_phase", PassId);
    host::DiskCache Disk(L2Dir);
    for (size_t M = 0; M < NM; ++M)
      for (unsigned T = 0; T < NT; ++T) {
        target::TargetKind Kind = target::allTargets(T);
        Scope Load(Rec, "bench.restart_load", M * NT + T + 1);
        vm::Module Exe;
        uint64_t Hash = 0;
        bool Ok = frontStages(Rec, Owx[M], Exe, Hash);
        std::string Error;
        host::CacheKey Key = host::makeCacheKey(
            Hash, Kind, Opts, host::ModuleHost::segmentFor(Exe));
        std::vector<uint8_t> Payload;
        bool Hit = false;
        if (Ok) {
          Scope S(Rec, "host.l2_read");
          Hit = Disk.load(Key, Payload) == host::DiskCache::Probe::Hit;
        }
        ++R.L2Probes;
        R.L2Hits += Hit;
        vm::Module Decoded;
        target::TargetCode Code;
        Ok = Ok && Hit;
        if (Ok) {
          Scope S(Rec, "host.l2_decode");
          Ok = host::decodeTranslationImage(Payload, Kind, Decoded, Code,
                                            Error);
        }
        if (Ok) {
          Scope S(Rec, "support.hash");
          Ok = host::ModuleHost::contentHash(Decoded) == Key.ContentHash;
        }
        if (Ok) {
          Scope S(Rec, CheckSpan[T]);
          Ok = sficheck::checkTranslation(Kind, Code,
                                          host::ModuleHost::segmentFor(Exe),
                                          CheckOpts)
                   .Ok;
        }
        if (Ok) {
          Scope S(Rec, "host.l2_note_hit");
          Disk.noteHit(Key);
        }
        R.LoadStageNs += childNs(Rec, Load.id());
        ++R.Loads;
        const auto &H = Ref.Handles[M * NT + T];
        O.check(Ok && H && Code.Code.size() == H->Translation->CodeSize,
                "stage replay of the restart load of " + Srcs[M].Name +
                    " on " + targetSuffix(Kind) + " was not an equal L2 hit");
      }
  }
  R.PassNs = nowNs() - PassStart;
}
