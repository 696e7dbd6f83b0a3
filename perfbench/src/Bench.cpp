//===- perfbench/src/Bench.cpp ---------------------------------------------===//

#include "Bench.h"

#include "bench/Harness.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace omni;
using namespace perfbench;

const char *perfbench::targetSuffix(target::TargetKind Kind) {
  switch (Kind) {
  case target::TargetKind::Mips:
    return "mips";
  case target::TargetKind::Sparc:
    return "sparc";
  case target::TargetKind::Ppc:
    return "ppc";
  case target::TargetKind::X86:
    return "x86";
  }
  return "unknown";
}

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Stream + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

std::vector<Source> perfbench::paperSources() {
  std::vector<Source> Out;
  for (unsigned I = 0; I < workloads::NumWorkloads; ++I) {
    const workloads::Workload &W = workloads::getWorkload(I);
    Out.push_back({W.Name, W.Source, driver::Language::MiniC,
                   W.ExpectedOutput, true});
  }
  for (unsigned I = 0; I < workloads::NumWorkloads; ++I) {
    const workloads::Workload &W = workloads::getWorkload(I);
    if (W.PascalSource)
      Out.push_back({std::string(W.Name) + ".pas", W.PascalSource,
                     driver::Language::Pascal, W.ExpectedOutput, true});
  }
  return Out;
}

std::vector<Source> perfbench::lightSources(uint64_t Seed, uint64_t Stream,
                                            unsigned PerLanguage) {
  std::vector<Source> Out;
  for (unsigned I = 0; I < 2 * PerLanguage; ++I) {
    // Salts stay below 2^20 so every body compiles to the same shape.
    unsigned Salt =
        static_cast<unsigned>(mixSeed(Seed, Stream * 64 + I) % (1u << 20));
    bool Pascal = I % 2 == 1;
    Source S;
    S.Name = (Pascal ? "light.pas." : "light.c.") + std::to_string(Salt);
    S.Text = Pascal ? bench::servingWorkSourcePascal(Salt)
                    : bench::servingWorkSource(Salt);
    S.Lang = Pascal ? driver::Language::Pascal : driver::Language::MiniC;
    Out.push_back(std::move(S));
  }
  return Out;
}

double perfbench::median(std::vector<double> V) { return quantile(V, 0.5); }

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

Tail perfbench::tailOf(const std::vector<double> &V, double Cap) {
  static const double Ladder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  Tail T;
  T.Samples = V.size();
  for (double P : Ladder) {
    if (P > Cap)
      continue;
    size_t Beyond = static_cast<size_t>(
        std::floor(static_cast<double>(V.size()) * (100.0 - P) / 100.0));
    if (Beyond >= 10 || P == 50.0) {
      T.Percentile = P;
      T.Beyond = Beyond;
      T.Value = quantile(V, P / 100.0);
      return T;
    }
  }
  return T;
}

bool Outcome::check(bool Ok, const std::string &Why) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    if (Failed <= 20)
      std::fprintf(stderr, "perfbench: FAIL: %s\n", Why.c_str());
  }
  return Ok;
}

void Outcome::count(const std::string &Name, uint64_t Value) {
  auto It = Counts.find(Name);
  if (It == Counts.end()) {
    Counts.emplace(Name, Value);
    return;
  }
  check(It->second == Value,
        "count " + Name + " is not deterministic: " +
            std::to_string(It->second) + " then " + std::to_string(Value));
}

uint64_t Outcome::countOf(const std::string &Name) const {
  auto It = Counts.find(Name);
  return It == Counts.end() ? 0 : It->second;
}

void Outcome::metric(const std::string &Name, double Value,
                     const char *Unit) {
  if (!std::isfinite(Value)) {
    check(false, "metric " + Name + " is not finite");
    Value = 0;
  }
  Metrics.push_back({Name, Value, Unit});
}

void Outcome::note(const std::string &Line) { Notes.push_back(Line); }

void Outcome::crossCheckCounts(const std::string &StateDir,
                               const std::string &Key) {
  namespace fs = std::filesystem;
  std::string Path = StateDir + "/counts-" + Key + ".txt";
  std::map<std::string, uint64_t> Merged;
  {
    std::ifstream In(Path);
    std::string Name;
    uint64_t Value;
    while (In >> Name >> Value)
      Merged[Name] = Value;
  }
  bool Same = true;
  for (const auto &[Name, Value] : Counts) {
    auto It = Merged.find(Name);
    if (It != Merged.end() && It->second != Value) {
      Same = false;
      std::fprintf(stderr,
                   "perfbench: count %s was %llu in an earlier run of this "
                   "binary and seed, now %llu\n",
                   Name.c_str(), static_cast<unsigned long long>(It->second),
                   static_cast<unsigned long long>(Value));
    }
    Merged[Name] = Value;
  }
  check(Same, "deterministic counts differ from an earlier run (" + Path +
                  ")");
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::trunc);
    for (const auto &[Name, Value] : Merged)
      Out << Name << ' ' << Value << '\n';
  }
  std::error_code EC;
  fs::rename(Tmp, Path, EC);
  check(!EC, "cannot write the count record " + Path);
}

void Outcome::print() const {
  for (const std::string &N : Notes)
    std::printf("# %s\n", N.c_str());
  std::ostringstream OS;
  OS << "{\"correct\": " << (Failed == 0 && Attempted > 0 ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.12g", Metrics[I].Value);
    OS << (I ? ", " : "") << '"' << Metrics[I].Name << "\": {\"value\": "
       << Buf << ", \"unit\": \"" << Metrics[I].Unit << "\"}";
  }
  OS << "}}";
  std::printf("%s\n", OS.str().c_str());
  std::fflush(stdout);
}
