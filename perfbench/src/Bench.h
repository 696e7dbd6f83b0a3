//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
///
/// \file
/// Types every perfbench workload shares: the clock, the generated module
/// sources with their output oracles, run accounting (attempted / failed
/// operations, deterministic counts, metrics), and the summary statistics
/// the metrics are reported with.
///
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "driver/Compiler.h"
#include "target/TargetInfo.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}
inline double nsToMs(uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }
inline double nsToUs(uint64_t Ns) { return static_cast<double>(Ns) / 1e3; }

/// Lower-case target name, the suffix of per-target metric names.
const char *targetSuffix(omni::target::TargetKind Kind);

/// splitmix64 step: the benchmark's only source of randomness, so one
/// seed always generates the same inputs.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream);

/// One program the workloads ship and serve, with its output oracle.
struct Source {
  std::string Name;
  std::string Text;
  omni::driver::Language Lang = omni::driver::Language::MiniC;
  /// Expected program output. Pinned for the paper programs; for the
  /// light bodies it is filled at set-up by the reference interpreter.
  std::string Expected;
  bool Pinned = false;
};

/// The seven paper programs: li, compress, alvinn, eqntott in MiniC plus
/// the three Pascal ports, each with its pinned ExpectedOutput.
std::vector<Source> paperSources();

/// \p PerLanguage MiniC and \p PerLanguage Pascal serving bodies, with
/// salts drawn from \p Seed (stream \p Stream keeps workloads apart).
std::vector<Source> lightSources(uint64_t Seed, uint64_t Stream,
                                 unsigned PerLanguage);

/// Median of \p V (0 when empty).
double median(std::vector<double> V);

/// Linear-interpolation quantile of \p V at \p Q in [0,1].
double quantile(std::vector<double> V, double Q);

/// The highest percentile on a fixed ladder, at most \p Cap, that leaves
/// at least ten samples beyond it.
struct Tail {
  double Percentile = 50;
  double Value = 0;
  size_t Samples = 0; ///< samples in the distribution
  size_t Beyond = 0;  ///< samples above the percentile
};
Tail tailOf(const std::vector<double> &V, double Cap);

/// Run accounting. Every checked operation is attempted once; a failed
/// check is counted and its first reasons are printed to stderr.
class Outcome {
public:
  /// Counts one attempted operation; a false \p Ok counts a failure.
  bool check(bool Ok, const std::string &Why);
  /// Records a deterministic count. Recording the same name twice with
  /// different values is a failure (the determinism self-check).
  void count(const std::string &Name, uint64_t Value);
  void metric(const std::string &Name, double Value, const char *Unit);
  /// A human-readable line printed (as "# ...") before the result.
  void note(const std::string &Line);

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  uint64_t countOf(const std::string &Name) const;

  /// Compares the counts with the record of an earlier run of the same
  /// binary, workload and seed under \p StateDir, and extends the record.
  void crossCheckCounts(const std::string &StateDir, const std::string &Key);

  /// Prints the notes, then the result object as the last stdout line.
  void print() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    const char *Unit;
  };
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, uint64_t> Counts;
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
