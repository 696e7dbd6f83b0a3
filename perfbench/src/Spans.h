//===- perfbench/src/Spans.h - Benchmark-side span recorder -----*- C++ -*-===//
///
/// \file
/// Spans recorded by the benchmark around its own calls into each layer's
/// public functions. A span has a name, start, end, parent and request
/// id; spans stay in memory and are exported once, at the end of a run,
/// as a chrome://tracing file.
///
/// Naming: a span whose name starts with "bench." is a container (a
/// request, a pass, a phase) that the benchmark itself opened; its self
/// time is the end-to-end time no layer span covers. Every other span is
/// a layer span named "<src module>.<call>[.<target>]"; its metric is the
/// mean microseconds per call, named "<src module>.<call>_us[.<target>]".
///
/// A recorder that is off records nothing and reads no clock, so the same
/// code path runs traced and untraced.
///
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRec {
  const char *Name;
  uint64_t StartNs;
  uint64_t EndNs;
  int32_t Parent; ///< index into the recorder's spans, -1 for a root
  uint64_t Req;   ///< request / module id shared by one operation's spans
};

class Recorder {
public:
  explicit Recorder(bool On) : On(On) {}

  bool on() const { return On; }

  /// Opens a span under the innermost open span; returns its index (-1
  /// when off). \p Name must be a string literal or otherwise outlive the
  /// recorder.
  int32_t open(const char *Name, uint64_t Req);
  void close(int32_t Id);
  /// Records an already-measured span [StartNs, EndNs) under \p Parent.
  void attach(int32_t Parent, const char *Name, uint64_t StartNs,
              uint64_t EndNs);

  const std::vector<SpanRec> &spans() const { return Spans; }

private:
  bool On;
  int32_t Innermost = -1;
  std::vector<SpanRec> Spans;
};

/// RAII span.
class Scope {
public:
  Scope(Recorder &R, const char *Name, uint64_t Req = 0)
      : R(R), Id(R.open(Name, Req)) {}
  ~Scope() { R.close(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  int32_t id() const { return Id; }

private:
  Recorder &R;
  int32_t Id;
};

/// Self-time totals of one layer span name.
struct LayerTime {
  uint64_t Calls = 0;
  uint64_t SelfNs = 0;
  uint64_t TotalNs = 0; ///< including child spans
};

/// Self-time decomposition of the span trees rooted at spans named
/// \p Root: every layer's self time plus the containers' self time adds
/// up to the roots' total duration.
struct Breakdown {
  std::map<std::string, LayerTime> Layers;
  uint64_t Roots = 0;
  uint64_t RootNs = 0;      ///< summed duration of the roots
  uint64_t ContainerNs = 0; ///< self time of bench.* spans (unattributed)
  uint64_t LayerNs = 0;     ///< summed self time of layer spans
  /// Empty when every child lies inside its parent and siblings do not
  /// overlap; otherwise the first defect.
  std::string Defect;

  double unattributedFrac() const {
    return RootNs ? static_cast<double>(ContainerNs) / RootNs : 0;
  }
  /// Mean duration of one call of layer \p Name, children included.
  double layerUs(const std::string &Name) const;
};

Breakdown breakdown(const std::vector<SpanRec> &Spans, const char *Root);

/// "translate.translate.mips" -> "translate.translate_us.mips";
/// "frontend.parse" -> "frontend.parse_us".
std::string layerMetricName(const std::string &SpanName);

/// Writes \p Spans as a chrome://tracing JSON file, reads it back and
/// validates it with obs::validateJson. Returns false with \p Error set
/// when the file cannot be written or does not validate.
bool exportSpans(const std::vector<SpanRec> &Spans, const std::string &Path,
                 std::string &Error);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
