//===- perfbench/src/Spans.cpp ---------------------------------------------===//

#include "Spans.h"

#include "Bench.h"

#include "obs/TraceExporter.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace perfbench;

int32_t Recorder::open(const char *Name, uint64_t Req) {
  if (!On)
    return -1;
  if (Req == 0 && Innermost >= 0)
    Req = Spans[Innermost].Req;
  Spans.push_back({Name, nowNs(), 0, Innermost, Req});
  Innermost = static_cast<int32_t>(Spans.size() - 1);
  return Innermost;
}

void Recorder::close(int32_t Id) {
  if (Id < 0)
    return;
  Spans[Id].EndNs = nowNs();
  Innermost = Spans[Id].Parent;
}

void Recorder::attach(int32_t Parent, const char *Name, uint64_t StartNs,
                      uint64_t EndNs) {
  if (!On)
    return;
  uint64_t Req = Parent >= 0 ? Spans[Parent].Req : 0;
  Spans.push_back({Name, StartNs, EndNs, Parent, Req});
}

static bool isContainer(const char *Name) {
  return std::strncmp(Name, "bench.", 6) == 0;
}

double Breakdown::layerUs(const std::string &Name) const {
  auto It = Layers.find(Name);
  if (It == Layers.end() || It->second.Calls == 0)
    return 0;
  return nsToUs(It->second.TotalNs) / static_cast<double>(It->second.Calls);
}

Breakdown perfbench::breakdown(const std::vector<SpanRec> &Spans,
                               const char *Root) {
  Breakdown B;
  std::vector<std::vector<int32_t>> Children(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Children[Spans[I].Parent].push_back(static_cast<int32_t>(I));

  std::vector<int32_t> Stack;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Parent < 0 && std::strcmp(Spans[I].Name, Root) == 0) {
      ++B.Roots;
      B.RootNs += Spans[I].EndNs - Spans[I].StartNs;
      Stack.push_back(static_cast<int32_t>(I));
    }
  while (!Stack.empty()) {
    int32_t Id = Stack.back();
    Stack.pop_back();
    const SpanRec &S = Spans[Id];
    std::vector<int32_t> &Kids = Children[Id];
    std::sort(Kids.begin(), Kids.end(), [&](int32_t A, int32_t C) {
      return Spans[A].StartNs < Spans[C].StartNs;
    });
    uint64_t Covered = 0, PrevEnd = S.StartNs;
    for (int32_t K : Kids) {
      const SpanRec &C = Spans[K];
      if (B.Defect.empty() &&
          (C.StartNs < PrevEnd || C.EndNs > S.EndNs || C.EndNs < C.StartNs))
        B.Defect = std::string("span ") + C.Name + " escapes its parent " +
                   S.Name + " or overlaps a sibling";
      PrevEnd = C.EndNs;
      Covered += C.EndNs - C.StartNs;
      Stack.push_back(K);
    }
    uint64_t Dur = S.EndNs - S.StartNs;
    uint64_t Self = Dur >= Covered ? Dur - Covered : 0;
    if (isContainer(S.Name)) {
      B.ContainerNs += Self;
    } else {
      LayerTime &L = B.Layers[S.Name];
      ++L.Calls;
      L.SelfNs += Self;
      L.TotalNs += Dur;
      B.LayerNs += Self;
    }
  }
  return B;
}

std::string perfbench::layerMetricName(const std::string &SpanName) {
  for (const char *T : {"mips", "sparc", "ppc", "x86"}) {
    std::string Suffix = std::string(".") + T;
    if (SpanName.size() > Suffix.size() &&
        SpanName.compare(SpanName.size() - Suffix.size(), Suffix.size(),
                         Suffix) == 0)
      return SpanName.substr(0, SpanName.size() - Suffix.size()) + "_us" +
             Suffix;
  }
  return SpanName + "_us";
}

bool perfbench::exportSpans(const std::vector<SpanRec> &Spans,
                            const std::string &Path, std::string &Error) {
  uint64_t Base = UINT64_MAX;
  for (const SpanRec &S : Spans)
    Base = std::min(Base, S.StartNs);
  std::vector<omni::obs::TraceEvent> Events;
  Events.reserve(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    omni::obs::TraceEvent E;
    E.Name = Spans[I].Name;
    E.Category = "perfbench";
    E.Kind = omni::obs::EventKind::Complete;
    E.TimeNs = Spans[I].StartNs - Base;
    E.DurNs = Spans[I].EndNs - Spans[I].StartNs;
    E.Correlation = Spans[I].Req;
    E.NumArgs = 3;
    E.ArgNames[0] = "span";
    E.ArgValues[0] = I + 1;
    E.ArgNames[1] = "parent"; // 0 for a root
    E.ArgValues[1] = static_cast<uint64_t>(Spans[I].Parent + 1);
    E.ArgNames[2] = "req";
    E.ArgValues[2] = Spans[I].Req;
    Events.push_back(E);
  }
  if (!omni::obs::writeChromeTrace(Path, Events, Error))
    return false;
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Text;
  Text << In.rdbuf();
  if (!omni::obs::validateJson(Text.str(), Error)) {
    Error = Path + ": " + Error;
    return false;
  }
  return true;
}
