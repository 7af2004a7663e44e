//===--- perfbench/harness/Trace.h - In-memory spans ------------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracing: spans recorded around calls into each
/// layer's public functions, kept in memory and written out when the run
/// ends. A disabled tracer records nothing, so the traced and untraced
/// replays execute the same calls and their difference is the overhead.
///
/// A layer's self time is its span's duration minus the time its child
/// spans cover. Spans are single-threaded here: every replay that records
/// them runs on one thread.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
public:
  struct Span {
    const char *Name;
    uint64_t StartNs;
    uint64_t EndNs;
    int Parent;     ///< Index of the enclosing span, -1 for a root.
    uint64_t ReqId; ///< Request id on the daemon replays, else 0.
  };

  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  int begin(const char *Name, uint64_t ReqId = 0) {
    if (!Enabled)
      return -1;
    int Parent = Open.empty() ? -1 : Open.back();
    Spans.push_back({Name, nowNs(), 0, Parent, ReqId});
    Open.push_back(static_cast<int>(Spans.size() - 1));
    return Open.back();
  }
  void end(int Idx) {
    if (Idx < 0)
      return;
    Spans[Idx].EndNs = nowNs();
    Open.pop_back();
  }

  /// Self time per span name, in nanoseconds, summed over all spans.
  std::map<std::string, double> selfNs() const {
    std::vector<uint64_t> ChildNs(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildNs[S.Parent] += S.EndNs - S.StartNs;
    std::map<std::string, double> Out;
    for (size_t I = 0; I < Spans.size(); ++I)
      Out[Spans[I].Name] +=
          static_cast<double>(Spans[I].EndNs - Spans[I].StartNs - ChildNs[I]);
    return Out;
  }

  /// Appends the spans as JSON objects (one per line) to \p F.
  void writeJsonLines(std::FILE *F, const char *Replay) const {
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "{\"replay\":\"%s\",\"id\":%zu,\"name\":\"%s\","
                   "\"start_ns\":%llu,\"end_ns\":%llu,\"parent\":%d,"
                   "\"req\":%llu}\n",
                   Replay, I, S.Name,
                   static_cast<unsigned long long>(S.StartNs),
                   static_cast<unsigned long long>(S.EndNs), S.Parent,
                   static_cast<unsigned long long>(S.ReqId));
    }
  }

private:
  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// RAII span.
class Scoped {
public:
  Scoped(Tracer &T, const char *Name, uint64_t ReqId = 0)
      : T(T), Idx(T.begin(Name, ReqId)) {}
  ~Scoped() { T.end(Idx); }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  Tracer &T;
  int Idx;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
