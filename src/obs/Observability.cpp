//===--- obs/Observability.cpp - Tracing spans and runtime counters -------===//

#include "obs/Observability.h"

#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace ptran;

ObsRegistry::ObsRegistry() : Epoch(std::chrono::steady_clock::now()) {}

void ObsRegistry::addCounter(std::string_view Name, uint64_t Delta) {
  std::lock_guard<std::mutex> Lock(M);
  Counters[std::string(Name)] += Delta;
}

uint64_t ObsRegistry::counterValue(std::string_view Name) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Counters.find(std::string(Name));
  return It == Counters.end() ? 0 : It->second;
}

std::map<std::string, uint64_t> ObsRegistry::counters() const {
  std::lock_guard<std::mutex> Lock(M);
  return Counters;
}

unsigned ObsRegistry::tidOfLocked(std::thread::id Id) {
  auto [It, Inserted] = Tids.emplace(Id, static_cast<unsigned>(Tids.size()));
  (void)Inserted;
  return It->second;
}

void ObsRegistry::recordSpan(std::string Name, std::string Detail,
                             std::chrono::steady_clock::time_point Start,
                             std::chrono::steady_clock::time_point End) {
  using namespace std::chrono;
  SpanRecord R;
  R.Name = std::move(Name);
  R.Detail = std::move(Detail);
  R.StartNs = static_cast<uint64_t>(
      duration_cast<nanoseconds>(Start - Epoch).count());
  R.DurNs =
      static_cast<uint64_t>(duration_cast<nanoseconds>(End - Start).count());
  std::lock_guard<std::mutex> Lock(M);
  SpanTotals &T = TotalsByName[R.Name];
  ++T.Count;
  T.TotalNs += R.DurNs;
  T.MaxNs = std::max(T.MaxNs, R.DurNs);
  if (Spans.size() < MaxSpanRecords) {
    R.Tid = tidOfLocked(std::this_thread::get_id());
    Spans.push_back(std::move(R));
  }
}

std::vector<ObsRegistry::SpanRecord> ObsRegistry::spans() const {
  std::lock_guard<std::mutex> Lock(M);
  return Spans;
}

bool ObsRegistry::empty() const {
  std::lock_guard<std::mutex> Lock(M);
  return Spans.empty() && Counters.empty();
}

uint64_t ObsRegistry::nowNs() const {
  using namespace std::chrono;
  return static_cast<uint64_t>(
      duration_cast<nanoseconds>(steady_clock::now() - Epoch).count());
}

namespace {

/// Escapes a string for embedding in a JSON string literal.
std::string jsonEscape(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

/// Formats nanoseconds as Chrome's microsecond timestamps (fractional
/// microseconds keep sub-microsecond spans visible).
std::string microseconds(uint64_t Ns) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%llu.%03u",
                static_cast<unsigned long long>(Ns / 1000),
                static_cast<unsigned>(Ns % 1000));
  return Buf;
}

} // namespace

std::string ObsRegistry::chromeTraceJson() const {
  std::vector<SpanRecord> SpanCopy;
  std::map<std::string, uint64_t> CounterCopy;
  {
    std::lock_guard<std::mutex> Lock(M);
    SpanCopy = Spans;
    CounterCopy = Counters;
  }

  std::ostringstream Out;
  Out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  uint64_t LastNs = 0;
  for (const SpanRecord &S : SpanCopy) {
    if (!First)
      Out << ",";
    First = false;
    Out << "{\"name\":\"" << jsonEscape(S.Name)
        << "\",\"cat\":\"ptran\",\"ph\":\"X\",\"pid\":1,\"tid\":" << S.Tid
        << ",\"ts\":" << microseconds(S.StartNs)
        << ",\"dur\":" << microseconds(S.DurNs);
    if (!S.Detail.empty())
      Out << ",\"args\":{\"detail\":\"" << jsonEscape(S.Detail) << "\"}";
    Out << "}";
    LastNs = std::max(LastNs, S.StartNs + S.DurNs);
  }
  for (const auto &[Name, Value] : CounterCopy) {
    if (!First)
      Out << ",";
    First = false;
    Out << "{\"name\":\"" << jsonEscape(Name)
        << "\",\"cat\":\"ptran\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":"
        << microseconds(LastNs) << ",\"args\":{\"value\":" << Value << "}}";
  }
  Out << "]}";
  return Out.str();
}

bool ObsRegistry::writeChromeTrace(const std::string &Path,
                                   std::string &Error) const {
  std::ofstream Out(Path);
  if (!Out) {
    Error = "cannot open trace file '" + Path + "' for writing";
    return false;
  }
  Out << chromeTraceJson() << "\n";
  Out.flush();
  if (!Out) {
    Error = "failed writing trace file '" + Path + "'";
    return false;
  }
  return true;
}

std::string ObsRegistry::statsTable() const {
  std::vector<std::pair<std::string, SpanTotals>> Sorted;
  std::map<std::string, uint64_t> CounterCopy;
  {
    std::lock_guard<std::mutex> Lock(M);
    Sorted.assign(TotalsByName.begin(), TotalsByName.end());
    CounterCopy = Counters;
  }
  std::sort(Sorted.begin(), Sorted.end(), [](const auto &A, const auto &B) {
    if (A.second.TotalNs != B.second.TotalNs)
      return A.second.TotalNs > B.second.TotalNs;
    return A.first < B.first;
  });

  auto Ms = [](uint64_t Ns) { return formatDouble(Ns / 1e6, 4); };

  std::string Out = "=== observability: timing spans ===\n";
  TablePrinter SpanTable(
      {"span", "count", "total [ms]", "mean [ms]", "max [ms]"});
  for (const auto &[Name, A] : Sorted)
    SpanTable.addRow({Name, std::to_string(A.Count), Ms(A.TotalNs),
                      Ms(A.Count ? A.TotalNs / A.Count : 0), Ms(A.MaxNs)});
  Out += SpanTable.str();

  Out += "\n=== observability: counters ===\n";
  TablePrinter CounterTable({"counter", "value"});
  for (const auto &[Name, Value] : CounterCopy)
    CounterTable.addRow({Name, std::to_string(Value)});
  Out += CounterTable.str();
  return Out;
}
