//===--- serve/Server.cpp - Concurrent estimation daemon core -------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "parser/Parser.h"
#include "support/Bytes.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string_view>

using namespace ptran;
using namespace ptran::serve;

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

/// Full-precision double rendering: responses round-trip exactly, so the
/// serve_test can memcmp concurrent answers against serial references.
static std::string preciseDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

static std::optional<ProfileMode> parseMode(const std::string &Text) {
  std::string M = toLower(Text);
  if (M == "naive")
    return ProfileMode::Naive;
  if (M == "opt1")
    return ProfileMode::Opt1;
  if (M == "opt12")
    return ProfileMode::Opt12;
  if (M == "smart")
    return ProfileMode::Smart;
  return std::nullopt;
}

static std::optional<LoopVarianceMode> parseLoopVariance(
    const std::string &Text) {
  std::string M = toLower(Text);
  if (M == "zero")
    return LoopVarianceMode::Zero;
  if (M == "profiled")
    return LoopVarianceMode::Profiled;
  if (M == "geometric")
    return LoopVarianceMode::Geometric;
  if (M == "uniform")
    return LoopVarianceMode::Uniform;
  return std::nullopt;
}

/// The registry's size heuristic for one loaded program: a fixed per-
/// session floor (analyses, plan, runtime) plus the source text plus a
/// per-statement charge covering CFG/interval/FCDG/summary state.
static uint64_t sessionMemoryBytes(const std::string &Source,
                                   const Program &P) {
  uint64_t Stmts = 0;
  for (const auto &F : P.functions())
    Stmts += F->numStmts();
  return 96 * 1024 + Source.size() + Stmts * 2048;
}

/// Arms a per-request token from `deadline-ms` / `step-budget` params.
/// Returns false (with an error response in \p Resp) on malformed values;
/// sets \p Armed when any bound was installed.
static bool armRequestToken(const WireMessage &Request, uint64_t DefaultSteps,
                            CancelToken &Token, bool &Armed,
                            WireMessage &Resp) {
  Armed = false;
  if (Request.hasParam("deadline-ms")) {
    std::optional<double> Ms = parseDouble(Request.param("deadline-ms"));
    if (!Ms || *Ms < 0) {
      Resp = errorResponse("bad-request", "deadline-ms wants a non-negative "
                                          "number, got '" +
                                              Request.param("deadline-ms") +
                                              "'");
      return false;
    }
    Token.setDeadlineIn(std::chrono::nanoseconds(
        static_cast<int64_t>(*Ms * 1e6)));
    Armed = true;
  }
  uint64_t Steps = DefaultSteps;
  if (Request.hasParam("step-budget")) {
    std::optional<unsigned> S = parseUnsigned(Request.param("step-budget"));
    if (!S) {
      Resp = errorResponse("bad-request", "step-budget wants an unsigned "
                                          "integer, got '" +
                                              Request.param("step-budget") +
                                              "'");
      return false;
    }
    Steps = *S;
  }
  if (Steps > 0) {
    Token.setStepBudget(Steps);
    Armed = true;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// ServeCore
//===----------------------------------------------------------------------===//

void ServeCore::bump(const char *Counter, uint64_t Delta) {
  if (Opts.Obs)
    Opts.Obs->addCounter(Counter, Delta);
}

unsigned ServeCore::sessionCount() const {
  std::lock_guard<std::mutex> L(Mu);
  return static_cast<unsigned>(Sessions.size());
}

uint64_t ServeCore::residentBytes() const {
  std::lock_guard<std::mutex> L(Mu);
  return TotalBytes;
}

std::shared_ptr<ServeCore::SessionEntry>
ServeCore::findSession(const std::string &Name) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Sessions.find(Name);
  if (It == Sessions.end())
    return nullptr;
  It->second->LastUsed = ++Clock;
  return It->second;
}

void ServeCore::evictLocked(const SessionEntry *Keep) {
  // A standby never evicts on its own: its registry must track the
  // primary's byte-for-byte, and only a replicated SessionEvict record
  // (applied through applyRecord, not here) removes a session. Budget
  // pressure on a replica is a capacity-planning problem, not a
  // correctness lever.
  if (isReadOnly())
    return;
  while (Sessions.size() > 1 &&
         (TotalBytes > Opts.MemoryBudgetBytes ||
          Sessions.size() > Opts.MaxSessions)) {
    auto Victim = Sessions.end();
    for (auto It = Sessions.begin(); It != Sessions.end(); ++It) {
      if (It->second.get() == Keep)
        continue;
      if (Victim == Sessions.end() ||
          It->second->LastUsed < Victim->second->LastUsed)
        Victim = It;
    }
    if (Victim == Sessions.end())
      break;
    // In-flight requests on the victim keep their shared_ptr; the
    // registry just forgets the name, and the entry dies with its last
    // reference.
    durable::DurableRecord R;
    R.Type = durable::RecordType::SessionEvict;
    R.Session = Victim->first;
    TotalBytes -= Victim->second->MemBytes;
    Sessions.erase(Victim);
    journalAppend(R);
    bump("serve.evictions");
  }
}

WireMessage ServeCore::handle(const WireMessage &Request) {
  bump("serve.requests");
  // A standby answers reads and refuses every state change with a
  // structured error the client can route on (retry against the primary,
  // or wait for promotion). stream-deltas describe=1 is a read: it only
  // serves the cell-address table.
  if (isReadOnly() &&
      (Request.Verb == "load-program" || Request.Verb == "run" ||
       Request.Verb == "ingest-profile" || Request.Verb == "checkpoint" ||
       (Request.Verb == "stream-deltas" &&
        Request.param("describe") != "1"))) {
    bump("serve.read-only-rejects");
    bump("serve.errors");
    return errorResponse("read-only",
                         "this daemon is a standby replica: '" +
                             Request.Verb +
                             "' mutates state, which only the primary "
                             "accepts until this replica is promoted");
  }
  WireMessage Resp;
  if (Request.Verb == "ping" || Request.Verb == "shutdown")
    Resp = okResponse();
  else if (Request.Verb == "promote") {
    if (!Opts.Promote)
      Resp = errorResponse("bad-request",
                           "this daemon is not a standby (start ptran-serve "
                           "with --standby-of=SOCKET to replicate)");
    else {
      std::string Err;
      if (Opts.Promote(Err)) {
        bump("serve.promotions");
        Resp = okResponse();
        Resp.Params["role"] = "primary";
      } else {
        Resp = errorResponse("promote-failed", Err);
      }
    }
  } else if (Request.Verb == "load-program")
    Resp = handleLoadProgram(Request);
  else if (Request.Verb == "run")
    Resp = handleRun(Request);
  else if (Request.Verb == "estimate")
    Resp = handleEstimate(Request);
  else if (Request.Verb == "estimate-batch")
    Resp = handleEstimateBatch(Request);
  else if (Request.Verb == "stream-deltas")
    Resp = handleStreamDeltas(Request);
  else if (Request.Verb == "ingest-profile")
    Resp = handleIngestProfile(Request);
  else if (Request.Verb == "capture-profile")
    Resp = handleCaptureProfile(Request);
  else if (Request.Verb == "checkpoint")
    Resp = handleCheckpoint();
  else if (Request.Verb == "stats")
    Resp = handleStats();
  else
    Resp = errorResponse("bad-request",
                         "unknown verb '" + Request.Verb + "'");
  if (Resp.Verb == "error")
    bump("serve.errors");
  return Resp;
}

std::shared_ptr<ServeCore::SessionEntry>
ServeCore::buildEntry(const std::string &Name, std::string Source,
                      uint32_t Mode, uint32_t LoopVariance,
                      uint32_t OnBadProfile, std::string &Error) {
  auto Entry = std::make_shared<SessionEntry>();
  Entry->Name = Name;
  Entry->Source = std::move(Source);
  Entry->Mode = Mode;
  Entry->LoopVariance = LoopVariance;
  Entry->OnBadProfile = OnBadProfile;

  Entry->Prog = parseProgram(Entry->Source, Entry->Diags);
  if (!Entry->Prog) {
    Error = "program failed to parse: " + Entry->Diags.str();
    return nullptr;
  }

  EstimatorOptions EOpts(Entry->Diags);
  // Serial sessions: parallelism across requests comes from the
  // connection threads, not from fanning out every session's passes.
  EOpts.jobs(1).onDeadline(Opts.OnDeadline);
  EOpts.mode(static_cast<ProfileMode>(Mode))
      .loopVariance(static_cast<LoopVarianceMode>(LoopVariance))
      .onBadProfile(static_cast<BadProfilePolicy>(OnBadProfile));
  if (Opts.Obs)
    EOpts.observability(*Opts.Obs);

  Entry->Session = EstimationSession::create(*Entry->Prog, CostModel(), EOpts);
  if (!Entry->Session) {
    Error = "program failed analysis: " + Entry->Diags.str();
    return nullptr;
  }
  Entry->MemBytes = sessionMemoryBytes(Entry->Source, *Entry->Prog);
  return Entry;
}

void ServeCore::registerEntry(const std::shared_ptr<SessionEntry> &Entry,
                              bool JournalCreate) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Sessions.find(Entry->Name);
  if (It != Sessions.end()) {
    // Reload replaces: the old entry's in-flight requests finish on
    // their own reference.
    TotalBytes -= It->second->MemBytes;
    Sessions.erase(It);
  }
  Entry->LastUsed = ++Clock;
  TotalBytes += Entry->MemBytes;
  Sessions[Entry->Name] = Entry;
  if (JournalCreate) {
    durable::DurableRecord R;
    R.Type = durable::RecordType::SessionCreate;
    R.Session = Entry->Name;
    R.Source = Entry->Source;
    R.Mode = Entry->Mode;
    R.LoopVariance = Entry->LoopVariance;
    R.OnBadProfile = Entry->OnBadProfile;
    journalAppend(R);
  }
  evictLocked(Entry.get());
}

WireMessage ServeCore::handleLoadProgram(const WireMessage &Request) {
  std::string Name = Request.param("session");
  if (Name.empty())
    return errorResponse("bad-request", "load-program needs session=NAME");

  std::string Source;
  if (Request.hasParam("workload")) {
    std::string W = toLower(Request.param("workload"));
    const Workload *WL = nullptr;
    if (W == "loops")
      WL = &livermoreLoops();
    else if (W == "simple")
      WL = &simpleKernel();
    else
      return errorResponse("bad-request",
                           "unknown workload '" + W + "' (loops|simple)");
    Source = WL->Source;
  } else if (!Request.Body.empty()) {
    Source = Request.Body;
  } else {
    return errorResponse("bad-request", "load-program needs program source "
                                        "in the body or workload=loops|simple");
  }

  // Resolve the creation parameters to their wire (u32) encoding up front:
  // the SessionCreate record and every snapshot carry exactly these values,
  // so recovery rebuilds the session with the same configuration.
  uint32_t Mode = static_cast<uint32_t>(ProfileMode::Smart);
  uint32_t LoopVariance = static_cast<uint32_t>(LoopVarianceMode::Zero);
  uint32_t OnBadProfile = static_cast<uint32_t>(BadProfilePolicy::Fail);
  if (Request.hasParam("mode")) {
    std::optional<ProfileMode> M = parseMode(Request.param("mode"));
    if (!M)
      return errorResponse("bad-request", "unknown mode '" +
                                              Request.param("mode") +
                                              "' (naive|opt1|opt12|smart)");
    Mode = static_cast<uint32_t>(*M);
  }
  if (Request.hasParam("loop-variance")) {
    std::optional<LoopVarianceMode> LV =
        parseLoopVariance(Request.param("loop-variance"));
    if (!LV)
      return errorResponse("bad-request",
                           "unknown loop-variance '" +
                               Request.param("loop-variance") +
                               "' (zero|profiled|geometric|uniform)");
    LoopVariance = static_cast<uint32_t>(*LV);
  }
  if (Request.hasParam("on-bad-profile")) {
    std::string P = toLower(Request.param("on-bad-profile"));
    if (P == "fail")
      OnBadProfile = static_cast<uint32_t>(BadProfilePolicy::Fail);
    else if (P == "quarantine")
      OnBadProfile = static_cast<uint32_t>(BadProfilePolicy::Quarantine);
    else
      return errorResponse("bad-request", "unknown on-bad-profile '" + P +
                                              "' (fail|quarantine)");
  }

  // Parse + analyze outside every lock (the expensive part), then insert
  // and journal the SessionCreate as one structure-shared critical step.
  std::string Error;
  std::shared_ptr<SessionEntry> Entry = buildEntry(
      Name, std::move(Source), Mode, LoopVariance, OnBadProfile, Error);
  if (!Entry)
    return errorResponse("bad-program", Error);

  {
    std::shared_lock<std::shared_mutex> SL(StructureMu);
    registerEntry(Entry, /*JournalCreate=*/true);
  }
  bump("serve.loads");

  WireMessage Resp = okResponse();
  Resp.Params["session"] = Name;
  Resp.Params["functions"] =
      std::to_string(Entry->Prog->functions().size());
  Resp.Params["memory-bytes"] = std::to_string(Entry->MemBytes);
  return Resp;
}

WireMessage ServeCore::handleRun(const WireMessage &Request) {
  std::shared_ptr<SessionEntry> Entry = findSession(Request.param("session"));
  if (!Entry)
    return errorResponse("unknown-session", "no session named '" +
                                                Request.param("session") +
                                                "'");
  unsigned Runs = 1;
  if (Request.hasParam("runs")) {
    std::optional<unsigned> N = parseUnsigned(Request.param("runs"));
    if (!N || *N == 0)
      return errorResponse("bad-request", "runs wants a positive integer, "
                                          "got '" +
                                              Request.param("runs") + "'");
    Runs = *N;
  }
  RunResult Last;
  unsigned Done = 0;
  {
    // Shared structure lock + DurableMu: the runs and their RunExec
    // record are one atomic step against a concurrent checkpoint. The
    // journal records the runs that actually EXECUTED — a mid-loop
    // failure still mutated the session's counters Done times.
    std::shared_lock<std::shared_mutex> SL(StructureMu);
    std::lock_guard<std::mutex> DL(Entry->DurableMu);
    for (unsigned I = 0; I < Runs; ++I) {
      Last = Entry->Session->profiledRun();
      if (!Last.Ok)
        break;
      ++Done;
    }
    if (Done > 0) {
      durable::DurableRecord R;
      R.Type = durable::RecordType::RunExec;
      R.Session = Entry->Name;
      R.RunCount = Done;
      journalAppend(R);
    }
  }
  if (Done != Runs)
    return errorResponse("run-failed", Last.Error);
  bump("serve.runs", Runs);
  WireMessage Resp = okResponse();
  Resp.Params["runs"] = std::to_string(Entry->Session->runsExecuted());
  Resp.Params["cycles"] = preciseDouble(Last.Cycles);
  Resp.Params["statements"] = std::to_string(Last.StatementsExecuted);
  return Resp;
}

WireMessage ServeCore::handleEstimate(const WireMessage &Request) {
  std::shared_ptr<SessionEntry> Entry = findSession(Request.param("session"));
  if (!Entry)
    return errorResponse("unknown-session", "no session named '" +
                                                Request.param("session") +
                                                "'");
  CancelToken Token;
  bool Armed = false;
  WireMessage Resp;
  if (!armRequestToken(Request, Opts.DefaultStepBudget, Token, Armed, Resp))
    return Resp;

  std::vector<EstimateRequest> Reqs(1);
  Reqs[0].Function = Request.param("function");
  if (Request.hasParam("loop-variance")) {
    std::optional<LoopVarianceMode> LV =
        parseLoopVariance(Request.param("loop-variance"));
    if (!LV)
      return errorResponse("bad-request",
                           "unknown loop-variance '" +
                               Request.param("loop-variance") + "'");
    Reqs[0].LoopVariance = *LV;
  }

  std::vector<EstimateResult> Results =
      Entry->Session->estimate(Reqs, Armed ? &Token : nullptr);
  bump("serve.estimates");
  const EstimateResult &R = Results[0];
  if (!R.Ok)
    return errorResponse(Token.expired() ? "timeout" : "estimate-failed",
                         R.Error);

  Resp = okResponse();
  Resp.Params["function"] = R.F ? R.F->name() : Reqs[0].Function;
  Resp.Params["time"] = preciseDouble(R.Time);
  Resp.Params["var"] = preciseDouble(R.Var);
  Resp.Params["stddev"] = preciseDouble(R.StdDev);
  Resp.Params["degraded"] = R.Degraded ? "1" : "0";
  Resp.Params["quarantined"] = R.Quarantined ? "1" : "0";
  if (R.Degraded)
    Resp.Params["degrade-reason"] = R.DegradeReason;
  if (R.Quarantined)
    Resp.Params["quarantine-reason"] = R.QuarantineReason;
  return Resp;
}

WireMessage ServeCore::handleEstimateBatch(const WireMessage &Request) {
  std::shared_ptr<SessionEntry> Entry = findSession(Request.param("session"));
  if (!Entry)
    return errorResponse("unknown-session", "no session named '" +
                                                Request.param("session") +
                                                "'");
  std::optional<unsigned> Count = parseUnsigned(Request.param("count"));
  if (!Count || *Count == 0)
    return errorResponse("bad-request",
                         "estimate-batch needs count=N (N >= 1), got '" +
                             Request.param("count") + "'");
  // Backstop against a malformed client asking for millions of slots; real
  // batches are tens of functions.
  constexpr unsigned MaxBatch = 4096;
  if (*Count > MaxBatch)
    return errorResponse("bad-request",
                         "estimate-batch count " + std::to_string(*Count) +
                             " exceeds the cap of " +
                             std::to_string(MaxBatch));

  CancelToken Token;
  bool Armed = false;
  WireMessage Resp;
  if (!armRequestToken(Request, Opts.DefaultStepBudget, Token, Armed, Resp))
    return Resp;

  // A batch-wide `loop-variance` is the default; `loop-variance.I`
  // overrides it per query.
  std::optional<LoopVarianceMode> BatchLV;
  if (Request.hasParam("loop-variance")) {
    BatchLV = parseLoopVariance(Request.param("loop-variance"));
    if (!BatchLV)
      return errorResponse("bad-request",
                           "unknown loop-variance '" +
                               Request.param("loop-variance") + "'");
  }

  std::vector<EstimateRequest> Reqs(*Count);
  for (unsigned I = 0; I != *Count; ++I) {
    std::string Key = "function." + std::to_string(I);
    if (!Request.hasParam(Key))
      return errorResponse("bad-request",
                           "estimate-batch count=" + std::to_string(*Count) +
                               " but parameter '" + Key + "' is missing");
    Reqs[I].Function = Request.param(Key);
    Reqs[I].LoopVariance = BatchLV;
    std::string LVKey = "loop-variance." + std::to_string(I);
    if (Request.hasParam(LVKey)) {
      std::optional<LoopVarianceMode> LV =
          parseLoopVariance(Request.param(LVKey));
      if (!LV)
        return errorResponse("bad-request", "unknown loop-variance '" +
                                                Request.param(LVKey) +
                                                "' for " + LVKey);
      Reqs[I].LoopVariance = *LV;
    }
  }

  // Keys indexed at or past `count` would be silently dropped, and the
  // caller's queries and our answers would no longer line up one-to-one;
  // reject the disagreement instead of returning a misaligned response.
  for (const auto &[Key, Value] : Request.Params) {
    std::string_view K = Key;
    for (std::string_view Prefix : {"function.", "loop-variance."}) {
      if (K.size() <= Prefix.size() || K.substr(0, Prefix.size()) != Prefix)
        continue;
      std::optional<unsigned> Index =
          parseUnsigned(std::string(K.substr(Prefix.size())));
      if (!Index || *Index >= *Count)
        return errorResponse(
            "bad-request", "estimate-batch count=" + std::to_string(*Count) +
                               " but parameter '" + Key +
                               "' is outside indices 0.." +
                               std::to_string(*Count - 1) +
                               "; count disagrees with the keys sent");
    }
  }

  // One session call for the whole batch: the session answers every query
  // from one coherent analysis snapshot, and shared dirty functions are
  // recomputed once instead of once per query.
  std::vector<EstimateResult> Results =
      Entry->Session->estimate(Reqs, Armed ? &Token : nullptr);
  bump("serve.estimates", Results.size());
  bump("serve.estimate-batches");

  // Per-query failures are reported in-band (`ok.I` = 0 plus `error.I`)
  // so one unknown function does not discard its batch-mates' answers.
  Resp = okResponse();
  Resp.Params["count"] = std::to_string(Results.size());
  unsigned Failed = 0;
  for (unsigned I = 0; I != Results.size(); ++I) {
    const EstimateResult &R = Results[I];
    const std::string Suffix = "." + std::to_string(I);
    Resp.Params["ok" + Suffix] = R.Ok ? "1" : "0";
    if (!R.Ok) {
      ++Failed;
      Resp.Params["error" + Suffix] = R.Error;
      Resp.Params["error-code" + Suffix] =
          Token.expired() ? "timeout" : "estimate-failed";
      continue;
    }
    Resp.Params["function" + Suffix] = R.F ? R.F->name() : Reqs[I].Function;
    Resp.Params["time" + Suffix] = preciseDouble(R.Time);
    Resp.Params["var" + Suffix] = preciseDouble(R.Var);
    Resp.Params["stddev" + Suffix] = preciseDouble(R.StdDev);
    Resp.Params["degraded" + Suffix] = R.Degraded ? "1" : "0";
    Resp.Params["quarantined" + Suffix] = R.Quarantined ? "1" : "0";
    if (R.Degraded)
      Resp.Params["degrade-reason" + Suffix] = R.DegradeReason;
    if (R.Quarantined)
      Resp.Params["quarantine-reason" + Suffix] = R.QuarantineReason;
  }
  Resp.Params["failed"] = std::to_string(Failed);
  return Resp;
}

/// One stream-deltas record: u32 LE function index | u32 LE condition
/// index | f64 LE delta.
static constexpr size_t StreamRecordSize = 16;

WireMessage ServeCore::handleStreamDeltas(const WireMessage &Request) {
  std::shared_ptr<SessionEntry> Entry = findSession(Request.param("session"));
  if (!Entry)
    return errorResponse("unknown-session", "no session named '" +
                                                Request.param("session") +
                                                "'");
  CounterDeltaStream *Stream = streamFor(*Entry);

  // describe=1: serve the cell-address table clients encode records
  // against (function index in stream order, condition count per row).
  if (Request.param("describe") == "1") {
    WireMessage Resp = okResponse();
    Resp.Params["functions"] = std::to_string(Stream->numFunctions());
    for (unsigned I = 0; I != Stream->numFunctions(); ++I) {
      const std::string Suffix = "." + std::to_string(I);
      Resp.Params["function" + Suffix] = Stream->functionAt(I)->name();
      Resp.Params["conditions" + Suffix] =
          std::to_string(Stream->numConditions(I));
    }
    Resp.Params["epoch"] = std::to_string(Stream->currentEpoch());
    return Resp;
  }

  if (Request.Body.size() % StreamRecordSize != 0)
    return errorResponse(
        "bad-request",
        "stream-deltas body is " + std::to_string(Request.Body.size()) +
            " bytes, not a multiple of the " +
            std::to_string(StreamRecordSize) +
            "-byte record (u32 function | u32 condition | f64 delta)");

  uint64_t Appended = 0, Dropped = 0;
  if (!Request.Body.empty()) {
    CounterDeltaStream::Writer W = Stream->acquireWriter();
    if (!W)
      return errorResponse("overloaded",
                           "all stream writer slots are in use; retry");
    const uint8_t *B = reinterpret_cast<const uint8_t *>(Request.Body.data());
    for (size_t Off = 0; Off < Request.Body.size();
         Off += StreamRecordSize) {
      uint32_t FuncIdx = loadLE32(B + Off);
      uint32_t CondIdx = loadLE32(B + Off + 4);
      double Delta = std::bit_cast<double>(loadLE64(B + Off + 8));
      if (W.add(FuncIdx, CondIdx, Delta))
        ++Appended;
      else
        ++Dropped;
    }
  }
  bump("serve.stream-deltas");

  WireMessage Resp = okResponse();
  Resp.Params["appended"] = std::to_string(Appended);
  Resp.Params["dropped"] = std::to_string(Dropped);
  if (Request.param("flush") == "1") {
    // Seal the epoch and fold it into the session as one atomic batch;
    // the next estimate on this session re-runs only the dirty closure.
    // StructureMu shared is taken OUTSIDE flush() — the fold observer
    // cannot take it (checkpoint calls flush holding it unique).
    CounterDeltaStream::FlushReport FR;
    {
      std::shared_lock<std::shared_mutex> SL(StructureMu);
      FR = Stream->flush();
    }
    Resp.Params["epoch"] = std::to_string(FR.Epoch);
    Resp.Params["flushed-functions"] = std::to_string(FR.Functions);
    Resp.Params["flushed-cells"] = std::to_string(FR.Cells);
  } else {
    Resp.Params["epoch"] = std::to_string(Stream->currentEpoch());
  }
  return Resp;
}

WireMessage ServeCore::handleIngestProfile(const WireMessage &Request) {
  std::shared_ptr<SessionEntry> Entry = findSession(Request.param("session"));
  if (!Entry)
    return errorResponse("unknown-session", "no session named '" +
                                                Request.param("session") +
                                                "'");
  if (Request.Body.empty())
    return errorResponse("bad-request",
                         "ingest-profile needs a PTPF image in the body");
  CancelToken Token;
  bool Armed = false;
  WireMessage Resp;
  if (!armRequestToken(Request, Opts.DefaultStepBudget, Token, Armed, Resp))
    return Resp;

  std::vector<uint8_t> Bytes(Request.Body.begin(), Request.Body.end());
  DiagnosticEngine LoadDiags;
  std::optional<ProfileFile> PF = ProfileFile::deserialize(Bytes, &LoadDiags);
  if (!PF)
    return errorResponse("bad-profile",
                         "profile image failed to parse: " + LoadDiags.str());

  ProfileIngestReport Report;
  {
    // {ingest, journal} is one atomic step against checkpoint capture.
    // The journal stores the raw PTPF image: replay re-ingests the exact
    // bytes, so recovery reproduces the same accept/quarantine decisions.
    std::shared_lock<std::shared_mutex> SL(StructureMu);
    std::lock_guard<std::mutex> DL(Entry->DurableMu);
    Report = Entry->Session->ingestProfile(*PF, Armed ? &Token : nullptr);
    if (Report.Ok) {
      durable::DurableRecord R;
      R.Type = durable::RecordType::ProfileIngest;
      R.Session = Entry->Name;
      R.Profile = Bytes;
      journalAppend(R);
    }
  }
  bump("serve.ingests");
  if (!Report.Ok)
    return errorResponse(Token.expired() ? "timeout" : "bad-profile",
                         Report.Error);
  Resp = okResponse();
  Resp.Params["accepted"] = std::to_string(Report.Accepted);
  Resp.Params["quarantined"] = std::to_string(Report.Quarantined.size());
  if (!Report.Findings.empty())
    Resp.Params["findings"] = std::to_string(Report.Findings.size());
  return Resp;
}

WireMessage ServeCore::handleCaptureProfile(const WireMessage &Request) {
  std::shared_ptr<SessionEntry> Entry = findSession(Request.param("session"));
  if (!Entry)
    return errorResponse("unknown-session", "no session named '" +
                                                Request.param("session") +
                                                "'");
  std::vector<uint8_t> Bytes = Entry->Session->captureProfile().serialize();
  bump("serve.captures");
  WireMessage Resp = okResponse();
  Resp.Body.assign(Bytes.begin(), Bytes.end());
  return Resp;
}

WireMessage ServeCore::handleStats() {
  if (!Opts.Obs)
    return errorResponse("bad-request",
                         "this daemon runs without observability "
                         "(restart ptran-serve with --stats)");
  WireMessage Resp = okResponse();
  Resp.Body = Opts.Obs->statsTable();
  return Resp;
}

//===----------------------------------------------------------------------===//
// Durable state: journaling, checkpoint, restore, background flusher
//===----------------------------------------------------------------------===//

uint64_t ServeCore::journalAppend(durable::DurableRecord &R) {
  if (!Opts.Store)
    return 0;
  // A standby's journal is written ONLY through applyReplicatedBatch (the
  // primary's exact frames, primary's LSNs). Anything that would append
  // here on a standby — replay-triggered evictions, a stray fold — must
  // not: one local record would shift every subsequent LSN off the
  // primary's numbering.
  if (isReadOnly())
    return 0;
  std::string Err;
  uint64_t Lsn = Opts.Store->journal().append(R, Err);
  if (!Lsn) {
    // Degrade durability, keep serving: the record is lost to recovery
    // but the live session stays correct, and the reference a recovery
    // is compared against is rebuilt from the same journal.
    bump("durable.append_failures");
    std::fprintf(stderr,
                 "ptran-serve: journal append failed (durability degraded): "
                 "%s\n",
                 Err.c_str());
    return 0;
  }
  if (Opts.Repl) {
    // Wake shippers, then (ack=always) hold this request until a standby
    // reports the record fsynced. The hook takes no ServeCore locks and
    // its wait is bounded, so the locks held here (StructureMu shared,
    // DurableMu) stall at worst briefly when every standby is down.
    Opts.Repl->onAppend(Lsn);
    if (!Opts.Repl->waitDurable(Lsn))
      bump("repl.ack_timeouts");
  }
  return Lsn;
}

/// Brackets every stream epoch fold of one session: under the session's
/// DurableMu, apply the batch and journal the EpochFold (plus a one-time
/// SaturationMark per newly clamped function) as one atomic step. Takes
/// NO StructureMu — checkpoint() calls flush() while holding it unique;
/// every other flush call site takes it shared around flush() instead.
class ServeCore::DurableFoldObserver : public EpochFoldObserver {
public:
  DurableFoldObserver(ServeCore &Core, SessionEntry &Entry)
      : Core(Core), Entry(Entry) {}

  void onEpochFold(
      const std::vector<std::pair<const Function *, FrequencyTotals>> &Batch,
      const std::vector<const Function *> &Clamped,
      const std::function<void()> &Apply) override {
    std::lock_guard<std::mutex> L(Entry.DurableMu);
    Apply();
    durable::DurableRecord R;
    R.Type = durable::RecordType::EpochFold;
    R.Session = Entry.Name;
    for (const auto &[F, Totals] : Batch) {
      durable::FoldEntry FE;
      FE.Function = F->name();
      for (const auto &[Cond, Total] : Totals.Cond)
        FE.Conds.push_back(
            {Cond.Node, static_cast<uint8_t>(Cond.Label), Total});
      R.Folds.push_back(std::move(FE));
    }
    for (const Function *F : Clamped)
      R.Clamped.push_back(F->name());
    Core.journalAppend(R);
    // A clamped function's saturation diagnostic must survive restarts;
    // mark it once (the EpochFold's Clamped list already re-arms it on
    // replay, the standalone record covers journals whose fold rotated
    // into a snapshot that predates the saturation API).
    for (const Function *F : Clamped) {
      if (!Entry.JournaledSaturation.insert(F->name()).second)
        continue;
      durable::DurableRecord S;
      S.Type = durable::RecordType::SaturationMark;
      S.Session = Entry.Name;
      S.FunctionName = F->name();
      Core.journalAppend(S);
    }
  }

private:
  ServeCore &Core;
  SessionEntry &Entry;
};

CounterDeltaStream *ServeCore::streamFor(SessionEntry &Entry) {
  // StreamMu covers only the lazy construction race, never the append or
  // flush paths.
  std::lock_guard<std::mutex> L(Entry.StreamMu);
  if (!Entry.Stream) {
    CounterDeltaStream::Options SO;
    SO.Obs = Opts.Obs;
    Entry.Stream = CounterDeltaStream::create(*Entry.Session, SO);
    if (Opts.Store) {
      // Installed before the stream sees any traffic (the observer
      // pointer is read unsynchronized by flush()).
      Entry.FoldObs = std::make_unique<DurableFoldObserver>(*this, Entry);
      Entry.Stream->setFoldObserver(Entry.FoldObs.get());
    }
  }
  return Entry.Stream.get();
}

bool ServeCore::checkpoint(std::string &Error) {
  if (!Opts.Store)
    return true;
  // UNIQUE structure lock: every durable mutation holds StructureMu
  // shared around its {mutate, journal} pair, so between here and the
  // rotation the sessions and the journal cannot diverge.
  std::unique_lock<std::shared_mutex> SL(StructureMu);

  std::vector<std::shared_ptr<SessionEntry>> Entries;
  {
    std::lock_guard<std::mutex> L(Mu);
    for (const auto &[Name, Entry] : Sessions)
      Entries.push_back(Entry);
  }

  // 1. Seal outstanding stream epochs: their folds become journal
  // records below the watermark read next.
  for (const auto &Entry : Entries) {
    CounterDeltaStream *Stream = nullptr;
    {
      std::lock_guard<std::mutex> L(Entry->StreamMu);
      Stream = Entry->Stream.get();
    }
    if (Stream)
      Stream->flush();
  }

  // 2+3. Watermark, then snapshot every resident session at it.
  uint64_t W = Opts.Store->journal().lastLsn();
  std::set<std::string> Resident;
  for (const auto &Entry : Entries) {
    durable::DurableSessionState S;
    S.Name = Entry->Name;
    S.Source = Entry->Source;
    S.Mode = Entry->Mode;
    S.LoopVariance = Entry->LoopVariance;
    S.OnBadProfile = Entry->OnBadProfile;
    Entry->Session->captureDurableState(S);
    if (!Opts.Store->writeSnapshot(S, W, Error))
      return false; // Journal NOT rotated: nothing is lost, only long.
    Resident.insert(Entry->Name);
  }

  // 4. Evicted sessions must not resurrect from stale snapshots once the
  // journal (holding their SessionEvict record) rotates; a failed unlink
  // therefore aborts before rotation.
  if (!Opts.Store->pruneSnapshotsExcept(Resident, Error))
    return false;

  // 5. Every journal record is now covered by a watermark-W snapshot.
  // But a live subscriber still reading the tail would be forced into a
  // full re-bootstrap if we rotate it away — defer rotation until it
  // catches up, unless the journal has grown past the point where an
  // unbounded file is the bigger risk.
  if (Opts.Repl) {
    constexpr uint64_t RotateForceBytes = 256ull << 20;
    if (Opts.Repl->minSubscriberLsn() <= W &&
        Opts.Store->journal().sizeBytes() < RotateForceBytes) {
      bump("durable.checkpoints");
      bump("repl.rotations_deferred");
      return true;
    }
  }
  if (!Opts.Store->rotateJournal(Error))
    return false;
  bump("durable.checkpoints");
  return true;
}

void ServeCore::applySnapshotState(SessionEntry &Entry,
                                   const durable::DurableSessionState &State,
                                   std::vector<std::string> &Diagnostics) {
  // Order matters: quarantines first (an ingest skips quarantined
  // functions' sections, matching the original session's decisions), then
  // the profile image (run counters + loop moments), then the external
  // totals, then the saturation diagnostics.
  for (const auto &[Fn, Reason] : State.Quarantined)
    if (!Entry.Session->markQuarantined(Fn, Reason))
      Diagnostics.push_back("snapshot '" + State.Name +
                            "': quarantined function '" + Fn +
                            "' not found in the rebuilt program");
  if (!State.ProfileImage.empty()) {
    DiagnosticEngine LoadDiags;
    std::optional<ProfileFile> PF =
        ProfileFile::deserialize(State.ProfileImage, &LoadDiags);
    if (!PF) {
      Diagnostics.push_back("snapshot '" + State.Name +
                            "': profile image failed to parse: " +
                            LoadDiags.str());
    } else {
      ProfileIngestReport Rep = Entry.Session->ingestProfile(*PF, nullptr);
      if (!Rep.Ok)
        Diagnostics.push_back("snapshot '" + State.Name +
                              "': profile image failed to ingest: " +
                              Rep.Error);
    }
  }
  std::vector<std::pair<const Function *, FrequencyTotals>> Batch;
  for (const durable::FoldEntry &FE : State.External) {
    const Function *F = Entry.Prog->findFunction(FE.Function);
    if (!F) {
      Diagnostics.push_back("snapshot '" + State.Name + "': function '" +
                            FE.Function + "' not found; its totals dropped");
      continue;
    }
    FrequencyTotals T;
    T.Ok = true;
    for (const durable::CondTotal &C : FE.Conds)
      T.Cond[ControlCondition{C.Node, static_cast<CfgLabel>(C.Label)}] =
          C.Total;
    Batch.emplace_back(F, std::move(T));
  }
  if (!Batch.empty())
    Entry.Session->accumulateTotalsBatch(Batch);
  for (const std::string &Fn : State.Saturated) {
    const Function *F = Entry.Prog->findFunction(Fn);
    if (!F) {
      Diagnostics.push_back("snapshot '" + State.Name +
                            "': saturated function '" + Fn + "' not found");
      continue;
    }
    Entry.Session->noteExternalSaturation(*F);
    Entry.JournaledSaturation.insert(Fn);
  }
}

void ServeCore::restore(const durable::StateStore::Recovery &Recovered,
                        RestoreReport &Out) {
  // Boot-time only (before any connection thread exists), so no
  // StructureMu is needed; registerEntry with JournalCreate=false never
  // re-journals a replayed mutation — but evictions it triggers DO
  // journal their SessionEvict (a new state change, not a replayed one).
  std::map<std::string, uint64_t> Watermark;
  for (const durable::StateStore::RecoveredSession &RS :
       Recovered.Snapshots) {
    std::string Error;
    std::shared_ptr<SessionEntry> Entry =
        buildEntry(RS.State.Name, RS.State.Source, RS.State.Mode,
                   RS.State.LoopVariance, RS.State.OnBadProfile, Error);
    if (!Entry) {
      Out.Diagnostics.push_back("snapshot session '" + RS.State.Name +
                                "' no longer builds: " + Error);
      continue;
    }
    applySnapshotState(*Entry, RS.State, Out.Diagnostics);
    registerEntry(Entry, /*JournalCreate=*/false);
    Watermark[RS.State.Name] = RS.Watermark;
  }

  for (const durable::DurableRecord &R : Recovered.Records) {
    // Records at or below the session's snapshot watermark are already
    // folded into that snapshot (the crash-during-checkpoint double-apply
    // guard; LSNs are monotonic across rotations, so this stays sound no
    // matter where the crash landed).
    auto WIt = Watermark.find(R.Session);
    if (WIt != Watermark.end() && R.Lsn <= WIt->second) {
      ++Out.RecordsSkipped;
      continue;
    }
    ++Out.RecordsReplayed;
    applyRecord(R, Out.Diagnostics);
  }
  Out.SessionsRestored = sessionCount();
}

void ServeCore::applyRecord(const durable::DurableRecord &R,
                            std::vector<std::string> &Diagnostics) {
  const std::string Where =
      "journal LSN " + std::to_string(R.Lsn) + " ('" + R.Session + "')";
  switch (R.Type) {
  case durable::RecordType::SessionCreate: {
    std::string Error;
    std::shared_ptr<SessionEntry> Entry = buildEntry(
        R.Session, R.Source, R.Mode, R.LoopVariance, R.OnBadProfile, Error);
    if (!Entry) {
      Diagnostics.push_back(Where + ": session no longer builds: " + Error);
      break;
    }
    registerEntry(Entry, /*JournalCreate=*/false);
    break;
  }
  case durable::RecordType::SessionEvict: {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Sessions.find(R.Session);
    if (It != Sessions.end()) {
      TotalBytes -= It->second->MemBytes;
      Sessions.erase(It);
    }
    break;
  }
  case durable::RecordType::RunExec: {
    std::shared_ptr<SessionEntry> Entry = findSession(R.Session);
    if (!Entry) {
      Diagnostics.push_back(Where + ": no such session; runs dropped");
      break;
    }
    for (uint32_t I = 0; I < R.RunCount; ++I) {
      RunResult RR = Entry->Session->profiledRun();
      if (!RR.Ok) {
        Diagnostics.push_back(Where + ": replayed run failed: " + RR.Error);
        break;
      }
    }
    break;
  }
  case durable::RecordType::EpochFold: {
    std::shared_ptr<SessionEntry> Entry = findSession(R.Session);
    if (!Entry) {
      Diagnostics.push_back(Where + ": no such session; fold dropped");
      break;
    }
    std::vector<std::pair<const Function *, FrequencyTotals>> Batch;
    for (const durable::FoldEntry &FE : R.Folds) {
      const Function *F = Entry->Prog->findFunction(FE.Function);
      if (!F) {
        Diagnostics.push_back(Where + ": function '" + FE.Function +
                              "' not found; its totals dropped");
        continue;
      }
      FrequencyTotals T;
      T.Ok = true;
      for (const durable::CondTotal &C : FE.Conds)
        T.Cond[ControlCondition{C.Node, static_cast<CfgLabel>(C.Label)}] =
            C.Total;
      Batch.emplace_back(F, std::move(T));
    }
    if (!Batch.empty())
      Entry->Session->accumulateTotalsBatch(Batch);
    for (const std::string &Fn : R.Clamped) {
      const Function *F = Entry->Prog->findFunction(Fn);
      if (!F)
        continue;
      Entry->Session->noteExternalSaturation(*F);
      Entry->JournaledSaturation.insert(Fn);
    }
    break;
  }
  case durable::RecordType::ProfileIngest: {
    std::shared_ptr<SessionEntry> Entry = findSession(R.Session);
    if (!Entry) {
      Diagnostics.push_back(Where + ": no such session; profile dropped");
      break;
    }
    DiagnosticEngine LoadDiags;
    std::optional<ProfileFile> PF =
        ProfileFile::deserialize(R.Profile, &LoadDiags);
    if (!PF) {
      Diagnostics.push_back(Where + ": profile failed to parse: " +
                            LoadDiags.str());
      break;
    }
    ProfileIngestReport Rep = Entry->Session->ingestProfile(*PF, nullptr);
    if (!Rep.Ok)
      Diagnostics.push_back(Where + ": profile failed to ingest: " +
                            Rep.Error);
    break;
  }
  case durable::RecordType::SaturationMark: {
    std::shared_ptr<SessionEntry> Entry = findSession(R.Session);
    if (!Entry) {
      Diagnostics.push_back(Where + ": no such session; mark dropped");
      break;
    }
    const Function *F = Entry->Prog->findFunction(R.FunctionName);
    if (!F) {
      Diagnostics.push_back(Where + ": function '" + R.FunctionName +
                            "' not found; mark dropped");
      break;
    }
    Entry->Session->noteExternalSaturation(*F);
    Entry->JournaledSaturation.insert(R.FunctionName);
    break;
  }
  }
}

//===----------------------------------------------------------------------===//
// Replication: primary-side capture, standby-side apply
//===----------------------------------------------------------------------===//

bool ServeCore::captureBootstrap(BootstrapCapture &Out, std::string &Error) {
  if (!Opts.Store) {
    Error = "this daemon runs without durable state; nothing to replicate";
    return false;
  }
  // checkpoint()'s barrier without its disk IO: under StructureMu unique
  // no mutation can land between the stream flushes, the watermark read,
  // and the captures, so every image covers exactly LSNs <= Watermark.
  std::unique_lock<std::shared_mutex> SL(StructureMu);

  std::vector<std::shared_ptr<SessionEntry>> Entries;
  {
    std::lock_guard<std::mutex> L(Mu);
    for (const auto &[Name, Entry] : Sessions)
      Entries.push_back(Entry);
  }
  for (const auto &Entry : Entries) {
    CounterDeltaStream *Stream = nullptr;
    {
      std::lock_guard<std::mutex> L(Entry->StreamMu);
      Stream = Entry->Stream.get();
    }
    if (Stream)
      Stream->flush();
  }

  Out.Watermark = Opts.Store->journal().lastLsn();
  Out.Snapshots.clear();
  for (const auto &Entry : Entries) {
    durable::DurableSessionState S;
    S.Name = Entry->Name;
    S.Source = Entry->Source;
    S.Mode = Entry->Mode;
    S.LoopVariance = Entry->LoopVariance;
    S.OnBadProfile = Entry->OnBadProfile;
    Entry->Session->captureDurableState(S);
    Out.Snapshots.push_back(
        {Entry->Name, durable::encodeSnapshot(S, Out.Watermark)});
  }
  bump("repl.bootstraps_served");
  return true;
}

bool ServeCore::adoptSnapshotImage(const std::vector<uint8_t> &Image,
                                   std::vector<std::string> &Diagnostics,
                                   std::string &Error) {
  durable::DurableSessionState State;
  uint64_t Watermark = 0;
  if (!durable::decodeSnapshot(Image.data(), Image.size(), State, Watermark,
                               Error))
    return false;
  std::shared_ptr<SessionEntry> Entry =
      buildEntry(State.Name, State.Source, State.Mode, State.LoopVariance,
                 State.OnBadProfile, Error);
  if (!Entry)
    return false;
  applySnapshotState(*Entry, State, Diagnostics);
  // Persist the image locally BEFORE adopting it: a standby that crashes
  // mid-bootstrap recovers from its own snapshots like any daemon, and
  // the watermark carried inside the image keeps the double-apply guard
  // sound against the journal tail resetTo() installs next.
  if (!Opts.Store->writeSnapshot(State, Watermark, Error))
    return false;
  std::shared_lock<std::shared_mutex> SL(StructureMu);
  registerEntry(Entry, /*JournalCreate=*/false);
  return true;
}

void ServeCore::clearAllSessions() {
  std::unique_lock<std::shared_mutex> SL(StructureMu);
  std::lock_guard<std::mutex> L(Mu);
  Sessions.clear();
  TotalBytes = 0;
}

bool ServeCore::applyReplicatedBatch(const uint8_t *Frames, size_t Len,
                                     uint64_t FirstLsn, uint32_t Count,
                                     bool Sync, uint64_t &AppliedLsn,
                                     std::vector<std::string> &Diagnostics,
                                     std::string &Error) {
  if (!Opts.Store) {
    Error = "this daemon runs without durable state; cannot apply frames";
    return false;
  }
  // ONE StructureMu hold across {journal write-ahead, fsync, apply}: a
  // concurrent standby checkpoint (StructureMu unique) can run before or
  // after this batch but never between its journal write and its apply —
  // in between, the snapshot watermark would cover LSNs the sessions have
  // not absorbed yet, and rotation would drop them forever.
  std::shared_lock<std::shared_mutex> SL(StructureMu);
  std::vector<durable::DurableRecord> Records;
  if (!Opts.Store->journal().appendRaw(Frames, Len, FirstLsn, Count, &Records,
                                       Error))
    return false;
  if (FaultInjection::maybeCrashAt("repl.journal"))
    FaultInjection::dieAtCrashPoint();
  if (Sync) {
    std::string SyncErr;
    if (!Opts.Store->journal().sync(SyncErr))
      // The frames are journaled and WILL be applied (skipping them here
      // would desync the live sessions from the journal); the failed
      // fsync only weakens the durability this ack level promised.
      Diagnostics.push_back("journal fsync failed (ack overstates "
                            "durability): " +
                            SyncErr);
  }
  for (const durable::DurableRecord &R : Records)
    applyRecord(R, Diagnostics);
  if (FaultInjection::maybeCrashAt("repl.apply"))
    FaultInjection::dieAtCrashPoint();
  AppliedLsn = FirstLsn + Count - 1;
  bump("repl.batches_applied");
  bump("repl.records_applied", Count);
  return true;
}

void ServeCore::startFlusher() {
  if (!Opts.Store)
    return;
  {
    std::lock_guard<std::mutex> L(FlusherMu);
    FlusherStop = false;
  }
  Flusher = std::thread([this] { flusherLoop(); });
}

void ServeCore::stopFlusher() {
  {
    std::lock_guard<std::mutex> L(FlusherMu);
    FlusherStop = true;
  }
  FlusherCv.notify_all();
  if (Flusher.joinable())
    Flusher.join();
}

void ServeCore::flusherLoop() {
  using SteadyClock = std::chrono::steady_clock;
  // Tick faster than the flush cadence so the cell-count threshold is
  // checked promptly between staleness deadlines; a staleness bound
  // tighter than the sync cadence tightens the tick with it.
  auto Tick =
      std::chrono::milliseconds(std::max(10u, Opts.FlushIntervalMs / 4));
  if (Opts.FlushMaxStalenessMs != 0)
    Tick = std::min(Tick, std::chrono::milliseconds(
                              std::max(5u, Opts.FlushMaxStalenessMs / 2)));
  auto LastSync = SteadyClock::now();
  auto LastCheckpoint = SteadyClock::now();
  // When each session's stream FIRST showed pending appends (erased on
  // flush): the epoch's age for the --flush-max-staleness-ms bound.
  std::map<const SessionEntry *, SteadyClock::time_point> PendingSince;
  for (;;) {
    {
      std::unique_lock<std::mutex> L(FlusherMu);
      if (FlusherCv.wait_for(L, Tick, [this] { return FlusherStop; }))
        return;
    }
    auto Now = SteadyClock::now();
    bool SyncDue =
        Now - LastSync >= std::chrono::milliseconds(Opts.FlushIntervalMs);

    std::vector<std::shared_ptr<SessionEntry>> Entries;
    {
      std::lock_guard<std::mutex> L(Mu);
      for (const auto &[Name, Entry] : Sessions)
        Entries.push_back(Entry);
    }
    // Drop staleness stamps of evicted sessions so the map tracks only
    // live entries.
    for (auto It = PendingSince.begin(); It != PendingSince.end();) {
      bool Live = false;
      for (const auto &Entry : Entries)
        if (Entry.get() == It->first) {
          Live = true;
          break;
        }
      It = Live ? std::next(It) : PendingSince.erase(It);
    }
    for (const auto &Entry : Entries) {
      CounterDeltaStream *Stream = nullptr;
      {
        std::lock_guard<std::mutex> L(Entry->StreamMu);
        Stream = Entry->Stream.get();
      }
      if (!Stream || Stream->pendingAppends() == 0) {
        PendingSince.erase(Entry.get());
        continue;
      }
      bool Stale = false;
      if (Opts.FlushMaxStalenessMs != 0) {
        auto [It, Fresh] = PendingSince.try_emplace(Entry.get(), Now);
        Stale = !Fresh &&
                Now - It->second >=
                    std::chrono::milliseconds(Opts.FlushMaxStalenessMs);
      }
      // Seal stale (or threshold-crossing) epochs so their deltas reach
      // the journal; bounds loss under FsyncPolicy::Batch to one flush
      // interval (or staleness bound) of appends.
      if (SyncDue || Stale ||
          Stream->pendingAppends() >= Opts.FlushCellThreshold) {
        {
          std::shared_lock<std::shared_mutex> SL(StructureMu);
          Stream->flush();
        }
        PendingSince.erase(Entry.get());
        if (Stale)
          bump("stream.staleness_flushes");
      }
    }
    if (SyncDue) {
      // FsyncPolicy::Batch's flush point.
      std::string Err;
      if (!Opts.Store->journal().sync(Err))
        std::fprintf(stderr, "ptran-serve: journal sync failed: %s\n",
                     Err.c_str());
      LastSync = Now;
    }
    if (Opts.SnapshotIntervalMs != 0 &&
        Now - LastCheckpoint >=
            std::chrono::milliseconds(Opts.SnapshotIntervalMs)) {
      std::string Err;
      if (!checkpoint(Err))
        std::fprintf(stderr, "ptran-serve: periodic checkpoint failed: %s\n",
                     Err.c_str());
      LastCheckpoint = Now;
    }
  }
}

WireMessage ServeCore::handleCheckpoint() {
  if (!Opts.Store)
    return errorResponse("bad-request",
                         "this daemon runs without durable state "
                         "(restart ptran-serve with --state-dir)");
  std::string Error;
  if (!checkpoint(Error))
    return errorResponse("durable-failure", Error);
  bump("serve.checkpoints");
  WireMessage Resp = okResponse();
  Resp.Params["journal-next-lsn"] =
      std::to_string(Opts.Store->journal().nextLsn());
  Resp.Params["journal-bytes"] =
      std::to_string(Opts.Store->journal().sizeBytes());
  return Resp;
}
