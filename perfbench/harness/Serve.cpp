//===--- perfbench/harness/Serve.cpp - Daemon load and replays ------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon half of the harness:
///
///   - session programs and their setup on a live `ptran-serve`;
///   - a seeded open-loop generator: Poisson arrivals from one process
///     over a few blocking connections, every request timed from its
///     scheduled send time, every answer checked;
///   - the quiesced primary / standby / in-process comparison;
///   - a traced in-process replay of the same request sequence through
///     ServeCore::handle, with the session, stream, journal and
///     replication layers timed from here (a ReplicationHooks wrapper
///     forwards to the real JournalShipper).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "durable/Journal.h"
#include "durable/StateStore.h"
#include "parser/Parser.h"
#include "repl/Replication.h"
#include "repl/Standby.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Wire.h"
#include "session/EstimationSession.h"
#include "stream/DeltaStream.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace perfbench;
using namespace ptran;
using namespace ptran::serve;

namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Session programs
//===----------------------------------------------------------------------===//

struct SessionSpec {
  std::string Name;
  std::string Source;
  std::vector<std::string> Funcs;
  /// Conditions per stream cell row (from `stream-deltas describe=1`).
  std::vector<unsigned> Conds;
  /// The PTPF image captured after setup; re-ingested by the traffic.
  std::string Image;
};

bool writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Data;
  return static_cast<bool>(Out.flush());
}

std::vector<std::string> functionNames(const std::string &Source) {
  DiagnosticEngine Diags;
  std::vector<std::string> Out;
  if (auto P = parseProgram(Source, Diags))
    for (const auto &F : P->functions())
      Out.push_back(F->name());
  return Out;
}

/// Reads sessions s0, s1, ... from \p Dir; with \p WithSetup, also the
/// image and cell table serve-setup saved.
bool loadSessions(const std::string &Dir, bool WithSetup,
                  std::vector<SessionSpec> &Out, std::string &Error) {
  for (unsigned I = 0;; ++I) {
    SessionSpec S;
    S.Name = "s" + std::to_string(I);
    std::string Base = Dir + "/" + S.Name;
    if (!readFile(Base + ".f", S.Source))
      break;
    S.Funcs = functionNames(S.Source);
    if (S.Funcs.empty()) {
      Error = Base + ".f does not parse";
      return false;
    }
    if (WithSetup) {
      std::string Cells;
      if (!readFile(Base + ".ptpf", S.Image) ||
          !readFile(Base + ".cells", Cells)) {
        Error = "missing setup output for " + S.Name;
        return false;
      }
      std::istringstream In(Cells);
      unsigned N;
      while (In >> N)
        S.Conds.push_back(N);
    }
    Out.push_back(std::move(S));
  }
  if (Out.empty()) {
    Error = "no session programs in " + Dir;
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

enum Kind : unsigned { Estimate, Batch, Ingest, Stream, NumKinds };
const char *const KindVerb[NumKinds] = {"estimate", "estimate-batch",
                                        "ingest-profile", "stream-deltas"};
bool isMutation(unsigned K) { return K == Ingest || K == Stream; }

struct Op {
  Kind K = Estimate;
  unsigned Sess = 0;
  std::vector<unsigned> Funcs; ///< Estimate / batch targets.
  std::string StreamBody;      ///< Packed 16-byte delta records.
  double AtSec = 0;            ///< Scheduled send time in the phase.
};

/// The traffic mix. `read`: 1 in 8 an ingest-profile of a captured
/// image, 1 in 16 a 4-function estimate-batch, the rest estimates.
/// `write`: half mutations (ingest-profile, stream-deltas with flush=1),
/// half estimates.
Kind drawKind(const std::string &Mix, perfbench::Rng &R) {
  double U = R.unit();
  if (Mix == "write")
    return U < 0.25 ? Ingest : U < 0.5 ? Stream : U < 0.875 ? Estimate : Batch;
  return U < 0.125 ? Ingest : U < 0.1875 ? Batch : Estimate;
}

void appendDelta(std::string &Body, uint32_t Func, uint32_t Cond,
                 double Delta) {
  char Rec[16];
  for (int I = 0; I < 4; ++I) {
    Rec[I] = static_cast<char>((Func >> (8 * I)) & 0xff);
    Rec[4 + I] = static_cast<char>((Cond >> (8 * I)) & 0xff);
  }
  uint64_t Bits;
  std::memcpy(&Bits, &Delta, 8);
  for (int I = 0; I < 8; ++I)
    Rec[8 + I] = static_cast<char>((Bits >> (8 * I)) & 0xff);
  Body.append(Rec, 16);
}

Op drawOp(const std::string &Mix, const std::vector<SessionSpec> &Sessions,
          perfbench::Rng &R) {
  Op O;
  O.K = drawKind(Mix, R);
  O.Sess = R.below(static_cast<unsigned>(Sessions.size()));
  const SessionSpec &S = Sessions[O.Sess];
  unsigned NF = static_cast<unsigned>(S.Funcs.size());
  if (O.K == Estimate)
    O.Funcs.push_back(R.below(NF));
  if (O.K == Batch)
    for (int I = 0; I < 4; ++I)
      O.Funcs.push_back(R.below(NF));
  if (O.K == Stream) {
    // Whole-count deltas on condition 0 of four rows: folds of integer
    // totals commute, so any arrival order reaches the same state.
    std::vector<unsigned> Rows;
    for (unsigned I = 0; I < S.Conds.size(); ++I)
      if (S.Conds[I] > 0)
        Rows.push_back(I);
    for (int I = 0; I < 4 && !Rows.empty(); ++I)
      appendDelta(O.StreamBody,
                  Rows[R.below(static_cast<unsigned>(Rows.size()))], 0,
                  static_cast<double>(1 + R.below(3)));
  }
  return O;
}

/// Poisson arrivals at \p Rate per second for \p Seconds.
std::vector<Op> schedule(const std::string &Mix,
                         const std::vector<SessionSpec> &Sessions,
                         uint64_t Seed, double Rate, double Seconds) {
  perfbench::Rng R(Seed);
  std::vector<Op> Ops;
  double T = 0;
  while (true) {
    T += -std::log(1.0 - R.unit()) / Rate;
    if (T >= Seconds)
      break;
    Op O = drawOp(Mix, Sessions, R);
    O.AtSec = T;
    Ops.push_back(std::move(O));
  }
  return Ops;
}

/// A fixed-length request sequence for the in-process replays.
std::vector<Op> sequence(const std::string &Mix,
                         const std::vector<SessionSpec> &Sessions,
                         uint64_t Seed, unsigned Count) {
  perfbench::Rng R(Seed);
  std::vector<Op> Ops;
  for (unsigned I = 0; I < Count; ++I)
    Ops.push_back(drawOp(Mix, Sessions, R));
  return Ops;
}

WireMessage toMessage(const Op &O, const std::vector<SessionSpec> &Sessions) {
  const SessionSpec &S = Sessions[O.Sess];
  WireMessage M;
  M.Verb = KindVerb[O.K];
  M.Params["session"] = S.Name;
  if (O.K == Estimate)
    M.Params["function"] = S.Funcs[O.Funcs[0]];
  if (O.K == Batch) {
    M.Params["count"] = std::to_string(O.Funcs.size());
    for (size_t I = 0; I < O.Funcs.size(); ++I)
      M.Params["function." + std::to_string(I)] = S.Funcs[O.Funcs[I]];
  }
  if (O.K == Ingest)
    M.Body = S.Image;
  if (O.K == Stream) {
    M.Body = O.StreamBody;
    M.Params["flush"] = "1";
  }
  return M;
}

WireMessage request(const std::string &Verb, const std::string &Session) {
  WireMessage M;
  M.Verb = Verb;
  if (!Session.empty())
    M.Params["session"] = Session;
  return M;
}

/// "time|var|stddev" of one estimate answer (index suffix for batches).
std::string answerOf(const WireMessage &M, const std::string &Suffix = {}) {
  return M.param("time" + Suffix) + "|" + M.param("var" + Suffix) + "|" +
         M.param("stddev" + Suffix);
}

/// Reference answers from EstimationSession directly, configured as
/// load-program's defaults and run once as serve-setup does.
bool referenceAnswers(const SessionSpec &S,
                      std::map<std::string, std::string> &Out,
                      std::string &Error) {
  DiagnosticEngine Diags;
  std::unique_ptr<Program> P = parseProgram(S.Source, Diags);
  if (!P) {
    Error = "reference parse failed";
    return false;
  }
  EstimatorOptions EOpts(Diags);
  EOpts.mode(ProfileMode::Smart)
      .loopVariance(LoopVarianceMode::Zero)
      .onBadProfile(BadProfilePolicy::Fail)
      .jobs(1);
  auto Session = EstimationSession::create(*P, CostModel(), EOpts);
  if (!Session || !Session->profiledRun().Ok) {
    Error = "reference session failed: " + Diags.str();
    return false;
  }
  for (const std::string &F : S.Funcs) {
    EstimateResult R = Session->estimate(EstimateRequest(F));
    if (!R.Ok) {
      Error = "reference estimate failed: " + R.Error;
      return false;
    }
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), "%.17g|%.17g|%.17g", R.Time, R.Var,
                  R.StdDev);
    Out[F] = Buf;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Client connections
//===----------------------------------------------------------------------===//

class Conn {
public:
  Conn() = default;
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  bool open(const std::string &Path, std::string &Error) {
    if (Fd >= 0)
      ::close(Fd);
    Fd = connectUnix(Path, Error);
    return Fd >= 0;
  }
  bool call(const WireMessage &Req, WireMessage &Resp, std::string &Error) {
    return writeFrame(Fd, Req, Error) && readFrame(Fd, Resp, Error) == 1;
  }

private:
  int Fd = -1;
};

/// Named counters from the daemon's `stats` table.
std::map<std::string, double> scrapeCounters(Conn &C) {
  std::map<std::string, double> Out;
  WireMessage Resp;
  std::string Error;
  if (!C.call(request("stats", ""), Resp, Error) || Resp.Verb != "ok")
    return Out;
  std::istringstream Lines(Resp.Body);
  std::string Line;
  bool InCounters = false;
  while (std::getline(Lines, Line)) {
    if (Line.find("counters") != std::string::npos)
      InCounters = true;
    if (!InCounters)
      continue;
    for (char &Ch : Line)
      if (Ch == '|')
        Ch = ' ';
    std::istringstream Tok(Line);
    std::string Name, Value;
    if (Tok >> Name >> Value && !Value.empty() &&
        std::isdigit(static_cast<unsigned char>(Value[0])))
      Out[Name] = std::strtod(Value.c_str(), nullptr);
  }
  return Out;
}

/// Estimates every function of every session on \p C.
bool probeAll(Conn &C, const std::vector<SessionSpec> &Sessions,
              std::vector<std::string> &Out, std::string &Error) {
  Out.clear();
  for (const SessionSpec &S : Sessions)
    for (const std::string &F : S.Funcs) {
      WireMessage Req = request("estimate", S.Name), Resp;
      Req.Params["function"] = F;
      if (!C.call(Req, Resp, Error))
        return false;
      Out.push_back(Resp.Verb == "ok" ? answerOf(Resp) : "error");
    }
  return true;
}

/// Conditions per stream cell row, from a `stream-deltas describe=1`
/// answer.
std::vector<unsigned> cellRows(const WireMessage &Describe) {
  std::vector<unsigned> Rows;
  unsigned N = static_cast<unsigned>(
      std::strtoul(Describe.param("functions").c_str(), nullptr, 10));
  for (unsigned I = 0; I < N; ++I)
    Rows.push_back(static_cast<unsigned>(std::strtoul(
        Describe.param("conditions." + std::to_string(I)).c_str(), nullptr,
        10)));
  return Rows;
}

/// serve-setup's load-program and run, on an in-process core.
bool loadAndRun(ServeCore &Core, const std::vector<SessionSpec> &Sessions,
                std::string &Error) {
  for (const SessionSpec &S : Sessions) {
    WireMessage Load = request("load-program", S.Name);
    Load.Body = S.Source;
    if (Core.handle(Load).Verb != "ok" ||
        Core.handle(request("run", S.Name)).Verb != "ok") {
      Error = "in-process setup failed for " + S.Name;
      return false;
    }
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Subcommands: generation and setup
//===----------------------------------------------------------------------===//

int perfbench::cmdGenSessions(const Args &A) {
  std::string Dir = A.get("dir");
  std::vector<std::string> Progs = genSessionPrograms(
      A.num("seed", 1), static_cast<unsigned>(A.num("count", 8)));
  uint64_t Funcs = 0, Stmts = 0, Nodes = 0;
  for (size_t I = 0; I < Progs.size(); ++I) {
    // The same pre-timing check as the cold inputs: parses, is
    // reducible, finishes its profiled run.
    DiagnosticEngine Diags;
    std::unique_ptr<Program> P = parseProgram(Progs[I], Diags);
    if (!P)
      return fail("gen-sessions: program " + std::to_string(I) +
                  " does not parse: " + Diags.str());
    auto Session = EstimationSession::create(*P, CostModel(),
                                             EstimatorOptions(Diags).jobs(1));
    if (!Session || !Session->profiledRun().Ok)
      return fail("gen-sessions: program " + std::to_string(I) +
                  " is irreducible or does not finish: " + Diags.str());
    for (const auto &F : P->functions()) {
      ++Funcs;
      Stmts += F->numStmts();
      Nodes += Session->estimator().analysis().of(*F).ecfg().cfg().numNodes();
    }
    if (!writeFile(Dir + "/s" + std::to_string(I) + ".f", Progs[I]))
      return fail("gen-sessions: cannot write into " + Dir);
  }
  JsonOut J;
  J.num("sessions", static_cast<double>(Progs.size()));
  J.num("functions", static_cast<double>(Funcs));
  J.num("ir.statements", static_cast<double>(Stmts));
  J.num("ecfg.nodes", static_cast<double>(Nodes));
  std::printf("%s\n", J.text().c_str());
  return 0;
}

int perfbench::cmdServeSetup(const Args &A) {
  std::string Dir = A.get("dir"), Error;
  std::vector<SessionSpec> Sessions;
  if (!loadSessions(Dir, false, Sessions, Error))
    return fail("serve-setup: " + Error);
  Conn C;
  if (!C.open(A.get("socket"), Error))
    return fail("serve-setup: " + Error);
  for (const SessionSpec &S : Sessions) {
    WireMessage Load = request("load-program", S.Name), Resp;
    Load.Body = S.Source;
    if (!C.call(Load, Resp, Error) || Resp.Verb != "ok")
      return fail("serve-setup: load-program " + S.Name + " failed: " + Error +
                  Resp.param("message"));
    if (!C.call(request("run", S.Name), Resp, Error) || Resp.Verb != "ok")
      return fail("serve-setup: run " + S.Name + " failed");
    if (!C.call(request("capture-profile", S.Name), Resp, Error) ||
        Resp.Verb != "ok")
      return fail("serve-setup: capture-profile " + S.Name + " failed");
    std::string Image = Resp.Body;
    WireMessage Describe = request("stream-deltas", S.Name);
    Describe.Params["describe"] = "1";
    if (!C.call(Describe, Resp, Error) || Resp.Verb != "ok")
      return fail("serve-setup: describe " + S.Name + " failed");
    std::string Cells;
    for (unsigned N : cellRows(Resp))
      Cells += std::to_string(N) + "\n";
    std::string Base = Dir + "/" + S.Name;
    if (!writeFile(Base + ".ptpf", Image) || !writeFile(Base + ".cells", Cells))
      return fail("serve-setup: cannot write into " + Dir);
  }

  // A standby must answer like the primary before timing starts.
  std::string StandbyPath = A.get("standby");
  if (!StandbyPath.empty()) {
    Conn SC;
    std::vector<std::string> Want, Got;
    if (!probeAll(C, Sessions, Want, Error))
      return fail("serve-setup: primary probe failed: " + Error);
    uint64_t Deadline = nowNs() + 30'000'000'000ull;
    bool Caught = false;
    while (!Caught && nowNs() < Deadline) {
      if (SC.open(StandbyPath, Error) && probeAll(SC, Sessions, Got, Error))
        Caught = Got == Want;
      if (!Caught)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!Caught)
      return fail("serve-setup: standby never caught up with the primary");
  }
  JsonOut J;
  J.boolean("ok", true);
  J.num("sessions", static_cast<double>(Sessions.size()));
  std::printf("%s\n", J.text().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// Open-loop load
//===----------------------------------------------------------------------===//

namespace {

struct Sample {
  double LatencyMs = 0;  ///< Done minus scheduled send time.
  double LatenessMs = 0; ///< Actual minus scheduled send time.
  bool Ok = false;       ///< Transport, status and oracle all passed.
  bool Wrong = false;    ///< Answered, but not the reference answer.
  bool Applied = false;  ///< A mutation the daemon accepted.
};

/// One line of the mutation log: "ingest SESSION -" or
/// "stream SESSION HEXBODY".
std::string logLine(const Op &O) {
  static const char *Digits = "0123456789abcdef";
  std::string Hex;
  for (unsigned char Ch : O.StreamBody) {
    Hex += Digits[Ch >> 4];
    Hex += Digits[Ch & 15];
  }
  return std::string(O.K == Ingest ? "ingest " : "stream ") +
         std::to_string(O.Sess) + " " + (Hex.empty() ? "-" : Hex);
}

struct PhaseStats {
  double Rate = 0;
  unsigned Sent = 0, Succeeded = 0, Failed = 0, Wrong = 0;
  std::vector<double> Est, Mut, All, Late;
  double LateTailMs = 0; ///< Median lateness over the last tenth.
};

/// Checks one response against the oracle. \p Ref is empty for the
/// write mix, whose answers move with the mutations.
bool checkResponse(const Op &O, const WireMessage &Resp,
                   const std::vector<SessionSpec> &Sessions,
                   const std::vector<std::map<std::string, std::string>> &Ref,
                   bool &Wrong) {
  Wrong = false;
  if (Resp.Verb != "ok")
    return false;
  const SessionSpec &S = Sessions[O.Sess];
  if (O.K == Estimate) {
    if (Resp.param("degraded") != "0" || Resp.param("quarantined") != "0")
      return false;
    if (!Ref.empty() && answerOf(Resp) != Ref[O.Sess].at(S.Funcs[O.Funcs[0]]))
      Wrong = true;
  } else if (O.K == Batch) {
    if (Resp.param("failed") != "0")
      return false;
    for (size_t I = 0; I < O.Funcs.size(); ++I) {
      std::string Sfx = "." + std::to_string(I);
      if (Resp.param("degraded" + Sfx) != "0" ||
          Resp.param("quarantined" + Sfx) != "0")
        return false;
      if (!Ref.empty() &&
          answerOf(Resp, Sfx) != Ref[O.Sess].at(S.Funcs[O.Funcs[I]]))
        Wrong = true;
    }
  } else if (O.K == Ingest) {
    if (Resp.param("quarantined") != "0")
      return false;
  } else if (O.K == Stream) {
    if (Resp.param("dropped") != "0" ||
        Resp.param("appended") != std::to_string(O.StreamBody.size() / 16))
      return false;
  }
  return !Wrong;
}

/// How long before a send time the generator stops sleeping and spins.
constexpr uint64_t SpinNs = 300'000;

PhaseStats runPhase(std::vector<std::unique_ptr<Conn>> &Conns,
                    const std::vector<Op> &Ops, double Rate,
                    const std::vector<SessionSpec> &Sessions,
                    const std::vector<std::map<std::string, std::string>> &Ref,
                    std::vector<std::string> &MutLog) {
  std::vector<Sample> Samples(Ops.size());
  std::atomic<size_t> Next{0};
  uint64_t Start = nowNs() + 2'000'000; // 2 ms to get every thread going.
  std::vector<std::thread> Threads;
  for (auto &C : Conns)
    Threads.emplace_back([&, Conn = C.get()] {
      while (true) {
        size_t I = Next.fetch_add(1);
        if (I >= Ops.size())
          return;
        const Op &O = Ops[I];
        uint64_t Due = Start + static_cast<uint64_t>(O.AtSec * 1e9);
        // Sleep to just short of the send time, then spin: a sleeping
        // thread wakes tens of microseconds late, and that lateness
        // would be charged to the daemon.
        uint64_t Now = nowNs();
        if (Now + SpinNs < Due)
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(Due - SpinNs - Now));
        while (nowNs() < Due)
          ;
        WireMessage Req = toMessage(O, Sessions), Resp;
        std::string Error;
        uint64_t Sent = nowNs();
        bool Ok = Conn->call(Req, Resp, Error);
        uint64_t Done = nowNs();
        Sample &S = Samples[I];
        S.LatencyMs = (static_cast<double>(Done) - Due) / 1e6;
        S.LatenessMs = (static_cast<double>(Sent) - Due) / 1e6;
        S.Ok = Ok && checkResponse(O, Resp, Sessions, Ref, S.Wrong);
        S.Applied = Ok && Resp.Verb == "ok" && isMutation(O.K);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  PhaseStats P;
  P.Rate = Rate;
  for (size_t I = 0; I < Ops.size(); ++I) {
    const Sample &S = Samples[I];
    ++P.Sent;
    S.Ok ? ++P.Succeeded : ++P.Failed;
    P.Wrong += S.Wrong;
    P.All.push_back(S.LatencyMs);
    P.Late.push_back(S.LatenessMs);
    (isMutation(Ops[I].K) ? P.Mut : P.Est).push_back(S.LatencyMs);
    if (S.Applied)
      MutLog.push_back(logLine(Ops[I]));
  }
  std::vector<double> Tail(P.Late.end() - P.Late.size() / 10, P.Late.end());
  P.LateTailMs = median(Tail);
  return P;
}

void putPhase(JsonOut &J, const std::string &Prefix, const PhaseStats &P) {
  J.num(Prefix + "rate", P.Rate);
  J.num(Prefix + "sent", P.Sent);
  J.num(Prefix + "succeeded", P.Succeeded);
  J.num(Prefix + "failed", P.Failed);
  J.num(Prefix + "wrong", P.Wrong);
  J.num(Prefix + "est_n", static_cast<double>(P.Est.size()));
  J.num(Prefix + "est_p25_ms", percentile(P.Est, 25));
  J.num(Prefix + "est_p50_ms", median(P.Est));
  J.num(Prefix + "est_p75_ms", percentile(P.Est, 75));
  J.num(Prefix + "est_p99_ms", percentile(P.Est, 99));
  J.num(Prefix + "mut_n", static_cast<double>(P.Mut.size()));
  J.num(Prefix + "mut_p50_ms", median(P.Mut));
  J.num(Prefix + "mut_p90_ms", percentile(P.Mut, 90));
  J.num(Prefix + "all_p99_ms", percentile(P.All, 99));
  J.num(Prefix + "late_p50_ms", median(P.Late));
  J.num(Prefix + "late_max_ms", percentile(P.Late, 100));
  J.num(Prefix + "late_tail_ms", P.LateTailMs);
}

} // namespace

int perfbench::cmdServeLoad(const Args &A) {
  std::string Dir = A.get("dir"), Mix = A.get("mix", "read"), Error;
  std::vector<SessionSpec> Sessions;
  if (!loadSessions(Dir, true, Sessions, Error))
    return fail("serve-load: " + Error);
  // Reference answers: only the read mix leaves every answer fixed
  // (re-ingesting an identical image leaves the averages unchanged).
  std::vector<std::map<std::string, std::string>> Ref;
  if (Mix == "read") {
    Ref.resize(Sessions.size());
    for (size_t I = 0; I < Sessions.size(); ++I)
      if (!referenceAnswers(Sessions[I], Ref[I], Error))
        return fail("serve-load: " + Error);
  }

  unsigned NConns = static_cast<unsigned>(A.num("conns", 4));
  std::vector<std::unique_ptr<Conn>> Conns;
  for (unsigned I = 0; I < NConns; ++I) {
    Conns.push_back(std::make_unique<Conn>());
    if (!Conns.back()->open(A.get("socket"), Error))
      return fail("serve-load: " + Error);
  }

  // --rates R1,R2,... each for --phase-seconds; with --ladder 1 the
  // sequence stops at the first rate that misses --limit-ms.
  std::vector<double> Rates;
  {
    std::istringstream In(A.get("rates", "100"));
    std::string Tok;
    while (std::getline(In, Tok, ','))
      Rates.push_back(std::strtod(Tok.c_str(), nullptr));
  }
  double PhaseSeconds = A.real("phase-seconds", 2);
  double LimitMs = A.real("limit-ms", 10);
  bool Ladder = A.num("ladder", 0) != 0;
  uint64_t Seed = A.num("seed", 1);
  std::vector<std::string> MutLog;
  JsonOut J;
  double MaxRate = 0;
  unsigned Phases = 0, Failed = 0, Sent = 0;
  for (size_t I = 0; I < Rates.size(); ++I) {
    std::vector<Op> Ops = schedule(Mix, Sessions, Seed * 1000003 + I, Rates[I],
                                   PhaseSeconds);
    PhaseStats P = runPhase(Conns, Ops, Rates[I], Sessions, Ref, MutLog);
    putPhase(J, "phase" + std::to_string(I) + ".", P);
    ++Phases;
    Failed += P.Failed;
    Sent += P.Sent;
    bool Pass = P.Failed == 0 && percentile(P.All, 99) <= LimitMs &&
                P.LateTailMs <= LimitMs;
    J.boolean("phase" + std::to_string(I) + ".pass", Pass);
    if (Pass)
      MaxRate = std::max(MaxRate, Rates[I]);
    if (Ladder && !Pass)
      break;
  }
  J.num("phases", Phases);
  J.num("sent", Sent);
  J.num("failed", Failed);
  J.num("max_rate_rps", MaxRate);
  std::string LogPath = A.get("mutlog");
  if (!LogPath.empty()) {
    std::ofstream Out(LogPath, std::ios::app);
    for (const std::string &L : MutLog)
      Out << L << "\n";
  }
  std::printf("%s\n", J.text().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// Quiesced comparison
//===----------------------------------------------------------------------===//

namespace {

/// Replays serve-setup and a mutation log into a fresh in-process core.
bool replayLog(ServeCore &Core, const std::vector<SessionSpec> &Sessions,
               const std::string &LogPath, std::string &Error) {
  if (!loadAndRun(Core, Sessions, Error))
    return false;
  std::ifstream In(LogPath);
  std::string K, Hex;
  size_t Sess;
  while (In >> K >> Sess >> Hex) {
    if (Sess >= Sessions.size()) {
      Error = "mutation log names an unknown session";
      return false;
    }
    WireMessage M = request(K == "ingest" ? "ingest-profile" : "stream-deltas",
                            Sessions[Sess].Name);
    if (K == "ingest") {
      M.Body = Sessions[Sess].Image;
    } else {
      for (size_t I = 0; I + 1 < Hex.size(); I += 2)
        M.Body += static_cast<char>(
            std::stoi(Hex.substr(I, 2), nullptr, 16));
      M.Params["flush"] = "1";
    }
    if (Core.handle(M).Verb != "ok") {
      Error = "in-process replay of a logged mutation failed";
      return false;
    }
  }
  return true;
}

} // namespace

int perfbench::cmdServeVerify(const Args &A) {
  std::string Dir = A.get("dir"), Error;
  std::vector<SessionSpec> Sessions;
  if (!loadSessions(Dir, true, Sessions, Error))
    return fail("serve-verify: " + Error);
  ServeOptions Opts;
  ServeCore Local(Opts);
  if (!replayLog(Local, Sessions, A.get("mutlog"), Error))
    return fail("serve-verify: " + Error);
  std::vector<std::string> Want;
  for (const SessionSpec &S : Sessions)
    for (const std::string &F : S.Funcs) {
      WireMessage Req = request("estimate", S.Name);
      Req.Params["function"] = F;
      WireMessage Resp = Local.handle(Req);
      Want.push_back(Resp.Verb == "ok" ? answerOf(Resp) : "error");
    }

  Conn Primary;
  std::vector<std::string> Got;
  if (!Primary.open(A.get("socket"), Error) ||
      !probeAll(Primary, Sessions, Got, Error))
    return fail("serve-verify: primary probe failed: " + Error);
  unsigned Mismatches = 0;
  for (size_t I = 0; I < Want.size(); ++I)
    Mismatches += Got[I] != Want[I];
  unsigned StandbyMismatches = 0;
  std::string StandbyPath = A.get("standby");
  if (!StandbyPath.empty()) {
    // Acked mutations are already durable on the standby; allow a short
    // settle for the apply loop, then require byte-identical answers.
    uint64_t Deadline = nowNs() + 5'000'000'000ull;
    std::vector<std::string> SGot;
    do {
      Conn SC;
      if (SC.open(StandbyPath, Error) && probeAll(SC, Sessions, SGot, Error) &&
          SGot == Want)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    } while (nowNs() < Deadline);
    StandbyMismatches = static_cast<unsigned>(Want.size());
    if (SGot.size() == Want.size()) {
      StandbyMismatches = 0;
      for (size_t I = 0; I < Want.size(); ++I)
        StandbyMismatches += SGot[I] != Want[I];
    }
  }
  std::map<std::string, double> Counters = scrapeCounters(Primary);
  JsonOut J;
  J.num("compared", static_cast<double>(Want.size()));
  J.num("mismatches", Mismatches);
  J.num("standby_mismatches", StandbyMismatches);
  for (const char *Name :
       {"session.cache_hits", "session.queries", "session.cache_misses",
        "repl.ack_timeouts", "serve.shed", "serve.errors", "serve.requests"})
    J.num(Name, Counters.count(Name) ? Counters[Name] : 0);
  std::printf("%s\n", J.text().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// Traced in-process replay
//===----------------------------------------------------------------------===//

namespace {

/// Times waitDurable and the standby's lag around the real shipper.
class TimingHooks : public ReplicationHooks {
public:
  TimingHooks(repl::JournalShipper &Real, Tracer &T) : Real(Real), T(T) {}

  void setStandby(const repl::StandbyReplicator *S) { Standby = S; }

  void onAppend(uint64_t Lsn) override {
    uint64_t Applied = Standby ? Standby->lastAppliedLsn() : 0;
    LagLsn.push_back(static_cast<double>(Lsn > Applied ? Lsn - Applied : 0));
    Real.onAppend(Lsn);
  }
  bool waitDurable(uint64_t Lsn) override {
    Scoped S(T, "repl.ack_wait");
    uint64_t T0 = nowNs();
    bool Ok = Real.waitDurable(Lsn);
    WaitMs.push_back(static_cast<double>(nowNs() - T0) / 1e6);
    Timeouts += !Ok;
    return Ok;
  }
  uint64_t minSubscriberLsn() override { return Real.minSubscriberLsn(); }

  std::vector<double> WaitMs, LagLsn;
  unsigned Timeouts = 0;

private:
  repl::JournalShipper &Real;
  Tracer &T;
  const repl::StandbyReplicator *Standby = nullptr;
};

/// A primary core, and for the write mix a journal, a shipper behind
/// TimingHooks and a standby wired over a socketpair.
class ReplayRig {
public:
  ReplayRig(const std::string &Dir, bool Durable, Tracer &T) {
    ServeOptions Opts;
    if (Durable) {
      std::string Error;
      durable::StateStore::Recovery Rec;
      fs::remove_all(Dir);
      fs::create_directories(Dir + "/primary");
      fs::create_directories(Dir + "/standby");
      PrimaryStore = durable::StateStore::open(
          Dir + "/primary", durable::FsyncPolicy::Batch, Rec, Error);
      StandbyStore = durable::StateStore::open(
          Dir + "/standby", durable::FsyncPolicy::Batch, Rec, Error);
      repl::JournalShipper::Options ShipOpts;
      ShipOpts.Store = PrimaryStore.get();
      ShipOpts.Ack = repl::AckMode::Always;
      Shipper = std::make_unique<repl::JournalShipper>(ShipOpts);
      Hooks = std::make_unique<TimingHooks>(*Shipper, T);
      Opts.Store = PrimaryStore.get();
      Opts.Repl = Hooks.get();
    }
    Primary = std::make_unique<ServeCore>(Opts);
    if (!Durable)
      return;
    Shipper->setCore(Primary.get());
    ServeOptions SOpts;
    SOpts.Store = StandbyStore.get();
    StandbyCore = std::make_unique<ServeCore>(SOpts);
    repl::StandbyReplicator::Options ROpts;
    ROpts.Core = StandbyCore.get();
    ROpts.Store = StandbyStore.get();
    ROpts.Ack = repl::AckMode::Always;
    ROpts.Backoff = RetryPolicy().retries(1u << 30).baseDelay(
        std::chrono::milliseconds(1));
    ROpts.Connect = [this](std::string &Err) { return connectShipper(Err); };
    Standby = std::make_unique<repl::StandbyReplicator>(ROpts);
    Hooks->setStandby(Standby.get());
  }

  ~ReplayRig() {
    if (Standby)
      Standby->stop();
    if (Shipper)
      Shipper->stop();
    std::lock_guard<std::mutex> L(Mu);
    for (std::thread &Th : Threads)
      Th.join();
  }
  ReplayRig(const ReplayRig &) = delete;
  ReplayRig &operator=(const ReplayRig &) = delete;

  bool startStandby(std::string &Error) {
    return !Standby || Standby->start(Error);
  }

  ServeCore &primary() { return *Primary; }
  ServeCore *standbyCore() { return StandbyCore.get(); }
  TimingHooks *hooks() { return Hooks.get(); }
  durable::StateStore *primaryStore() { return PrimaryStore.get(); }

private:
  int connectShipper(std::string &Error) {
    int Sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) < 0) {
      Error = "socketpair failed";
      return -1;
    }
    std::lock_guard<std::mutex> L(Mu);
    Threads.emplace_back([this, Fd = Sv[0]] {
      WireMessage Sub;
      std::string Err;
      if (readFrame(Fd, Sub, Err) == 1 && Sub.Verb == "repl-subscribe")
        Shipper->runSubscription(Fd, Sub);
      ::close(Fd);
    });
    return Sv[1];
  }

  std::unique_ptr<durable::StateStore> PrimaryStore, StandbyStore;
  std::unique_ptr<repl::JournalShipper> Shipper;
  std::unique_ptr<TimingHooks> Hooks;
  std::unique_ptr<ServeCore> Primary, StandbyCore;
  std::unique_ptr<repl::StandbyReplicator> Standby;
  std::mutex Mu;
  std::vector<std::thread> Threads;
};

/// Load, run, capture and describe every session in-process.
bool setUpCore(ServeCore &Core, std::vector<SessionSpec> &Sessions,
               std::string &Error) {
  if (!loadAndRun(Core, Sessions, Error))
    return false;
  for (SessionSpec &S : Sessions) {
    S.Image = Core.handle(request("capture-profile", S.Name)).Body;
    WireMessage Describe = request("stream-deltas", S.Name);
    Describe.Params["describe"] = "1";
    S.Conds = cellRows(Core.handle(Describe));
  }
  return true;
}

struct ServeReplay {
  std::map<std::string, std::vector<double>> HandleUs; ///< Per verb.
  std::vector<double> CodecUs;
  uint64_t TotalNs = 0;
  unsigned Failed = 0;
};

/// Sends \p Ops through the codec and ServeCore::handle, one at a time.
ServeReplay replayOps(ServeCore &Core, const std::vector<Op> &Ops,
                      const std::vector<SessionSpec> &Sessions, Tracer &T) {
  ServeReplay R;
  uint64_t Start = nowNs();
  for (size_t I = 0; I < Ops.size(); ++I) {
    Scoped Req(T, "serve.request", I + 1);
    WireMessage Msg = toMessage(Ops[I], Sessions);
    std::string Error;
    uint64_t C0 = nowNs();
    std::optional<WireMessage> Decoded;
    {
      Scoped S(T, "serve.codec", I + 1);
      std::optional<std::vector<uint8_t>> Frame = encodeFrame(Msg, Error);
      if (Frame)
        Decoded = decodeFrame(Frame->data(), Frame->size(), Error);
    }
    uint64_t C1 = nowNs();
    if (!Decoded) {
      ++R.Failed;
      continue;
    }
    WireMessage Resp;
    {
      Scoped S(T, KindVerb[Ops[I].K], I + 1);
      Resp = Core.handle(*Decoded);
    }
    uint64_t H1 = nowNs();
    {
      Scoped S(T, "serve.codec", I + 1);
      std::optional<std::vector<uint8_t>> Frame = encodeFrame(Resp, Error);
      if (!Frame || !decodeFrame(Frame->data(), Frame->size(), Error))
        ++R.Failed;
    }
    uint64_t C2 = nowNs();
    R.Failed += Resp.Verb != "ok";
    R.HandleUs[KindVerb[Ops[I].K]].push_back((H1 - C1) / 1e3);
    R.CodecUs.push_back(((C1 - C0) + (C2 - H1)) / 1e3);
  }
  R.TotalNs = nowNs() - Start;
  return R;
}

/// Session layer, called directly: estimate on a cold cache (after an
/// ingest invalidated it), estimate again (a hit), and the ingest itself.
void timeSessionLayer(const std::vector<SessionSpec> &Sessions,
                      double Seconds, JsonOut &J) {
  std::vector<double> Hit, Miss, IngestUs;
  struct Live {
    std::unique_ptr<Program> P;
    DiagnosticEngine Diags;
    std::unique_ptr<EstimationSession> S;
    std::optional<ProfileFile> Image;
  };
  std::vector<std::unique_ptr<Live>> All;
  for (const SessionSpec &Spec : Sessions) {
    auto L = std::make_unique<Live>();
    L->P = parseProgram(Spec.Source, L->Diags);
    EstimatorOptions EOpts(L->Diags);
    EOpts.jobs(1);
    L->S = EstimationSession::create(*L->P, CostModel(), EOpts);
    L->S->profiledRun();
    std::vector<uint8_t> Bytes(Spec.Image.begin(), Spec.Image.end());
    L->Image = ProfileFile::deserialize(Bytes, nullptr);
    All.push_back(std::move(L));
  }
  perfbench::Rng R(7);
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  while (nowNs() < Deadline || Hit.size() < 16) {
    unsigned I = R.below(static_cast<unsigned>(All.size()));
    Live &L = *All[I];
    const std::string &F =
        Sessions[I].Funcs[R.below(static_cast<unsigned>(Sessions[I].Funcs.size()))];
    uint64_t T0 = nowNs();
    L.S->ingestProfile(*L.Image);
    uint64_t T1 = nowNs();
    uint64_t Hits0 = L.S->cacheHits();
    L.S->estimate(EstimateRequest(F));
    uint64_t T2 = nowNs();
    uint64_t Hits1 = L.S->cacheHits();
    L.S->estimate(EstimateRequest(F));
    uint64_t T3 = nowNs();
    IngestUs.push_back((T1 - T0) / 1e3);
    if (Hits1 == Hits0)
      Miss.push_back((T2 - T1) / 1e3);
    if (L.S->cacheHits() > Hits1)
      Hit.push_back((T3 - T2) / 1e3);
  }
  J.num("session.estimate_hit_us", median(Hit));
  J.num("session.estimate_miss_us", median(Miss));
  J.num("session.ingest_us", median(IngestUs));
}

/// Stream layer: writer appends (per append) and one epoch flush.
void timeStreamLayer(const std::vector<SessionSpec> &Sessions, JsonOut &J) {
  std::vector<double> AppendNs, FlushUs;
  for (const SessionSpec &Spec : Sessions) {
    DiagnosticEngine Diags;
    auto P = parseProgram(Spec.Source, Diags);
    auto S = EstimationSession::create(*P, CostModel(),
                                       EstimatorOptions(Diags).jobs(1));
    S->profiledRun();
    auto Stream = CounterDeltaStream::create(*S);
    perfbench::Rng R(11);
    std::vector<unsigned> Rows;
    for (unsigned I = 0; I < Stream->numFunctions(); ++I)
      if (Stream->numConditions(I) > 0)
        Rows.push_back(I);
    for (int Epoch = 0; Epoch < 32 && !Rows.empty(); ++Epoch) {
      {
        CounterDeltaStream::Writer W = Stream->acquireWriter();
        const unsigned N = 256;
        uint64_t T0 = nowNs();
        for (unsigned K = 0; K < N; ++K) {
          unsigned Row = Rows[K % Rows.size()];
          W.add(Row, K % Stream->numConditions(Row), 1.0);
        }
        AppendNs.push_back(static_cast<double>(nowNs() - T0) / N);
      }
      uint64_t T0 = nowNs();
      Stream->flush();
      FlushUs.push_back((nowNs() - T0) / 1e3);
    }
  }
  J.num("stream.append_ns", median(AppendNs));
  J.num("stream.flush_us", median(FlushUs));
}

/// Journal layer: re-appends the records the replay journaled to a fresh
/// journal at the daemon's default fsync policy (batch), syncing after
/// each, as the flusher would.
void timeDurableLayer(const std::string &JournalPath,
                      const std::string &Scratch, JsonOut &J) {
  std::vector<double> AppendUs, SyncUs;
  durable::DeltaJournal::OpenReport Report;
  std::vector<durable::DurableRecord> Records;
  std::string Error;
  durable::DeltaJournal::open(JournalPath, durable::FsyncPolicy::Batch, Report,
                              &Records, Error);
  fs::remove(Scratch);
  auto Fresh = durable::DeltaJournal::open(
      Scratch, durable::FsyncPolicy::Batch, Report, nullptr, Error);
  for (durable::DurableRecord &Rec : Records) {
    if (!Fresh)
      break;
    uint64_t T0 = nowNs();
    Fresh->append(Rec, Error);
    uint64_t T1 = nowNs();
    Fresh->sync(Error);
    uint64_t T2 = nowNs();
    AppendUs.push_back((T1 - T0) / 1e3);
    SyncUs.push_back((T2 - T1) / 1e3);
  }
  J.num("durable.append_us", median(AppendUs));
  J.num("durable.sync_us", median(SyncUs));
  J.num("durable.records", static_cast<double>(Records.size()));
}

} // namespace

int perfbench::cmdServeTrace(const Args &A) {
  std::string Dir = A.get("dir"), Mix = A.get("mix", "read"), Error;
  std::vector<SessionSpec> Sessions;
  if (!loadSessions(Dir, false, Sessions, Error))
    return fail("serve-trace: " + Error);
  bool Write = Mix == "write";
  unsigned Count = static_cast<unsigned>(A.num("requests", 400));
  uint64_t Seed = A.num("seed", 1);
  std::string Scratch = Dir + "/trace-state";

  // Traced and untraced replays of the same sequence, each on a fresh rig
  // so both start from the same state.
  JsonOut J;
  ServeReplay Traced, Untraced;
  Tracer On(true), Off(false);
  std::vector<double> HookWaits, HookLag;
  unsigned HookTimeouts = 0;
  for (int Pass = 0; Pass < 2; ++Pass) {
    Tracer &T = Pass == 0 ? Off : On;
    ReplayRig Rig(Scratch + std::to_string(Pass), Write, T);
    if (!Rig.startStandby(Error))
      return fail("serve-trace: standby failed to start: " + Error);
    std::vector<SessionSpec> Local = Sessions;
    if (!setUpCore(Rig.primary(), Local, Error))
      return fail("serve-trace: " + Error);
    std::vector<Op> Ops = sequence(Mix, Local, Seed * 7919 + 17, Count);
    ServeReplay R = replayOps(Rig.primary(), Ops, Local, T);
    if (R.Failed)
      return fail("serve-trace: " + std::to_string(R.Failed) +
                  " replayed request(s) failed");
    if (Pass == 0) {
      Untraced = std::move(R);
      continue;
    }
    Traced = std::move(R);
    if (TimingHooks *Hooks = Rig.hooks()) {
      HookWaits = Hooks->WaitMs;
      HookLag = Hooks->LagLsn;
      HookTimeouts = Hooks->Timeouts;
      // The standby must answer like the primary once quiesced.
      std::vector<std::string> Want, Got;
      for (const SessionSpec &S : Local)
        for (const std::string &F : S.Funcs) {
          WireMessage Req = request("estimate", S.Name);
          Req.Params["function"] = F;
          Want.push_back(answerOf(Rig.primary().handle(Req)));
          Got.push_back(answerOf(Rig.standbyCore()->handle(Req)));
        }
      J.boolean("standby_agrees", Want == Got);
      timeDurableLayer(Rig.primaryStore()->journal().path(),
                       Scratch + "-journal.ptwj", J);
    }
    timeSessionLayer(Local, 1.0, J);
    if (Write)
      timeStreamLayer(Local, J);
    std::string SpansPath = A.get("spans");
    if (!SpansPath.empty())
      if (std::FILE *F = std::fopen(SpansPath.c_str(), "w")) {
        T.writeJsonLines(F, Write ? "serve-repl-write" : "serve-read");
        std::fclose(F);
      }
  }
  fs::remove_all(Scratch + "0");
  fs::remove_all(Scratch + "1");
  fs::remove(Scratch + "-journal.ptwj");

  for (unsigned K = 0; K < NumKinds; ++K) {
    auto It = Traced.HandleUs.find(KindVerb[K]);
    J.num(std::string("serve.handle_us.") + KindVerb[K],
          It == Traced.HandleUs.end() ? 0 : median(It->second));
  }
  std::vector<double> Estimates = Traced.HandleUs["estimate"];
  for (double Us : Traced.HandleUs["estimate-batch"])
    Estimates.push_back(Us);
  J.num("serve.handle_us.estimates_all", median(Estimates));
  J.num("serve.codec_us", median(Traced.CodecUs));
  J.num("repl.ack_wait_ms", median(HookWaits));
  J.num("repl.ack_timeouts", HookTimeouts);
  J.num("repl.lag_lsn", HookLag.empty() ? 0
                                         : *std::max_element(HookLag.begin(),
                                                             HookLag.end()));
  double TracedMs = Traced.TotalNs / 1e6, UntracedMs = Untraced.TotalNs / 1e6;
  J.num("replay_ms", UntracedMs);
  J.num("replay_traced_ms", TracedMs);
  J.num("trace.overhead_pct", 100.0 * (TracedMs - UntracedMs) / UntracedMs);
  J.num("requests", Count);
  std::printf("%s\n", J.text().c_str());
  return 0;
}
