//===--- repl/Replication.cpp - Journal shipping to warm standbys ---------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "repl/Replication.h"

#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include <sys/socket.h>

using namespace ptran;
using namespace ptran::repl;

/// LSNs are u64; parseUnsigned is 32-bit and parseDouble loses precision
/// past 2^53, so wire LSN fields get their own strict decimal parser.
static std::optional<uint64_t> parseU64(const std::string &Text) {
  if (Text.empty() || Text.size() > 20)
    return std::nullopt;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return std::nullopt;
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (V > (~0ull - Digit) / 10)
      return std::nullopt;
    V = V * 10 + Digit;
  }
  return V;
}

std::optional<AckMode> repl::parseAckMode(const std::string &Text) {
  std::string M = toLower(Text);
  if (M == "none")
    return AckMode::None;
  if (M == "batch")
    return AckMode::Batch;
  if (M == "always")
    return AckMode::Always;
  return std::nullopt;
}

const char *repl::ackModeName(AckMode M) {
  switch (M) {
  case AckMode::None:
    return "none";
  case AckMode::Batch:
    return "batch";
  case AckMode::Always:
    return "always";
  }
  return "none";
}

void JournalShipper::bump(const char *Counter, uint64_t Delta) {
  if (O.Obs)
    O.Obs->addCounter(Counter, Delta);
}

unsigned JournalShipper::subscriberCount() const {
  std::lock_guard<std::mutex> L(Mu);
  unsigned N = 0;
  for (const auto &S : Subs)
    if (!S->Dead.load(std::memory_order_acquire))
      ++N;
  return N;
}

void JournalShipper::onAppend(uint64_t) {
  {
    std::lock_guard<std::mutex> L(Mu);
    ++AppendSeq;
  }
  AppendCv.notify_all();
}

uint64_t JournalShipper::minSubscriberLsn() {
  std::lock_guard<std::mutex> L(Mu);
  uint64_t Min = ~0ull;
  for (const auto &S : Subs)
    if (!S->Dead.load(std::memory_order_acquire))
      Min = std::min(Min, S->NextLsn.load(std::memory_order_acquire));
  return Min;
}

bool JournalShipper::waitDurable(uint64_t Lsn) {
  if (O.Ack != AckMode::Always)
    return true;
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(O.AckWaitMs);
  std::unique_lock<std::mutex> L(Mu);
  // No live subscriber: there is nothing to wait for; durability degrades
  // to single-machine (the standby will catch up from the journal when it
  // reconnects). Waiting would only stall every mutation while the
  // standby is down.
  auto Satisfied = [&] {
    if (StopFlag.load(std::memory_order_acquire))
      return true;
    bool AnyLive = false;
    for (const auto &S : Subs) {
      if (S->Dead.load(std::memory_order_acquire))
        continue;
      AnyLive = true;
      if (S->DurableLsn >= Lsn)
        return true;
    }
    return !AnyLive;
  };
  return AckCv.wait_until(L, Deadline, Satisfied);
}

void JournalShipper::stop() {
  std::lock_guard<std::mutex> L(Mu);
  StopFlag.store(true, std::memory_order_release);
  for (const auto &S : Subs)
    if (!S->Dead.exchange(true))
      ::shutdown(S->Fd, SHUT_RDWR); // Unblocks the ack reader's recv.
  AppendCv.notify_all();
  AckCv.notify_all();
}

bool JournalShipper::sendBootstrap(int Fd,
                                   durable::DeltaJournal::ReadCursor &Cursor,
                                   std::string &Error) {
  serve::ServeCore::BootstrapCapture Cap;
  if (!O.Core->captureBootstrap(Cap, Error))
    return false;

  serve::WireMessage Head;
  Head.Verb = "repl-bootstrap";
  Head.Params["count"] = std::to_string(Cap.Snapshots.size());
  Head.Params["watermark"] = std::to_string(Cap.Watermark);
  if (!serve::writeFrame(Fd, Head, Error))
    return false;
  for (size_t I = 0; I != Cap.Snapshots.size(); ++I) {
    serve::WireMessage Snap;
    Snap.Verb = "repl-snapshot";
    Snap.Params["index"] = std::to_string(I);
    Snap.Params["session"] = Cap.Snapshots[I].Session;
    Snap.Body.assign(Cap.Snapshots[I].Image.begin(),
                     Cap.Snapshots[I].Image.end());
    if (!serve::writeFrame(Fd, Snap, Error))
      return false;
    if (FaultInjection::maybeCrashAt("repl.snapshot"))
      FaultInjection::dieAtCrashPoint();
  }
  Cursor = durable::DeltaJournal::ReadCursor();
  Cursor.NextLsn = Cap.Watermark + 1;
  bump("repl.bootstraps_sent");
  return true;
}

void JournalShipper::runSubscription(int Fd,
                                     const serve::WireMessage &Subscribe) {
  uint64_t FromLsn = parseU64(Subscribe.param("from-lsn")).value_or(0);

  auto Sub = std::make_shared<Subscription>();
  Sub->Fd = Fd;
  Sub->NextLsn.store(FromLsn ? FromLsn : 1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> L(Mu);
    if (StopFlag.load(std::memory_order_acquire))
      return;
    Subs.push_back(Sub);
  }
  bump("repl.subscriptions");

  std::string Error;
  serve::WireMessage Ok;
  Ok.Verb = "ok";
  Ok.Params["ack"] = ackModeName(O.Ack);
  bool Alive = serve::writeFrame(Fd, Ok, Error);

  // The standby acks (and its disconnect) arrive on the same socket the
  // frames leave on; a dedicated reader keeps the shipper loop a pure
  // writer. It takes no locks beyond Mu (never ServeCore's), so the
  // ack=always path cannot deadlock against request threads.
  std::thread AckReader([this, Fd, Sub] {
    serve::WireMessage M;
    std::string Err;
    for (;;) {
      int Rc = serve::readFrame(Fd, M, Err);
      if (Rc <= 0)
        break;
      if (M.Verb != "repl-ack")
        continue;
      if (std::optional<uint64_t> D = parseU64(M.param("durable-lsn"))) {
        std::lock_guard<std::mutex> L(Mu);
        Sub->DurableLsn = *D;
      }
      AckCv.notify_all();
      bump("repl.acks_received");
      if (FaultInjection::maybeCrashAt("repl.ack"))
        FaultInjection::dieAtCrashPoint();
    }
    // A dead subscriber must release ack=always waiters immediately —
    // they re-evaluate liveness and degrade instead of timing out — and
    // its shipper loop, which may be parked on AppendCv.
    {
      std::lock_guard<std::mutex> L(Mu);
      Sub->Dead.store(true, std::memory_order_release);
    }
    AckCv.notify_all();
    AppendCv.notify_all();
  });

  durable::DeltaJournal &Journal = O.Store->journal();
  durable::DeltaJournal::ReadCursor Cursor;
  Cursor.NextLsn = FromLsn ? FromLsn : 1;
  // A fresh standby (from-lsn=0) or one ahead of this journal (it
  // replicated a primary whose history we do not share) starts from a
  // snapshot bootstrap; a lagging one streams straight from the journal.
  bool NeedBootstrap = FromLsn == 0 || FromLsn > Journal.nextLsn();

  std::vector<uint8_t> Raw;
  while (Alive && !StopFlag.load(std::memory_order_acquire) &&
         !Sub->Dead.load(std::memory_order_acquire)) {
    if (NeedBootstrap) {
      if (!sendBootstrap(Fd, Cursor, Error)) {
        std::fprintf(stderr, "ptran-serve: replication bootstrap failed: %s\n",
                     Error.c_str());
        break;
      }
      Sub->NextLsn.store(Cursor.NextLsn, std::memory_order_release);
      NeedBootstrap = false;
      continue;
    }
    // Sampled before the read: an append that readFrames misses bumps
    // the sequence past Seen, so the AtEnd wait below returns at once.
    uint64_t Seen;
    {
      std::lock_guard<std::mutex> L(Mu);
      Seen = AppendSeq;
    }
    Raw.clear();
    uint32_t Count = 0;
    uint64_t First = Cursor.NextLsn;
    durable::DeltaJournal::ReadResult RR = Journal.readFrames(
        Cursor, MaxBatchBytes, MaxBatchRecords, Raw, Count, Error);
    switch (RR) {
    case durable::DeltaJournal::ReadResult::Ok: {
      serve::WireMessage Frames;
      Frames.Verb = "repl-frames";
      Frames.Params["from-lsn"] = std::to_string(First);
      Frames.Params["count"] = std::to_string(Count);
      Frames.Body.assign(Raw.begin(), Raw.end());
      if (!serve::writeFrame(Fd, Frames, Error)) {
        Alive = false;
        break;
      }
      if (FaultInjection::maybeCrashAt("repl.ship"))
        FaultInjection::dieAtCrashPoint();
      Sub->NextLsn.store(Cursor.NextLsn, std::memory_order_release);
      bump("repl.frames_shipped", Count);
      bump("repl.bytes_shipped", Raw.size());
      break;
    }
    case durable::DeltaJournal::ReadResult::AtEnd: {
      // Caught up: sleep until the next onAppend, stop() or the ack
      // reader's exit. Each changes its state under Mu before notifying,
      // so the untimed wait cannot miss one.
      std::unique_lock<std::mutex> L(Mu);
      AppendCv.wait(L, [&] {
        return AppendSeq != Seen || StopFlag.load(std::memory_order_acquire) ||
               Sub->Dead.load(std::memory_order_acquire);
      });
      break;
    }
    case durable::DeltaJournal::ReadResult::Rotated:
      // The tail this subscriber needed was rotated into snapshots;
      // restart it from those snapshots on this same connection.
      NeedBootstrap = true;
      bump("repl.rotation_bootstraps");
      break;
    case durable::DeltaJournal::ReadResult::IoError:
      std::fprintf(stderr,
                   "ptran-serve: replication read failed (subscriber "
                   "dropped): %s\n",
                   Error.c_str());
      Alive = false;
      break;
    }
  }

  {
    std::lock_guard<std::mutex> L(Mu);
    if (!Sub->Dead.exchange(true))
      ::shutdown(Fd, SHUT_RDWR); // Unblock the ack reader.
  }
  AckCv.notify_all();
  AckReader.join();
  std::lock_guard<std::mutex> L(Mu);
  Subs.erase(std::remove(Subs.begin(), Subs.end(), Sub), Subs.end());
}
