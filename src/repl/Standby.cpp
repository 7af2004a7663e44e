//===--- repl/Standby.cpp - Warm-standby replication applier --------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "repl/Standby.h"

#include "support/Bytes.h"
#include "support/FaultInjection.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <set>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace ptran;
using namespace ptran::repl;

/// Strict u64 decimal parser for wire LSN fields (see Replication.cpp).
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

StandbyReplicator::StandbyReplicator(const Options &O) : O(O) {
  if (!this->O.Connect) {
    std::string Socket = this->O.PrimarySocket;
    this->O.Connect = [Socket](std::string &Error) {
      return serve::connectUnix(Socket, Error);
    };
  }
}

std::string StandbyReplicator::markerPath() const {
  return O.Store->dir() + "/repl-bootstrap.pending";
}

void StandbyReplicator::bump(const char *Counter, uint64_t Delta) {
  if (O.Obs)
    O.Obs->addCounter(Counter, Delta);
}

bool StandbyReplicator::start(std::string &Error) {
  O.Core->setReadOnly(true);
  // A leftover marker means a previous incarnation died mid-bootstrap:
  // whatever restore() just rebuilt is a half-adopted mix of old and new
  // state. Drop it all and demand a fresh bootstrap.
  struct stat St;
  if (::lstat(markerPath().c_str(), &St) == 0) {
    std::fprintf(stderr,
                 "ptran-serve: incomplete bootstrap detected (%s); "
                 "discarding local state and re-bootstrapping\n",
                 markerPath().c_str());
    O.Core->clearAllSessions();
    std::string ResetErr;
    if (!O.Store->journal().resetTo(1, ResetErr)) {
      Error = "cannot reset journal after torn bootstrap: " + ResetErr;
      return false;
    }
    std::set<std::string> None;
    if (!O.Store->pruneSnapshotsExcept(None, Error))
      return false;
    if (::unlink(markerPath().c_str()) < 0 && errno != ENOENT) {
      Error = errnoString("cannot clear bootstrap marker");
      return false;
    }
    bump("repl.torn_bootstraps_recovered");
  }
  StopFlag.store(false, std::memory_order_release);
  Applier = std::thread([this] { applierLoop(); });
  return true;
}

void StandbyReplicator::stop() {
  StopFlag.store(true, std::memory_order_release);
  int Fd = LiveFd.exchange(-1);
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_RDWR); // Wake a blocked readFrame.
  if (Applier.joinable())
    Applier.join();
}

bool StandbyReplicator::promote(std::string &Error) {
  if (Promoted.load(std::memory_order_acquire))
    return true;
  if (Bootstrapping.load(std::memory_order_acquire)) {
    Error = "standby is mid-bootstrap; its state is not yet a consistent "
            "replica — retry once the bootstrap finishes";
    return false;
  }
  stop();
  // Everything applied so far becomes this daemon's own durable history.
  if (!O.Store->journal().sync(Error))
    return false;
  if (FaultInjection::maybeCrashAt("repl.promote"))
    FaultInjection::dieAtCrashPoint();
  Promoted.store(true, std::memory_order_release);
  O.Core->setReadOnly(false);
  bump("repl.promotions");
  return true;
}

void StandbyReplicator::applierLoop() {
  BackoffSchedule Backoff(O.Backoff);
  while (!StopFlag.load(std::memory_order_acquire)) {
    std::string Error;
    int Fd = O.Connect(Error);
    if (Fd < 0) {
      bump("repl.connect_failures");
      std::this_thread::sleep_for(Backoff.next());
      continue;
    }
    LiveFd.store(Fd, std::memory_order_release);
    Connected.store(true, std::memory_order_release);
    bool Clean = runSession(Fd);
    Connected.store(false, std::memory_order_release);
    int Live = LiveFd.exchange(-1);
    ::close(Fd);
    if (Live < 0 || StopFlag.load(std::memory_order_acquire))
      return;
    bump("repl.reconnects");
    if (Clean)
      Backoff = BackoffSchedule(O.Backoff); // Healthy session: reset pacing.
    std::this_thread::sleep_for(Backoff.next());
  }
}

bool StandbyReplicator::applyBootstrap(int Fd,
                                       const serve::WireMessage &Head) {
  std::optional<uint64_t> Count = parseU64(Head.param("count"));
  std::optional<uint64_t> Watermark = parseU64(Head.param("watermark"));
  if (!Count || !Watermark) {
    std::fprintf(stderr, "ptran-serve: malformed repl-bootstrap header\n");
    return false;
  }

  // Mark the window in which our on-disk state is a half-adopted mix; a
  // crash inside it is detected at the next start().
  int MFd = ::open(markerPath().c_str(), O_CREAT | O_WRONLY | O_CLOEXEC, 0644);
  if (MFd < 0) {
    std::fprintf(stderr, "ptran-serve: cannot write bootstrap marker: %s\n",
                 std::strerror(errno));
    return false;
  }
  ::close(MFd);
  Bootstrapping.store(true, std::memory_order_release);
  O.Core->clearAllSessions();

  std::set<std::string> Received;
  bool FirstAdopted = false;
  for (uint64_t I = 0; I != *Count; ++I) {
    serve::WireMessage Snap;
    std::string Error;
    int Rc = serve::readFrame(Fd, Snap, Error);
    if (Rc <= 0 || Snap.Verb != "repl-snapshot") {
      std::fprintf(stderr,
                   "ptran-serve: bootstrap interrupted at snapshot %llu/%llu"
                   "%s%s\n",
                   static_cast<unsigned long long>(I),
                   static_cast<unsigned long long>(*Count),
                   Error.empty() ? "" : ": ", Error.c_str());
      return false;
    }
    std::vector<uint8_t> Image(Snap.Body.begin(), Snap.Body.end());
    std::vector<std::string> Diagnostics;
    if (!O.Core->adoptSnapshotImage(Image, Diagnostics, Error)) {
      std::fprintf(stderr,
                   "ptran-serve: bootstrap snapshot '%s' rejected: %s\n",
                   Snap.param("session").c_str(), Error.c_str());
      return false;
    }
    for (const std::string &D : Diagnostics)
      std::fprintf(stderr, "ptran-serve: bootstrap: %s\n", D.c_str());
    Received.insert(Snap.param("session"));
    if (!FirstAdopted) {
      FirstAdopted = true;
      if (FaultInjection::maybeCrashAt("repl.bootstrap"))
        FaultInjection::dieAtCrashPoint();
    }
  }

  // Stale snapshots from the pre-bootstrap life must not resurrect their
  // sessions, and the journal restarts at the watermark the images cover.
  std::string Error;
  if (!O.Store->pruneSnapshotsExcept(Received, Error) ||
      !O.Store->journal().resetTo(*Watermark + 1, Error)) {
    std::fprintf(stderr, "ptran-serve: bootstrap finalization failed: %s\n",
                 Error.c_str());
    return false;
  }
  if (::unlink(markerPath().c_str()) < 0 && errno != ENOENT) {
    std::fprintf(stderr, "ptran-serve: cannot clear bootstrap marker: %s\n",
                 std::strerror(errno));
    return false;
  }
  Bootstrapping.store(false, std::memory_order_release);
  AppliedLsn.store(*Watermark, std::memory_order_release);
  bump("repl.bootstraps_applied");
  std::fprintf(stderr,
               "ptran-serve: bootstrapped %llu session(s) at watermark "
               "%llu\n",
               static_cast<unsigned long long>(*Count),
               static_cast<unsigned long long>(*Watermark));
  return true;
}

bool StandbyReplicator::runSession(int Fd) {
  std::string Error;
  serve::WireMessage Subscribe;
  Subscribe.Verb = "repl-subscribe";
  Subscribe.Params["from-lsn"] =
      std::to_string(O.Store->journal().nextLsn());
  if (!serve::writeFrame(Fd, Subscribe, Error))
    return false;
  serve::WireMessage Resp;
  if (serve::readFrame(Fd, Resp, Error) != 1 || Resp.Verb != "ok") {
    std::fprintf(stderr,
                 "ptran-serve: primary refused subscription%s%s\n",
                 Error.empty() ? "" : ": ", Error.c_str());
    return false;
  }

  serve::WireMessage M;
  for (;;) {
    int Rc = serve::readFrame(Fd, M, Error);
    if (Rc <= 0) {
      if (Rc < 0 && !StopFlag.load(std::memory_order_acquire))
        std::fprintf(stderr, "ptran-serve: replication stream broke: %s\n",
                     Error.c_str());
      return Rc == 0;
    }
    if (M.Verb == "repl-bootstrap") {
      if (!applyBootstrap(Fd, M))
        return false;
      continue;
    }
    if (M.Verb != "repl-frames")
      continue;
    std::optional<uint64_t> First = parseU64(M.param("from-lsn"));
    std::optional<uint64_t> Count = parseU64(M.param("count"));
    if (!First || !Count || *Count == 0 ||
        *Count > std::numeric_limits<uint32_t>::max()) {
      std::fprintf(stderr, "ptran-serve: malformed repl-frames header\n");
      return false;
    }
    uint64_t Applied = 0;
    std::vector<std::string> Diagnostics;
    if (!O.Core->applyReplicatedBatch(
            reinterpret_cast<const uint8_t *>(M.Body.data()), M.Body.size(),
            *First, static_cast<uint32_t>(*Count),
            /*Sync=*/O.Ack == AckMode::Always, Applied, Diagnostics, Error)) {
      // A batch that fails validation (or hits disk trouble) leaves the
      // journal at its old tail; resubscribing from nextLsn() makes the
      // primary resend exactly the missing run.
      std::fprintf(stderr, "ptran-serve: replicated batch rejected: %s\n",
                   Error.c_str());
      return false;
    }
    for (const std::string &D : Diagnostics)
      std::fprintf(stderr, "ptran-serve: replicated apply: %s\n", D.c_str());
    AppliedLsn.store(Applied, std::memory_order_release);
    if (O.Ack != AckMode::None) {
      serve::WireMessage Ack;
      Ack.Verb = "repl-ack";
      Ack.Params["applied-lsn"] = std::to_string(Applied);
      // durable-lsn: what we can promise survived OUR crash. Under
      // ack=always every batch was fsynced before this line; under batch
      // the bytes may still be in the page cache, so durability is not
      // claimed.
      Ack.Params["durable-lsn"] =
          std::to_string(O.Ack == AckMode::Always ? Applied : 0);
      if (!serve::writeFrame(Fd, Ack, Error))
        return false;
      bump("repl.acks_sent");
    }
  }
}
