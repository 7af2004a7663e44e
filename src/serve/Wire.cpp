//===--- serve/Wire.cpp - Unix-socket framing transport -------------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Wire.h"

#include "support/Bytes.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ptran;
using namespace ptran::serve;

static bool fillAddress(const std::string &Path, sockaddr_un &Addr,
                        std::string &Error) {
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Error = "socket path '" + Path + "' exceeds the " +
            std::to_string(sizeof(Addr.sun_path) - 1) + "-byte sun_path limit";
    return false;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

/// True when a socket file at \p Path has a live listener behind it,
/// decided by actually connecting: ECONNREFUSED (or ENOENT) means the
/// daemon that bound it is gone and the file is a stale leftover.
static bool socketIsLive(const sockaddr_un &Addr) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return false; // Cannot probe; bind will report the conflict.
  int Rc;
  do {
    Rc = ::connect(Fd, reinterpret_cast<const sockaddr *>(&Addr),
                   sizeof(Addr));
  } while (Rc < 0 && errno == EINTR);
  ::close(Fd);
  return Rc == 0;
}

int serve::listenUnix(const std::string &Path, std::string &Error) {
  sockaddr_un Addr;
  if (!fillAddress(Path, Addr, Error))
    return -1;
  // A stale socket file from a crashed daemon would make bind fail with
  // EADDRINUSE — but unlinking unconditionally would steal the path from
  // a RUNNING daemon (its listener keeps working, invisible to new
  // clients). Probe with a real connect first: only a dead socket file is
  // removed, a live one (or a non-socket file) is refused.
  struct stat St;
  if (::lstat(Path.c_str(), &St) == 0) {
    if (!S_ISSOCK(St.st_mode)) {
      Error = "path '" + Path + "' exists and is not a socket; refusing to "
              "remove it";
      return -1;
    }
    if (socketIsLive(Addr)) {
      Error = "another daemon is already listening on '" + Path + "'";
      return -1;
    }
    ::unlink(Path.c_str());
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = errnoString("socket");
    return -1;
  }
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Error = errnoString("bind");
    ::close(Fd);
    return -1;
  }
  if (::listen(Fd, 256) < 0) {
    Error = errnoString("listen");
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int serve::connectUnix(const std::string &Path, std::string &Error) {
  sockaddr_un Addr;
  if (!fillAddress(Path, Addr, Error))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = errnoString("socket");
    return -1;
  }
  int Rc;
  do {
    Rc = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  } while (Rc < 0 && errno == EINTR);
  if (Rc < 0) {
    Error = errnoString("connect");
    ::close(Fd);
    return -1;
  }
  return Fd;
}

static bool sendAll(int Fd, const uint8_t *Data, size_t Size,
                    std::string &Error) {
  while (Size > 0) {
    ssize_t N = ::send(Fd, Data, Size, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = errnoString("send");
      return false;
    }
    Data += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

/// 1 = filled, 0 = clean EOF before the first byte, -1 = error/short EOF/
/// stall. A short EOF (the peer closed after some but not all of \p Size
/// bytes of \p What) produces a structured "truncated frame" error naming
/// the byte counts; the partially-filled buffer is never handed onward.
///
/// \p TimeoutMs >= 0 bounds mid-transfer stalls: once the deadline is
/// armed, each recv is preceded by a poll for the remaining budget, and
/// running it dry yields the same structured error with "stalled" in
/// place of "closed". \p ArmImmediately arms the deadline before the
/// first byte (payload reads: the prefix already promised data);
/// otherwise it arms after the first byte lands (prefix reads: a
/// connection idling between requests is not a stall).
static int readAll(int Fd, uint8_t *Data, size_t Size, const char *What,
                   std::string &Error, int TimeoutMs = -1,
                   bool ArmImmediately = true) {
  size_t Got = 0;
  bool Armed = TimeoutMs >= 0 && ArmImmediately;
  std::chrono::steady_clock::time_point Deadline;
  if (Armed)
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(TimeoutMs);
  while (Got < Size) {
    if (Armed) {
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
          Deadline - std::chrono::steady_clock::now());
      struct pollfd Pf = {Fd, POLLIN, 0};
      int Ready;
      do {
        Ready = ::poll(&Pf, 1,
                       static_cast<int>(std::max<int64_t>(0, Left.count())));
      } while (Ready < 0 && errno == EINTR);
      if (Ready < 0) {
        Error = errnoString("poll");
        return -1;
      }
      if (Ready == 0) {
        Error = "truncated frame: peer stalled after " + std::to_string(Got) +
                " of " + std::to_string(Size) + " " + What + " bytes";
        return -1;
      }
    }
    ssize_t N = ::recv(Fd, Data + Got, Size - Got, 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = errnoString("recv");
      return -1;
    }
    if (N == 0) {
      if (Got == 0)
        return 0;
      Error = "truncated frame: peer closed after " + std::to_string(Got) +
              " of " + std::to_string(Size) + " " + What + " bytes";
      return -1;
    }
    Got += static_cast<size_t>(N);
    if (TimeoutMs >= 0 && !Armed) {
      Armed = true;
      Deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(TimeoutMs);
    }
  }
  return 1;
}

bool serve::writeFrame(int Fd, const WireMessage &M, std::string &Error) {
  std::optional<std::vector<uint8_t>> Payload = encodeFrame(M, Error);
  if (!Payload)
    return false;
  uint8_t Prefix[4];
  storeLE32(Prefix, static_cast<uint32_t>(Payload->size()));
  return sendAll(Fd, Prefix, sizeof(Prefix), Error) &&
         sendAll(Fd, Payload->data(), Payload->size(), Error);
}

int serve::readFrame(int Fd, WireMessage &M, std::string &Error,
                     int MidFrameTimeoutMs) {
  uint8_t Prefix[4];
  int Rc = readAll(Fd, Prefix, sizeof(Prefix), "length-prefix", Error,
                   MidFrameTimeoutMs, /*ArmImmediately=*/false);
  if (Rc <= 0)
    return Rc;
  uint32_t Len = loadLE32(Prefix);
  if (Len > MaxFramePayload) {
    Error = "frame length " + std::to_string(Len) + " exceeds the " +
            std::to_string(MaxFramePayload) + "-byte limit";
    return -1;
  }
  std::vector<uint8_t> Payload(Len);
  if (Len > 0) {
    int PayloadRc = readAll(Fd, Payload.data(), Len, "payload", Error,
                            MidFrameTimeoutMs, /*ArmImmediately=*/true);
    if (PayloadRc != 1) {
      // A clean EOF here still truncates the frame: the prefix promised
      // Len payload bytes and none arrived. Nothing partial ever reaches
      // the codec.
      if (PayloadRc == 0)
        Error = "truncated frame: peer closed after 0 of " +
                std::to_string(Len) + " payload bytes";
      return -1;
    }
  }
  std::optional<WireMessage> Decoded =
      decodeFrame(Payload.data(), Payload.size(), Error);
  if (!Decoded)
    return -1;
  M = std::move(*Decoded);
  return 1;
}
