//===--- durable/Journal.cpp - Append-only write-ahead journal ------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "durable/Journal.h"

#include "support/FaultInjection.h"

#include <algorithm>
#include <cerrno>
#include <iterator>

#include <fcntl.h>
#include <unistd.h>

using namespace ptran;
using namespace ptran::durable;

namespace {

constexpr uint32_t JournalMagic = 0x4A575450; // "PTWJ" little-endian.
constexpr uint32_t JournalVersion = 1;
constexpr size_t HeaderBytes = 16;

struct Header {
  uint8_t Bytes[HeaderBytes];
  explicit Header(uint64_t FirstLsn) {
    storeLE32(Bytes, JournalMagic);
    storeLE32(Bytes + 4, JournalVersion);
    storeLE64(Bytes + 8, FirstLsn);
  }
};

/// Moves \p Bytes aside to `<path>.quarantine` (overwriting a previous
/// quarantine — the newest torn tail is the interesting one). Best-effort:
/// quarantine is for post-mortems, recovery proceeds regardless.
void quarantineBytes(const std::string &JournalPath, const uint8_t *Bytes,
                     size_t Len) {
  std::string Ignored;
  writeFileAtomically(JournalPath + ".quarantine", Bytes, Len, Ignored);
}

/// Validates the frame at \p Data, \p Left bytes before the end of the
/// input: framing, CRC and record decode. Returns the frame's size with
/// \p R decoded, or 0 with \p Reason saying what is wrong.
size_t scanFrame(const uint8_t *Data, size_t Left, DurableRecord &R,
                 std::string &Reason) {
  if (Left < 8) {
    Reason = "incomplete frame header (" + std::to_string(Left) +
             " of 8 bytes)";
    return 0;
  }
  uint32_t Len = loadLE32(Data);
  if (Len > MaxRecordBytes) {
    Reason = "frame length " + std::to_string(Len) + " is implausible";
    return 0;
  }
  if (Left - 8 < Len) {
    Reason = "frame body truncated (" + std::to_string(Left - 8) + " of " +
             std::to_string(Len) + " bytes)";
    return 0;
  }
  if (crc32(Data + 8, Len) != loadLE32(Data + 4)) {
    Reason = "frame checksum mismatch";
    return 0;
  }
  std::string DecodeError;
  if (!decodeRecord(Data + 8, Len, R, DecodeError)) {
    Reason = "frame decodes to garbage: " + DecodeError;
    return 0;
  }
  return 8 + Len;
}

} // namespace

DeltaJournal::~DeltaJournal() {
  if (Fd >= 0)
    ::close(Fd);
}

std::unique_ptr<DeltaJournal>
DeltaJournal::open(const std::string &Path, FsyncPolicy Fsync,
                   OpenReport &Report, std::vector<DurableRecord> *Records,
                   std::string &Error) {
  Report = OpenReport();
  int Fd = ::open(Path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (Fd < 0) {
    Error = errnoString("open", Path);
    return nullptr;
  }
  auto J = std::unique_ptr<DeltaJournal>(new DeltaJournal());
  J->Path = Path;
  J->Fsync = Fsync;
  J->Fd = Fd;

  std::vector<uint8_t> Bytes;
  if (!readWholeFile(Fd, Path, Bytes, Error))
    return nullptr;

  auto WriteFreshHeader = [&](uint64_t FirstLsn) -> bool {
    Header H(FirstLsn);
    if (::ftruncate(Fd, 0) < 0) {
      Error = errnoString("truncate", Path);
      return false;
    }
    if (!writeAll(Fd, 0, H.Bytes, HeaderBytes, Path, Error))
      return false;
    ::fsync(Fd);
    return true;
  };

  if (Bytes.empty()) {
    if (!WriteFreshHeader(1))
      return nullptr;
    J->FirstLsn = J->NextLsnValue = 1;
    J->FileBytes = HeaderBytes;
    Report.FirstLsn = Report.NextLsn = 1;
    return J;
  }

  if (Bytes.size() < HeaderBytes || loadLE32(Bytes.data()) != JournalMagic ||
      loadLE32(Bytes.data() + 4) != JournalVersion) {
    // A torn or foreign header: nothing after it can be framed. Quarantine
    // the whole file and start a fresh log — rotation fsyncs replacement
    // headers before renaming them into place, so this can only be the
    // very first header write of an empty store (no records to lose).
    quarantineBytes(Path, Bytes.data(), Bytes.size());
    Report.TailQuarantined = true;
    Report.TailReason = "journal header is torn or garbled";
    Report.TailOffset = 0;
    Report.QuarantinedBytes = Bytes.size();
    if (!WriteFreshHeader(1))
      return nullptr;
    J->FirstLsn = J->NextLsnValue = 1;
    J->FileBytes = HeaderBytes;
    Report.FirstLsn = Report.NextLsn = 1;
    return J;
  }

  J->FirstLsn = loadLE64(Bytes.data() + 8);
  if (J->FirstLsn == 0)
    J->FirstLsn = 1;
  uint64_t Lsn = J->FirstLsn;
  size_t Off = HeaderBytes;
  std::string TornReason;
  while (Off < Bytes.size()) {
    DurableRecord R;
    size_t FrameBytes =
        scanFrame(Bytes.data() + Off, Bytes.size() - Off, R, TornReason);
    if (!FrameBytes)
      break;
    R.Lsn = Lsn++;
    if (Records)
      Records->push_back(std::move(R));
    ++Report.RecordsScanned;
    Off += FrameBytes;
  }

  if (Off < Bytes.size()) {
    quarantineBytes(Path, Bytes.data() + Off, Bytes.size() - Off);
    if (::ftruncate(Fd, static_cast<off_t>(Off)) < 0) {
      Error = errnoString("truncate torn tail of", Path);
      return nullptr;
    }
    ::fsync(Fd);
    Report.TailQuarantined = true;
    Report.TailReason = TornReason;
    Report.TailOffset = Off;
    Report.QuarantinedBytes = Bytes.size() - Off;
  }

  J->NextLsnValue = Lsn;
  J->FileBytes = Off;
  Report.FirstLsn = J->FirstLsn;
  Report.NextLsn = Lsn;
  return J;
}

uint64_t DeltaJournal::append(const DurableRecord &R, std::string &Error) {
  std::vector<uint8_t> Body = encodeRecord(R);
  std::vector<uint8_t> Frame;
  Frame.reserve(8 + Body.size());
  ByteWriter W(Frame);
  W.putU32(static_cast<uint32_t>(Body.size()));
  W.putU32(crc32(Body.data(), Body.size()));
  W.putBytes(Body.data(), Body.size());

  std::lock_guard<std::mutex> L(M);
  if (FaultInjection::maybeTornWrite()) {
    // Simulate kill -9 landing mid-append: persist only a prefix of the
    // frame (forced to disk so the torn tail is really there on restart),
    // then die without any cleanup.
    size_t Prefix = std::max<size_t>(1, Frame.size() / 2);
    std::string Ignored;
    writeAll(Fd, FileBytes, Frame.data(), Prefix, Path, Ignored);
    ::fsync(Fd);
    FaultInjection::dieAtCrashPoint();
  }
  if (!writeAll(Fd, FileBytes, Frame.data(), Frame.size(), Path, Error)) {
    // Clear any partial frame so the next append starts on a clean
    // boundary instead of burying garbage mid-file.
    ::ftruncate(Fd, static_cast<off_t>(FileBytes));
    return 0;
  }
  if (FaultInjection::maybeCrashAt("durable.append")) {
    ::fsync(Fd);
    FaultInjection::dieAtCrashPoint();
  }
  if (Fsync == FsyncPolicy::Always && !fsyncFile(Fd, Path, Error)) {
    ::ftruncate(Fd, static_cast<off_t>(FileBytes));
    return 0;
  }
  FileBytes += Frame.size();
  return NextLsnValue++;
}

bool DeltaJournal::sync(std::string &Error) {
  std::lock_guard<std::mutex> L(M);
  return Fsync == FsyncPolicy::Never || fsyncFile(Fd, Path, Error);
}

DeltaJournal::ReadResult
DeltaJournal::readFrames(ReadCursor &Cursor, uint64_t MaxBytes,
                         uint32_t MaxRecords, std::vector<uint8_t> &Raw,
                         uint32_t &Count, std::string &Error) {
  Count = 0;
  std::lock_guard<std::mutex> L(M);
  if (Cursor.NextLsn < FirstLsn)
    return ReadResult::Rotated;
  if (Cursor.NextLsn >= NextLsnValue)
    return ReadResult::AtEnd;

  auto ReadAt = [&](uint64_t Off, uint8_t *Buf, size_t Len) -> bool {
    size_t Got = 0;
    while (Got < Len) {
      ssize_t N = ::pread(Fd, Buf + Got, Len - Got,
                          static_cast<off_t>(Off + Got));
      if (N < 0) {
        if (errno == EINTR)
          continue;
        Error = errnoString("read", Path);
        return false;
      }
      if (N == 0) {
        Error = "journal '" + Path + "' ends before its committed bytes";
        return false;
      }
      Got += static_cast<size_t>(N);
    }
    return true;
  };
  // Reads the header of the frame at Off and checks its length against
  // the committed bytes.
  auto ReadFrameHeader = [&](uint64_t Off, uint8_t *FH) -> bool {
    if (!ReadAt(Off, FH, 8))
      return false;
    uint32_t Len = loadLE32(FH);
    if (Len > MaxRecordBytes || Off + 8 + Len > FileBytes) {
      Error = "journal '" + Path + "' frame at offset " + std::to_string(Off) +
              " is garbled below the append point";
      return false;
    }
    return true;
  };

  // Revalidate (or rebuild) the cached byte offset of the cursor's frame.
  // A rotation replaces the file, so any offset computed against a
  // different firstLsn is meaningless.
  uint64_t Off = Cursor.Offset;
  if (Cursor.OffsetFirstLsn != FirstLsn || Off < HeaderBytes) {
    Off = HeaderBytes;
    for (uint64_t Lsn = FirstLsn; Lsn < Cursor.NextLsn; ++Lsn) {
      uint8_t FH[8];
      if (!ReadFrameHeader(Off, FH))
        return ReadResult::IoError;
      Off += 8 + loadLE32(FH);
    }
  }

  std::vector<uint8_t> Body;
  while (Cursor.NextLsn + Count < NextLsnValue && Count < MaxRecords &&
         static_cast<uint64_t>(Raw.size()) < MaxBytes) {
    if (Off + 8 > FileBytes) {
      Error = "journal '" + Path + "' is shorter than its committed frames";
      return ReadResult::IoError;
    }
    uint8_t FH[8];
    if (!ReadFrameHeader(Off, FH))
      return ReadResult::IoError;
    uint32_t Len = loadLE32(FH);
    Body.resize(Len);
    if (Len > 0 && !ReadAt(Off + 8, Body.data(), Len))
      return ReadResult::IoError;
    // Never ship a frame whose bytes no longer match their checksum: local
    // corruption must surface here, not on the standby.
    if (crc32(Body.data(), Len) != loadLE32(FH + 4)) {
      Error = "journal '" + Path + "' frame at offset " + std::to_string(Off) +
              " fails its checksum";
      return ReadResult::IoError;
    }
    Raw.insert(Raw.end(), FH, FH + sizeof(FH));
    Raw.insert(Raw.end(), Body.begin(), Body.end());
    Off += 8 + Len;
    ++Count;
  }
  Cursor.NextLsn += Count;
  Cursor.Offset = Off;
  Cursor.OffsetFirstLsn = FirstLsn;
  return ReadResult::Ok;
}

bool DeltaJournal::appendRaw(const uint8_t *Frames, size_t Len,
                             uint64_t ExpectedFirstLsn,
                             uint32_t ExpectedCount,
                             std::vector<DurableRecord> *Records,
                             std::string &Error) {
  std::lock_guard<std::mutex> L(M);
  if (ExpectedFirstLsn != NextLsnValue) {
    Error = "replicated batch starts at LSN " +
            std::to_string(ExpectedFirstLsn) + " but this journal's next "
            "LSN is " + std::to_string(NextLsnValue);
    return false;
  }
  // Validate every frame BEFORE writing a byte: a garbled shipped batch
  // must not bury garbage mid-file.
  std::vector<DurableRecord> Batch;
  size_t Off = 0;
  while (Off < Len) {
    DurableRecord R;
    std::string Reason;
    size_t FrameBytes = scanFrame(Frames + Off, Len - Off, R, Reason);
    if (!FrameBytes) {
      Error = "replicated batch frame at offset " + std::to_string(Off) +
              ": " + Reason;
      return false;
    }
    R.Lsn = ExpectedFirstLsn + Batch.size();
    Batch.push_back(std::move(R));
    Off += FrameBytes;
  }
  if (Batch.size() != ExpectedCount) {
    Error = "replicated batch carries " + std::to_string(Batch.size()) +
            " frame(s) but announced " + std::to_string(ExpectedCount);
    return false;
  }
  if (Batch.empty())
    return true;

  if (FaultInjection::maybeTornWrite()) {
    size_t Prefix = std::max<size_t>(1, Len / 2);
    std::string Ignored;
    writeAll(Fd, FileBytes, Frames, Prefix, Path, Ignored);
    ::fsync(Fd);
    FaultInjection::dieAtCrashPoint();
  }
  if (!writeAll(Fd, FileBytes, Frames, Len, Path, Error) ||
      (Fsync == FsyncPolicy::Always && !fsyncFile(Fd, Path, Error))) {
    ::ftruncate(Fd, static_cast<off_t>(FileBytes));
    return false;
  }
  FileBytes += Len;
  NextLsnValue += Batch.size();
  if (Records)
    std::move(Batch.begin(), Batch.end(), std::back_inserter(*Records));
  return true;
}

bool DeltaJournal::rotate(std::string &Error) {
  std::lock_guard<std::mutex> L(M);
  return rotateToLocked(NextLsnValue, Error);
}

bool DeltaJournal::resetTo(uint64_t FirstLsn, std::string &Error) {
  std::lock_guard<std::mutex> L(M);
  return rotateToLocked(FirstLsn, Error);
}

bool DeltaJournal::rotateToLocked(uint64_t NewFirstLsn, std::string &Error) {
  // The replacement is durable BEFORE it replaces the journal: a crash
  // after the rename must never leave a journal whose header was not
  // written, losing the LSN chain.
  Header H(NewFirstLsn);
  if (!writeFileAtomically(Path, H.Bytes, HeaderBytes, Error,
                           "durable.truncate"))
    return false;
  // Our fd still names the old inode; adopt the replacement.
  int ReFd = ::open(Path.c_str(), O_RDWR | O_CLOEXEC);
  if (ReFd < 0) {
    Error = errnoString("reopen", Path);
    return false;
  }
  ::close(Fd);
  Fd = ReFd;
  FirstLsn = NewFirstLsn;
  NextLsnValue = NewFirstLsn; // No-op for rotate(); the reset for resetTo().
  FileBytes = HeaderBytes;
  return true;
}

uint64_t DeltaJournal::nextLsn() const {
  std::lock_guard<std::mutex> L(M);
  return NextLsnValue;
}

uint64_t DeltaJournal::lastLsn() const {
  std::lock_guard<std::mutex> L(M);
  return NextLsnValue - 1;
}

uint64_t DeltaJournal::sizeBytes() const {
  std::lock_guard<std::mutex> L(M);
  return FileBytes;
}
