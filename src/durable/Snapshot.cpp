//===--- durable/Snapshot.cpp - Checksummed per-session snapshots ---------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "durable/Snapshot.h"

#include <cstdio>

using namespace ptran;
using namespace ptran::durable;

namespace {

constexpr uint32_t SnapshotMagic = 0x53535450; // "PTSS" little-endian.
constexpr uint32_t SnapshotVersion = 1;

} // namespace

std::vector<uint8_t> durable::encodeSnapshot(const DurableSessionState &State,
                                             uint64_t Watermark) {
  std::vector<uint8_t> Out;
  ByteWriter W(Out);
  W.putU32(SnapshotMagic);
  W.putU32(SnapshotVersion);
  W.putU64(Watermark);
  W.putStr(State.Name);
  W.putStr(State.Source);
  W.putU32(State.Mode);
  W.putU32(State.LoopVariance);
  W.putU32(State.OnBadProfile);
  W.putU64(State.Runs);
  W.putU64(State.ProfileImage.size());
  W.putBytes(State.ProfileImage.data(), State.ProfileImage.size());
  encodeFolds(W, State.External);
  W.putStrs(State.Saturated);
  W.putU32(static_cast<uint32_t>(State.Quarantined.size()));
  for (const auto &Q : State.Quarantined) {
    W.putStr(Q.first);
    W.putStr(Q.second);
  }
  W.putU32(crc32(Out.data(), Out.size()));
  return Out;
}

bool durable::decodeSnapshot(const uint8_t *Data, size_t Len,
                             DurableSessionState &State, uint64_t &Watermark,
                             std::string &Error) {
  if (Len < 4 + 4 + 8 + 4) {
    Error = "snapshot is truncated (shorter than its fixed fields)";
    return false;
  }
  ByteReader Rd(Data, Len - 4);
  if (Rd.getU32() != SnapshotMagic) {
    Error = "bad snapshot magic (not a PTSS file)";
    return false;
  }
  if (uint32_t V = Rd.getU32(); V != SnapshotVersion) {
    Error = "unsupported snapshot version " + std::to_string(V);
    return false;
  }
  // CRC before content: a torn or bit-rotted snapshot must not be half
  // trusted.
  if (crc32(Data, Len - 4) != loadLE32(Data + Len - 4)) {
    Error = "snapshot checksum mismatch (corrupt or truncated file)";
    return false;
  }

  State = DurableSessionState();
  Watermark = Rd.getU64();
  State.Name = Rd.getStr();
  State.Source = Rd.getStr();
  State.Mode = Rd.getU32();
  State.LoopVariance = Rd.getU32();
  State.OnBadProfile = Rd.getU32();
  State.Runs = Rd.getU64();
  State.ProfileImage = Rd.getBytes(Rd.getU64());
  State.External = decodeFolds(Rd);
  State.Saturated = Rd.getStrs();
  uint32_t NumQuarantined = Rd.getU32();
  for (uint32_t I = 0; Rd.ok() && I < NumQuarantined; ++I) {
    std::string Fn = Rd.getStr();
    std::string Reason = Rd.getStr();
    State.Quarantined.emplace_back(std::move(Fn), std::move(Reason));
  }
  if (!Rd.ok()) {
    Error = "snapshot payload is truncated";
    return false;
  }
  if (!Rd.atEnd()) {
    Error = "snapshot payload has trailing bytes";
    return false;
  }
  return true;
}

std::string durable::snapshotFileName(const std::string &SessionName) {
  // FNV-1a 64: stable across platforms, no separator ambiguity, and safe
  // for any session name a client can send.
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : SessionName) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "snap-%016llx.snap",
                static_cast<unsigned long long>(H));
  return Buf;
}

bool durable::writeSnapshotFile(const std::string &Dir,
                                const DurableSessionState &State,
                                uint64_t Watermark, std::string &Error) {
  std::vector<uint8_t> Image = encodeSnapshot(State, Watermark);
  return writeFileAtomically(Dir + "/" + snapshotFileName(State.Name),
                             Image.data(), Image.size(), Error,
                             "durable.snapshot");
}

bool durable::readSnapshotFile(const std::string &Path,
                               DurableSessionState &State,
                               uint64_t &Watermark, std::string &Error) {
  std::vector<uint8_t> Bytes;
  return readWholeFile(Path, Bytes, Error) &&
         decodeSnapshot(Bytes.data(), Bytes.size(), State, Watermark, Error);
}
