//===--- support/Bytes.h - Byte codec, CRC32 and durable file IO -*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte layer under every persisted or transmitted format: the PTPF
/// profile (profile/ProfileFile.h), the PTWJ journal and its records
/// (durable/Journal.h, durable/Records.h), the PTSS snapshot
/// (durable/Snapshot.h) and the daemon's wire frames (serve/Protocol.h).
///
/// Encoding conventions shared by all of them: integers are little-endian,
/// doubles travel as their IEEE 754 bit pattern in a u64, and a string
/// (putStr/getStr) is a u32 byte length followed by the bytes.
///
/// Decoding is defensive: ByteReader checks every length against the
/// remaining bytes before using it and latches a failure instead of
/// reading out of bounds, so garbled input can only make ok() false.
///
/// File writes go through writeAll (EINTR- and short-write-safe; the
/// io.short_write fault site halves a write to prove the loop finishes
/// it) and, for whole files, writeFileAtomically (tmp file, fsync,
/// rename, directory fsync): a crash or IO failure
/// at any point leaves either the previous file or the new one, never a
/// truncated mix.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_SUPPORT_BYTES_H
#define PTRAN_SUPPORT_BYTES_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ptran {

//===--- CRC32 ------------------------------------------------------------===//

/// CRC32 (IEEE 802.3, polynomial 0xEDB88320) of \p Len bytes at \p Data.
uint32_t crc32(const uint8_t *Data, size_t Len);

//===--- fixed-offset little-endian access --------------------------------===//

inline uint32_t loadLE32(const uint8_t *B) {
  return static_cast<uint32_t>(B[0]) | (static_cast<uint32_t>(B[1]) << 8) |
         (static_cast<uint32_t>(B[2]) << 16) |
         (static_cast<uint32_t>(B[3]) << 24);
}

inline uint64_t loadLE64(const uint8_t *B) {
  return static_cast<uint64_t>(loadLE32(B)) |
         (static_cast<uint64_t>(loadLE32(B + 4)) << 32);
}

inline void storeLE32(uint8_t *B, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    B[I] = static_cast<uint8_t>(V >> (8 * I));
}

inline void storeLE64(uint8_t *B, uint64_t V) {
  storeLE32(B, static_cast<uint32_t>(V));
  storeLE32(B + 4, static_cast<uint32_t>(V >> 32));
}

//===--- streaming encoder / decoder --------------------------------------===//

/// Appends little-endian fields to a caller-owned buffer.
class ByteWriter {
public:
  explicit ByteWriter(std::vector<uint8_t> &Out) : Out(Out) {}

  void putU8(uint8_t V) { Out.push_back(V); }
  void putU32(uint32_t V);
  void putU64(uint64_t V);
  void putF64(double V);
  /// u32 length + bytes.
  void putStr(const std::string &S);
  /// u32 count + that many putStr entries.
  void putStrs(const std::vector<std::string> &Strs);
  /// Raw bytes, no length prefix.
  void putBytes(const uint8_t *Data, size_t Len) {
    Out.insert(Out.end(), Data, Data + Len);
  }

private:
  std::vector<uint8_t> &Out;
};

/// Bounds-checked forward reader. Every get* returns a default value and
/// latches ok()=false once the bytes run out; callers check ok() last.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Len) : Data(Data), Len(Len) {}

  uint8_t getU8();
  uint32_t getU32();
  uint64_t getU64();
  double getF64();
  /// u32 length + bytes.
  std::string getStr();
  /// u32 count + that many getStr entries (stops early once !ok()).
  std::vector<std::string> getStrs();
  /// The next \p N raw bytes.
  std::vector<uint8_t> getBytes(uint64_t N);

  bool ok() const { return Good; }
  bool atEnd() const { return Pos == Len; }
  /// Bytes left to read; 0 once a read has failed.
  size_t remaining() const { return Good ? Len - Pos : 0; }
  size_t pos() const { return Pos; }

private:
  bool require(uint64_t N);

  const uint8_t *Data;
  size_t Len;
  size_t Pos = 0;
  bool Good = true;
};

//===--- durable file IO --------------------------------------------------===//
//
// Every function reports failure by returning false with \p Error set to
// an errnoString naming the step and the path.

/// "<What> '<Path>': <strerror(errno)>", or "<What>: <strerror(errno)>"
/// when \p Path is empty.
std::string errnoString(const char *What, const std::string &Path = {});

/// Writes all \p Size bytes at \p Offset (pwrite), retrying EINTR and
/// continuing short writes — genuine ones and those io.short_write
/// injects.
bool writeAll(int Fd, uint64_t Offset, const uint8_t *Data, size_t Size,
              const std::string &Path, std::string &Error);

/// fsync(2), retrying EINTR.
bool fsyncFile(int Fd, const std::string &Path, std::string &Error);

/// Reads all of \p Fd (from offset 0, up to its size at the call) into
/// \p Out. A file that shrinks mid-read yields the bytes that were there.
bool readWholeFile(int Fd, const std::string &Path, std::vector<uint8_t> &Out,
                   std::string &Error);
/// Opens \p Path read-only and reads all of it into \p Out.
bool readWholeFile(const std::string &Path, std::vector<uint8_t> &Out,
                   std::string &Error);

/// Replaces \p Path with \p Size bytes: writes `<Path>.tmp`, fsyncs it,
/// renames it over \p Path and fsyncs the directory. On failure the tmp
/// file is removed and any previous \p Path is untouched. When
/// \p CrashPoint is non-null, crash.at=<CrashPoint> dies after the tmp
/// file is durable and before the rename.
bool writeFileAtomically(const std::string &Path, const uint8_t *Data,
                         size_t Size, std::string &Error,
                         const char *CrashPoint = nullptr);

} // namespace ptran

#endif // PTRAN_SUPPORT_BYTES_H
