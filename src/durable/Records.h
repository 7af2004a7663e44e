//===--- durable/Records.h - Write-ahead journal record codecs --*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The record vocabulary of the daemon's write-ahead delta journal: every
/// state mutation ptran-serve accepts is expressible as one of these
/// records, and replaying a prefix of them (on top of the snapshot that
/// prefix extends) reconstructs the daemon's sessions bit-for-bit.
///
/// A record travels as one journal frame (see Journal.h): the encoded
/// body's first byte is the RecordType tag, the rest is the payload below,
/// written with support/Bytes.h's ByteWriter (little-endian integers,
/// strings as u32 length + bytes, doubles as their IEEE 754 bit pattern).
///
///   SessionCreate  str name | str source | u32 mode | u32 loopVariance
///                  | u32 onBadProfile
///   SessionEvict   str name
///   RunExec        str name | u32 count
///   EpochFold      str name | folds | u32 numClamped | str names...
///   ProfileIngest  str name | u64 imageLen | PTPF bytes
///   SaturationMark str name | str function
///
/// `folds` (encodeFolds, shared with the PTSS snapshot's external totals):
///
///   u32 numFuncs | per func: str function | u32 numConds
///                  | per cond: u32 node | u8 label | f64 total
///
/// Decoding is defensive end to end: ByteReader bounds-checks every length
/// against the remaining bytes before it is used, so a corrupted frame
/// that somehow passed its CRC still yields a clean error, never a wild
/// read. (The journal-prefix property test drives every truncation point
/// through here under UBSan.)
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_DURABLE_RECORDS_H
#define PTRAN_DURABLE_RECORDS_H

#include "support/Bytes.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ptran {
namespace durable {

enum class RecordType : uint8_t {
  SessionCreate = 1,
  SessionEvict = 2,
  RunExec = 3,
  EpochFold = 4,
  ProfileIngest = 5,
  SaturationMark = 6,
};

/// One accumulated condition total: ControlCondition (node id + CFG edge
/// label) flattened to plain integers so the durable layer needs no
/// analysis headers.
struct CondTotal {
  uint32_t Node = 0;
  uint8_t Label = 0;
  double Total = 0.0;
};

/// One function's slice of an EpochFold (or of a snapshot's external
/// totals): the condition totals one CounterDeltaStream epoch contributed.
struct FoldEntry {
  std::string Function;
  std::vector<CondTotal> Conds;
};

/// One journal record, decoded. Only the fields of its Type are
/// meaningful; the rest stay default-constructed.
struct DurableRecord {
  RecordType Type = RecordType::SessionCreate;
  /// Assigned by the journal: the record's position in the global log
  /// order (monotonic across rotations). Zero until appended/scanned.
  uint64_t Lsn = 0;

  /// Every record names its session.
  std::string Session;

  // SessionCreate: everything needed to rebuild the session object.
  std::string Source;
  uint32_t Mode = 0;
  uint32_t LoopVariance = 0;
  uint32_t OnBadProfile = 0;

  // RunExec: how many profiledRun() calls to replay.
  uint32_t RunCount = 0;

  // EpochFold: the drained epoch, in the stream's deterministic drain
  // order, plus the functions whose cell totals clamped at 2^53.
  std::vector<FoldEntry> Folds;
  std::vector<std::string> Clamped;

  // ProfileIngest: the raw PTPF image the client sent.
  std::vector<uint8_t> Profile;

  // SaturationMark: the function whose totals saturated.
  std::string FunctionName;
};

/// Writes \p Folds in the `folds` layout above.
void encodeFolds(ByteWriter &W, const std::vector<FoldEntry> &Folds);

/// Reads a `folds` section; check \p Rd.ok() afterwards.
std::vector<FoldEntry> decodeFolds(ByteReader &Rd);

/// Encodes \p R as a journal frame body (type tag + payload).
std::vector<uint8_t> encodeRecord(const DurableRecord &R);

/// Decodes one frame body. False (with \p Error set) on an unknown type
/// tag, a truncated payload, or trailing garbage; \p R is unspecified on
/// failure.
bool decodeRecord(const uint8_t *Data, size_t Len, DurableRecord &R,
                  std::string &Error);

} // namespace durable
} // namespace ptran

#endif // PTRAN_DURABLE_RECORDS_H
