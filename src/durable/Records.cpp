//===--- durable/Records.cpp - Write-ahead journal record codecs ----------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "durable/Records.h"

using namespace ptran;
using namespace ptran::durable;

void durable::encodeFolds(ByteWriter &W, const std::vector<FoldEntry> &Folds) {
  W.putU32(static_cast<uint32_t>(Folds.size()));
  for (const FoldEntry &FE : Folds) {
    W.putStr(FE.Function);
    W.putU32(static_cast<uint32_t>(FE.Conds.size()));
    for (const CondTotal &C : FE.Conds) {
      W.putU32(C.Node);
      W.putU8(C.Label);
      W.putF64(C.Total);
    }
  }
}

std::vector<FoldEntry> durable::decodeFolds(ByteReader &Rd) {
  std::vector<FoldEntry> Folds;
  uint32_t NumFuncs = Rd.getU32();
  for (uint32_t I = 0; Rd.ok() && I < NumFuncs; ++I) {
    FoldEntry FE;
    FE.Function = Rd.getStr();
    uint32_t NumConds = Rd.getU32();
    for (uint32_t J = 0; Rd.ok() && J < NumConds; ++J) {
      CondTotal C;
      C.Node = Rd.getU32();
      C.Label = Rd.getU8();
      C.Total = Rd.getF64();
      FE.Conds.push_back(C);
    }
    Folds.push_back(std::move(FE));
  }
  return Folds;
}

std::vector<uint8_t> durable::encodeRecord(const DurableRecord &R) {
  std::vector<uint8_t> Out;
  ByteWriter W(Out);
  W.putU8(static_cast<uint8_t>(R.Type));
  W.putStr(R.Session);
  switch (R.Type) {
  case RecordType::SessionCreate:
    W.putStr(R.Source);
    W.putU32(R.Mode);
    W.putU32(R.LoopVariance);
    W.putU32(R.OnBadProfile);
    break;
  case RecordType::SessionEvict:
    break;
  case RecordType::RunExec:
    W.putU32(R.RunCount);
    break;
  case RecordType::EpochFold:
    encodeFolds(W, R.Folds);
    W.putStrs(R.Clamped);
    break;
  case RecordType::ProfileIngest:
    W.putU64(R.Profile.size());
    W.putBytes(R.Profile.data(), R.Profile.size());
    break;
  case RecordType::SaturationMark:
    W.putStr(R.FunctionName);
    break;
  }
  return Out;
}

bool durable::decodeRecord(const uint8_t *Data, size_t Len, DurableRecord &R,
                           std::string &Error) {
  ByteReader Rd(Data, Len);
  uint8_t Tag = Rd.getU8();
  if (!Rd.ok()) {
    Error = "record body is empty";
    return false;
  }
  if (Tag < static_cast<uint8_t>(RecordType::SessionCreate) ||
      Tag > static_cast<uint8_t>(RecordType::SaturationMark)) {
    Error = "unknown record type tag " + std::to_string(Tag);
    return false;
  }
  R = DurableRecord();
  R.Type = static_cast<RecordType>(Tag);
  R.Session = Rd.getStr();
  switch (R.Type) {
  case RecordType::SessionCreate:
    R.Source = Rd.getStr();
    R.Mode = Rd.getU32();
    R.LoopVariance = Rd.getU32();
    R.OnBadProfile = Rd.getU32();
    break;
  case RecordType::SessionEvict:
    break;
  case RecordType::RunExec:
    R.RunCount = Rd.getU32();
    break;
  case RecordType::EpochFold:
    R.Folds = decodeFolds(Rd);
    R.Clamped = Rd.getStrs();
    break;
  case RecordType::ProfileIngest:
    R.Profile = Rd.getBytes(Rd.getU64());
    break;
  case RecordType::SaturationMark:
    R.FunctionName = Rd.getStr();
    break;
  }
  if (!Rd.ok()) {
    Error = "record payload is truncated";
    return false;
  }
  if (!Rd.atEnd()) {
    Error = "record payload has trailing bytes";
    return false;
  }
  return true;
}
