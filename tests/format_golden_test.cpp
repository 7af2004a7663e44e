//===--- tests/format_golden_test.cpp - Byte-pinned file and wire formats -===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the exact bytes of every persisted or transmitted format: a PTPF
/// profile image, a PTWJ journal holding one record of each RecordType, a
/// PTSS snapshot image and one length-prefixed wire frame. Each format is
/// encoded from fixed inputs and memcmp'd against its checked-in golden
/// under tests/golden/formats/; then the golden is decoded and every field
/// compared with the inputs. Round-trip tests alone cannot catch a layout
/// change made consistently on both sides — these can.
///
/// A mismatching encoding is written to `<name>.actual` in the working
/// directory so the difference can be inspected (e.g. with cmp -l).
///
//===----------------------------------------------------------------------===//

#include "durable/Journal.h"
#include "durable/Records.h"
#include "durable/Snapshot.h"
#include "profile/ProfileFile.h"
#include "serve/Protocol.h"
#include "serve/Wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace ptran;
using namespace ptran::durable;

namespace {

std::vector<uint8_t> readGolden(const std::string &Name) {
  std::ifstream In(std::string(PTRAN_FORMAT_GOLDEN_DIR) + "/" + Name,
                   std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In), {});
}

/// memcmp-equality against the golden; on mismatch the actual bytes land
/// in `<Name>.actual` for inspection.
void expectMatchesGolden(const std::string &Name,
                         const std::vector<uint8_t> &Actual) {
  std::vector<uint8_t> Golden = readGolden(Name);
  bool Same = Golden.size() == Actual.size() &&
              std::memcmp(Golden.data(), Actual.data(), Golden.size()) == 0;
  if (!Same) {
    std::ofstream Out(Name + ".actual", std::ios::binary);
    Out.write(reinterpret_cast<const char *>(Actual.data()),
              static_cast<std::streamsize>(Actual.size()));
  }
  EXPECT_TRUE(Same) << Name << ": encoding differs from the golden ("
                    << Actual.size() << " vs " << Golden.size()
                    << " bytes); wrote " << Name << ".actual";
}

struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/ptran-golden-XXXXXX";
    EXPECT_NE(::mkdtemp(Buf), nullptr);
    Path = Buf;
  }
  ~TempDir() {
    ::unlink((Path + "/journal.ptwj").c_str());
    ::unlink((Path + "/journal.ptwj.quarantine").c_str());
    ::rmdir(Path.c_str());
  }
};

//===--- fixed inputs -----------------------------------------------------===//

ProfileFile fixedProfile() {
  ProfileFile PF;
  FunctionSection Main;
  Main.Name = "main";
  Main.Fingerprint = 0x0123456789ABCDEFULL;
  Main.Counters = {1.0, 10.0, 0.5, 4503599627370496.0};
  Main.Loops.push_back({3, 2.0, 20.0, 250.0});
  FunctionSection Leaf;
  Leaf.Name = "leaf";
  Leaf.Fingerprint = 0xFEDCBA9876543210ULL;
  Leaf.Counters = {7.0};
  PF.sectionsMutable() = {Main, Leaf};
  return PF;
}

std::vector<FoldEntry> fixedFolds() {
  FoldEntry Leaf;
  Leaf.Function = "leaf";
  Leaf.Conds = {{7, 1, 16.0}, {9, 0, 0.5}};
  FoldEntry Main;
  Main.Function = "main";
  Main.Conds = {{2, 2, 1e300}};
  return {Leaf, Main};
}

/// One record of each RecordType, in tag order.
std::vector<DurableRecord> fixedRecords() {
  std::vector<DurableRecord> Rs(6);
  Rs[0].Type = RecordType::SessionCreate;
  Rs[0].Session = "s0";
  Rs[0].Source = "      program main\n      end\n";
  Rs[0].Mode = 3;
  Rs[0].LoopVariance = 2;
  Rs[0].OnBadProfile = 1;
  Rs[1].Type = RecordType::SessionEvict;
  Rs[1].Session = "gone";
  Rs[2].Type = RecordType::RunExec;
  Rs[2].Session = "s0";
  Rs[2].RunCount = 5;
  Rs[3].Type = RecordType::EpochFold;
  Rs[3].Session = "s0";
  Rs[3].Folds = fixedFolds();
  Rs[3].Clamped = {"leaf"};
  Rs[4].Type = RecordType::ProfileIngest;
  Rs[4].Session = "s0";
  Rs[4].Profile = fixedProfile().serialize();
  Rs[5].Type = RecordType::SaturationMark;
  Rs[5].Session = "s0";
  Rs[5].FunctionName = "main";
  return Rs;
}

DurableSessionState fixedSessionState() {
  DurableSessionState S;
  S.Name = "bench-0";
  S.Source = "      program main\n      end\n";
  S.Mode = 3;
  S.LoopVariance = 1;
  S.OnBadProfile = 1;
  S.Runs = 12;
  S.ProfileImage = fixedProfile().serialize();
  S.External = fixedFolds();
  S.Saturated = {"main"};
  S.Quarantined = {{"leaf", "section checksum mismatch"}};
  return S;
}
constexpr uint64_t FixedWatermark = 0x1122334455667788ULL;

serve::WireMessage fixedMessage() {
  serve::WireMessage M;
  M.Verb = "stream-deltas";
  M.Params["session"] = "bench-0";
  M.Params["flush"] = "1";
  M.Params["note"] = "a=b";
  M.Body = std::string("\x01\x00\x00\x00\x02\x00\x00\x00", 8) +
           std::string("\x00\x00\x00\x00\x00\x00\xF0\x3F", 8);
  return M;
}

//===--- field comparisons ------------------------------------------------===//

void expectFoldsEqual(const std::vector<FoldEntry> &A,
                      const std::vector<FoldEntry> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Function, B[I].Function);
    ASSERT_EQ(A[I].Conds.size(), B[I].Conds.size());
    for (size_t J = 0; J < A[I].Conds.size(); ++J) {
      EXPECT_EQ(A[I].Conds[J].Node, B[I].Conds[J].Node);
      EXPECT_EQ(A[I].Conds[J].Label, B[I].Conds[J].Label);
      EXPECT_EQ(A[I].Conds[J].Total, B[I].Conds[J].Total);
    }
  }
}

void expectProfileEqual(const ProfileFile &A, const ProfileFile &B) {
  EXPECT_EQ(A.version(), B.version());
  EXPECT_EQ(A.programFingerprint(), B.programFingerprint());
  EXPECT_EQ(A.mode(), B.mode());
  EXPECT_EQ(A.runs(), B.runs());
  ASSERT_EQ(A.sections().size(), B.sections().size());
  for (size_t I = 0; I < A.sections().size(); ++I) {
    const FunctionSection &SA = A.sections()[I], &SB = B.sections()[I];
    EXPECT_EQ(SA.Name, SB.Name);
    EXPECT_EQ(SA.Fingerprint, SB.Fingerprint);
    EXPECT_TRUE(SB.Valid) << SB.Issue;
    EXPECT_EQ(SA.Counters, SB.Counters);
    ASSERT_EQ(SA.Loops.size(), SB.Loops.size());
    for (size_t L = 0; L < SA.Loops.size(); ++L) {
      EXPECT_EQ(SA.Loops[L].HeaderStmt, SB.Loops[L].HeaderStmt);
      EXPECT_EQ(SA.Loops[L].Entries, SB.Loops[L].Entries);
      EXPECT_EQ(SA.Loops[L].Sum, SB.Loops[L].Sum);
      EXPECT_EQ(SA.Loops[L].SumSq, SB.Loops[L].SumSq);
    }
  }
}

void expectRecordEqual(const DurableRecord &A, const DurableRecord &B) {
  EXPECT_EQ(A.Type, B.Type);
  EXPECT_EQ(A.Session, B.Session);
  EXPECT_EQ(A.Source, B.Source);
  EXPECT_EQ(A.Mode, B.Mode);
  EXPECT_EQ(A.LoopVariance, B.LoopVariance);
  EXPECT_EQ(A.OnBadProfile, B.OnBadProfile);
  EXPECT_EQ(A.RunCount, B.RunCount);
  expectFoldsEqual(A.Folds, B.Folds);
  EXPECT_EQ(A.Clamped, B.Clamped);
  EXPECT_EQ(A.Profile, B.Profile);
  EXPECT_EQ(A.FunctionName, B.FunctionName);
}

//===--- the four formats -------------------------------------------------===//

TEST(FormatGolden, ProfileImage) {
  expectMatchesGolden("profile.ptpf", fixedProfile().serialize());

  DiagnosticEngine Diags;
  std::optional<ProfileFile> Back =
      ProfileFile::deserialize(readGolden("profile.ptpf"), &Diags);
  ASSERT_TRUE(Back.has_value()) << Diags.str();
  EXPECT_TRUE(Diags.diagnostics().empty()) << Diags.str();
  expectProfileEqual(fixedProfile(), *Back);
}

TEST(FormatGolden, JournalWithEveryRecordType) {
  std::vector<DurableRecord> Inputs = fixedRecords();
  {
    TempDir D;
    std::string Path = D.Path + "/journal.ptwj";
    DeltaJournal::OpenReport Report;
    std::string Error;
    auto J = DeltaJournal::open(Path, FsyncPolicy::Never, Report, nullptr,
                                Error);
    ASSERT_NE(J, nullptr) << Error;
    for (const DurableRecord &R : Inputs)
      ASSERT_NE(J->append(R, Error), 0u) << Error;
    J.reset();
    std::ifstream In(Path, std::ios::binary);
    expectMatchesGolden(
        "journal.ptwj",
        std::vector<uint8_t>(std::istreambuf_iterator<char>(In), {}));
  }

  TempDir D;
  std::string Path = D.Path + "/journal.ptwj";
  std::vector<uint8_t> Golden = readGolden("journal.ptwj");
  {
    std::ofstream Out(Path, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(Golden.data()),
              static_cast<std::streamsize>(Golden.size()));
  }
  DeltaJournal::OpenReport Report;
  std::vector<DurableRecord> Back;
  std::string Error;
  auto J = DeltaJournal::open(Path, FsyncPolicy::Never, Report, &Back, Error);
  ASSERT_NE(J, nullptr) << Error;
  EXPECT_FALSE(Report.TailQuarantined) << Report.TailReason;
  EXPECT_EQ(Report.FirstLsn, 1u);
  EXPECT_EQ(Report.NextLsn, 1u + Inputs.size());
  ASSERT_EQ(Back.size(), Inputs.size());
  for (size_t I = 0; I < Inputs.size(); ++I) {
    SCOPED_TRACE("record " + std::to_string(I));
    EXPECT_EQ(Back[I].Lsn, I + 1);
    expectRecordEqual(Inputs[I], Back[I]);
  }
}

TEST(FormatGolden, SnapshotImage) {
  DurableSessionState In = fixedSessionState();
  expectMatchesGolden("snapshot.ptss", encodeSnapshot(In, FixedWatermark));

  std::vector<uint8_t> Golden = readGolden("snapshot.ptss");
  DurableSessionState Back;
  uint64_t Watermark = 0;
  std::string Error;
  ASSERT_TRUE(
      decodeSnapshot(Golden.data(), Golden.size(), Back, Watermark, Error))
      << Error;
  EXPECT_EQ(Watermark, FixedWatermark);
  EXPECT_EQ(Back.Name, In.Name);
  EXPECT_EQ(Back.Source, In.Source);
  EXPECT_EQ(Back.Mode, In.Mode);
  EXPECT_EQ(Back.LoopVariance, In.LoopVariance);
  EXPECT_EQ(Back.OnBadProfile, In.OnBadProfile);
  EXPECT_EQ(Back.Runs, In.Runs);
  EXPECT_EQ(Back.ProfileImage, In.ProfileImage);
  expectFoldsEqual(In.External, Back.External);
  EXPECT_EQ(Back.Saturated, In.Saturated);
  EXPECT_EQ(Back.Quarantined, In.Quarantined);
}

TEST(FormatGolden, WireFrame) {
  int Sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  std::string Error;
  ASSERT_TRUE(serve::writeFrame(Sv[0], fixedMessage(), Error)) << Error;
  std::vector<uint8_t> Sent(4096);
  ssize_t N = ::recv(Sv[1], Sent.data(), Sent.size(), MSG_DONTWAIT);
  ASSERT_GT(N, 0);
  Sent.resize(static_cast<size_t>(N));
  expectMatchesGolden("frame.wire", Sent);

  // The prefix-less payload is encodeFrame's output.
  std::optional<std::vector<uint8_t>> Payload =
      serve::encodeFrame(fixedMessage(), Error);
  ASSERT_TRUE(Payload.has_value()) << Error;
  ASSERT_EQ(Sent.size(), 4 + Payload->size());
  EXPECT_EQ(std::memcmp(Sent.data() + 4, Payload->data(), Payload->size()),
            0);

  std::vector<uint8_t> Golden = readGolden("frame.wire");
  ASSERT_FALSE(Golden.empty());
  ASSERT_EQ(::send(Sv[0], Golden.data(), Golden.size(), 0),
            static_cast<ssize_t>(Golden.size()));
  serve::WireMessage Back;
  ASSERT_EQ(serve::readFrame(Sv[1], Back, Error), 1) << Error;
  serve::WireMessage In = fixedMessage();
  EXPECT_EQ(Back.Verb, In.Verb);
  EXPECT_EQ(Back.Params, In.Params);
  EXPECT_EQ(Back.Body, In.Body);
  ::close(Sv[0]);
  ::close(Sv[1]);
}

} // namespace
