//===--- tests/pdb_test.cpp - Program database tests ----------------------===//
//
// The PTRAN-style program database: accumulation across runs,
// serialization round trips, merging, fingerprint guarding and failure
// handling on malformed input.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "cost/Estimator.h"
#include "pdb/ProgramDatabase.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace ptran;
using namespace ptran::testing;

namespace {

struct PdbFixture {
  Figure1Program Fix;
  std::unique_ptr<Estimator> Est;
  DiagnosticEngine Diags;

  PdbFixture() {
    Fix = makeFigure1();
    Est = Estimator::create(*Fix.Prog, CostModel::optimizing(), EstimatorOptions(Diags));
    EXPECT_NE(Est, nullptr) << Diags.str();
  }

  ProgramDatabase recordOneRun() {
    EXPECT_TRUE(Est->profiledRun().Ok);
    ProgramDatabase Db;
    for (const auto &F : Fix.Prog->functions())
      Db.accumulateTotals(Est->analysis().of(*F), Est->totalsFor(*F));
    Db.noteRunCompleted();
    Est->runtimeMutable().reset();
    return Db;
  }
};

TEST(ProgramDatabaseTest, AccumulateAndQuery) {
  PdbFixture Fx;
  ProgramDatabase Db = Fx.recordOneRun();
  EXPECT_EQ(Db.runsRecorded(), 1u);

  const FunctionAnalysis &FA = Fx.Est->analysis().of(*Fx.Fix.Main);
  FrequencyTotals T = Db.totalsFor(FA);
  ASSERT_TRUE(T.Ok);
  EXPECT_DOUBLE_EQ(
      T.condTotal({FA.ecfg().start(), CfgLabel::U}), 1.0);

  // Unknown function: not Ok.
  Program Other;
  DiagnosticEngine D2;
  FunctionBuilder B(Other, "stranger", D2);
  B.ret();
  ASSERT_NE(B.finish(), nullptr);
  auto PA2 = ProgramAnalysis::compute(Other, D2);
  // "stranger" has no entry named main -> compute on the function alone.
  auto FA2 = FunctionAnalysis::compute(*Other.findFunction("stranger"), D2);
  ASSERT_NE(FA2, nullptr) << D2.str();
  EXPECT_FALSE(Db.totalsFor(*FA2).Ok);
  (void)PA2;
}

TEST(ProgramDatabaseTest, SerializeDeserializeRoundTrip) {
  PdbFixture Fx;
  ProgramDatabase Db = Fx.recordOneRun();
  Db.accumulateLoopMoments(*Fx.Fix.Main, 2, {3.0, 30.0, 320.0});

  std::string Text = Db.serialize();
  DiagnosticEngine Diags;
  auto Loaded = ProgramDatabase::deserialize(Text, Diags);
  ASSERT_TRUE(Loaded.has_value()) << Diags.str();
  EXPECT_EQ(Loaded->runsRecorded(), 1u);
  EXPECT_EQ(Loaded->serialize(), Text);

  const LoopFrequencyStats::Moments *M = Loaded->momentsFor(*Fx.Fix.Main, 2);
  ASSERT_NE(M, nullptr);
  EXPECT_DOUBLE_EQ(M->Entries, 3.0);
  EXPECT_DOUBLE_EQ(M->mean(), 10.0);
}

TEST(ProgramDatabaseTest, MergeSumsRecords) {
  PdbFixture Fx;
  ProgramDatabase A = Fx.recordOneRun();
  ProgramDatabase B = Fx.recordOneRun();

  const FunctionAnalysis &FA = Fx.Est->analysis().of(*Fx.Fix.Main);
  double Single = A.totalsFor(FA).condTotal({FA.ecfg().start(), CfgLabel::U});

  DiagnosticEngine Diags;
  A.merge(B, Diags);
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_EQ(A.runsRecorded(), 2u);
  EXPECT_DOUBLE_EQ(
      A.totalsFor(FA).condTotal({FA.ecfg().start(), CfgLabel::U}),
      2.0 * Single);

  // Frequencies derived from the merged store still give Figure 3.
  Frequencies Freqs = computeFrequencies(FA, A.totalsFor(FA));
  std::map<const Function *, Frequencies> FreqMap;
  for (const auto &F : Fx.Fix.Prog->functions())
    FreqMap[F.get()] = computeFrequencies(
        Fx.Est->analysis().of(*F),
        A.totalsFor(Fx.Est->analysis().of(*F)).Ok
            ? A.totalsFor(Fx.Est->analysis().of(*F))
            : Fx.Est->totalsFor(*F));
  (void)Freqs;
}

TEST(ProgramDatabaseTest, FingerprintMismatchSkipsFunction) {
  PdbFixture Fx;
  ProgramDatabase Db = Fx.recordOneRun();

  // Tamper with the serialized fingerprint (second digit, so the value
  // stays within uint64 range and still parses).
  std::string Text = Db.serialize();
  size_t Pos = Text.find("function main ");
  ASSERT_NE(Pos, std::string::npos);
  Text[Pos + 15] = Text[Pos + 15] == '1' ? '2' : '1';

  DiagnosticEngine Diags;
  auto Tampered = ProgramDatabase::deserialize(Text, Diags);
  ASSERT_TRUE(Tampered.has_value());
  const FunctionAnalysis &FA = Fx.Est->analysis().of(*Fx.Fix.Main);
  EXPECT_FALSE(Tampered->totalsFor(FA).Ok);

  // Merging incompatible records warns and skips.
  ProgramDatabase Fresh = Fx.recordOneRun();
  Fresh.merge(*Tampered, Diags);
  EXPECT_FALSE(Diags.diagnostics().empty());
}

TEST(ProgramDatabaseTest, RejectsMalformedInput) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(ProgramDatabase::deserialize("not a pdb", Diags).has_value());
  EXPECT_TRUE(Diags.hasErrors());

  Diags.clear();
  EXPECT_FALSE(
      ProgramDatabase::deserialize("ptran-pdb 1\ncond 1 2 3\n", Diags)
          .has_value()); // cond before any function record.

  Diags.clear();
  EXPECT_FALSE(
      ProgramDatabase::deserialize("ptran-pdb 1\nbogus line\n", Diags)
          .has_value());
}

TEST(ProgramDatabaseTest, FileRoundTrip) {
  PdbFixture Fx;
  ProgramDatabase Db = Fx.recordOneRun();

  std::string Path = ::testing::TempDir() + "/ptran_pdb_test.txt";
  DiagnosticEngine Diags;
  ASSERT_TRUE(Db.saveToFile(Path, Diags)) << Diags.str();
  auto Loaded = ProgramDatabase::loadFromFile(Path, Diags);
  ASSERT_TRUE(Loaded.has_value()) << Diags.str();
  EXPECT_EQ(Loaded->serialize(), Db.serialize());
  std::remove(Path.c_str());

  EXPECT_FALSE(
      ProgramDatabase::loadFromFile("/nonexistent/dir/x.pdb", Diags)
          .has_value());
}

/// A save that hits a full disk (a file-size limit far below the text)
/// must report failure and leave the previous database intact, so the
/// runs it accumulated survive.
TEST(ProgramDatabaseTest, FailedSaveKeepsPreviousDatabase) {
  PdbFixture Fx;
  ProgramDatabase Old = Fx.recordOneRun();
  std::string Path = ::testing::TempDir() + "/ptran_pdb_failed_save.txt";
  DiagnosticEngine Diags;
  ASSERT_TRUE(Old.saveToFile(Path, Diags)) << Diags.str();

  ProgramDatabase New = Old;
  New.merge(Fx.recordOneRun(), Diags);
  ASSERT_EQ(New.runsRecorded(), 2u);
  std::optional<bool> Saved = runUnderFileSizeLimit(64, [&] {
    DiagnosticEngine SaveDiags;
    return New.saveToFile(Path, SaveDiags);
  });
  ASSERT_TRUE(Saved.has_value()) << "save child did not exit normally";
  EXPECT_FALSE(*Saved) << "a save past the file-size limit must fail";

  auto Loaded = ProgramDatabase::loadFromFile(Path, Diags);
  ASSERT_TRUE(Loaded.has_value()) << Diags.str();
  EXPECT_EQ(Loaded->runsRecorded(), 1u);
  EXPECT_EQ(Loaded->serialize(), Old.serialize());
  std::remove(Path.c_str());
}

} // namespace
