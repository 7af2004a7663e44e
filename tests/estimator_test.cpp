//===--- tests/estimator_test.cpp - End-to-end facade tests ---------------===//

#include "TestPrograms.h"

#include "cost/Estimator.h"
#include "parser/Parser.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ptran;
using namespace ptran::testing;

namespace {

TEST(Estimator, EndToEndFromSource) {
  const char *Src = R"(
program main
  integer i, n, s
  n = 20
  s = 0
  do 10 i = 1, n
    if (mod(i, 3) .eq. 0) s = s + i
10 continue
  print s
end
)";
  DiagnosticEngine Diags;
  std::unique_ptr<Program> P = parseProgram(Src, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  auto Est = Estimator::create(*P, CostModel::optimizing(), EstimatorOptions(Diags));
  ASSERT_NE(Est, nullptr) << Diags.str();

  RunResult R = Est->profiledRun();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "63\n"); // 3+6+9+12+15+18.

  TimeAnalysis TA = Est->analyze();
  // The estimate equals the simulated cycles exactly: frequencies came
  // from this very run.
  EXPECT_NEAR(TA.programTime(), R.Cycles, 1e-6 * R.Cycles);
}

TEST(Estimator, RejectsIrreduciblePrograms) {
  // A GOTO weave producing two loop entries.
  const char *Src = R"(
program main
  integer a
  a = 0
  if (a .gt. 0) goto 20
10 a = a + 1
  goto 30
20 a = a + 2
30 if (a .lt. 5) goto 20
  if (a .lt. 9) goto 10
end
)";
  DiagnosticEngine Diags;
  std::unique_ptr<Program> P = parseProgram(Src, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  auto Est = Estimator::create(*P, CostModel::optimizing(), EstimatorOptions(Diags));
  EXPECT_EQ(Est, nullptr);
  EXPECT_NE(Diags.str().find("irreducible"), std::string::npos)
      << Diags.str();
}

TEST(Estimator, AnalysisMatchesRunCyclesOnWorkloads) {
  for (const Workload *W : table1Workloads()) {
    std::unique_ptr<Program> P = parseWorkload(*W);
    DiagnosticEngine Diags;
    auto Est = Estimator::create(*P, CostModel::optimizing(), EstimatorOptions(Diags));
    ASSERT_NE(Est, nullptr) << W->Name << "\n" << Diags.str();
    RunResult R = Est->profiledRun(W->MaxSteps);
    ASSERT_TRUE(R.Ok) << W->Name << ": " << R.Error;
    TimeAnalysis TA = Est->analyze();
    EXPECT_NEAR(TA.programTime(), R.Cycles, 1e-6 * R.Cycles) << W->Name;
    // Variance exists: the workloads have data-dependent branches.
    EXPECT_GE(TA.programStdDev(), 0.0);
  }
}

TEST(Estimator, NaiveModeStillMeasuresOverhead) {
  Figure1Program Fix = makeFigure1();
  DiagnosticEngine Diags;
  auto Est = Estimator::create(*Fix.Prog, CostModel::optimizing(),
                               EstimatorOptions(Diags).mode(ProfileMode::Naive));
  ASSERT_NE(Est, nullptr) << Diags.str();
  ASSERT_TRUE(Est->profiledRun().Ok);
  EXPECT_GT(Est->runtime().dynamicIncrements() +
                Est->runtime().dynamicAdds(),
            0u);
  EXPECT_GT(Est->runtime().overheadCycles(), 0.0);
  // Naive counters measure blocks, not conditions.
  EXPECT_FALSE(Est->totalsFor(*Fix.Main).Ok);
}

TEST(Estimator, RandomProgramsEstimateTheirOwnRun) {
  for (uint64_t Seed : {11ull, 22ull, 33ull, 44ull}) {
    std::unique_ptr<Program> P =
        makeRandomProgram(Seed, RandomProgramConfig());
    DiagnosticEngine Diags;
    auto Est = Estimator::create(*P, CostModel::optimizing(), EstimatorOptions(Diags));
    ASSERT_NE(Est, nullptr) << Diags.str();
    RunResult R = Est->profiledRun();
    ASSERT_TRUE(R.Ok) << R.Error;
    TimeAnalysis TA = Est->analyze();
    EXPECT_NEAR(TA.programTime(), R.Cycles,
                1e-6 * std::max(1.0, R.Cycles))
        << "seed " << Seed;
  }
}

} // namespace
