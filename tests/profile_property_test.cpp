//===--- tests/profile_property_test.cpp - Recovery == ground truth -------===//
//
// The central property of Section 3: the optimized counter placements
// (opt1 / opt1+2 / smart) must recover exactly the TOTAL_FREQ values that
// an exhaustive profiler observes, on randomly generated programs and on
// the Table 1 workloads, while using fewer counters and fewer dynamic
// updates.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "cost/Estimator.h"
#include "interp/Interpreter.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "profile/ProfileRuntime.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ptran;
using namespace ptran::testing;

namespace {

struct ProfiledProgram {
  std::unique_ptr<Program> Prog;
  std::unique_ptr<ProgramAnalysis> PA;
  ProgramPlan Plans[3];
  std::unique_ptr<ProfileRuntime> Runtimes[3];
  std::unique_ptr<ExactProfile> Exact;
  RunResult Result;
};

constexpr ProfileMode OptimizedModes[3] = {ProfileMode::Opt1,
                                           ProfileMode::Opt12,
                                           ProfileMode::Smart};

/// Runs \p Prog once with an exact profiler and all three optimized
/// runtimes attached simultaneously.
ProfiledProgram profileOnce(std::unique_ptr<Program> Prog) {
  ProfiledProgram Out;
  Out.Prog = std::move(Prog);
  DiagnosticEngine Diags;
  Out.PA = ProgramAnalysis::compute(*Out.Prog, Diags);
  EXPECT_NE(Out.PA, nullptr) << Diags.str();
  if (!Out.PA)
    return Out;

  CostModel CM = CostModel::optimizing();
  Interpreter Interp(*Out.Prog, CM);
  Out.Exact = std::make_unique<ExactProfile>(*Out.PA);
  Interp.addObserver(Out.Exact.get());
  for (int M = 0; M < 3; ++M) {
    Out.Plans[M] = ProgramPlan::build(*Out.PA, OptimizedModes[M]);
    Out.Runtimes[M] =
        std::make_unique<ProfileRuntime>(*Out.PA, Out.Plans[M], CM);
    Interp.addObserver(Out.Runtimes[M].get());
  }
  Out.Result = Interp.run();
  return Out;
}

void expectRecoveryMatchesExact(const ProfiledProgram &P) {
  ASSERT_TRUE(P.Result.Ok) << P.Result.Error;
  for (const auto &F : P.Prog->functions()) {
    const FunctionAnalysis &FA = P.PA->of(*F);
    FrequencyTotals Truth = P.Exact->totals(*F);
    for (int M = 0; M < 3; ++M) {
      FrequencyTotals Got = P.Runtimes[M]->recover(*F);
      ASSERT_TRUE(Got.Ok) << profileModeName(OptimizedModes[M])
                          << " recovery failed for " << F->name();
      for (const ControlCondition &C : FA.cd().conditions()) {
        EXPECT_NEAR(Got.condTotal(C), Truth.condTotal(C), 1e-6)
            << profileModeName(OptimizedModes[M]) << " condition ("
            << FA.ecfg().cfg().nodeName(C.Node) << ", "
            << cfgLabelName(C.Label) << ") in " << F->name() << "\n"
            << printFunction(*F);
      }
      for (NodeId N : FA.cd().topoOrder()) {
        EXPECT_NEAR(Got.nodeTotal(N), Truth.nodeTotal(N), 1e-6)
            << profileModeName(OptimizedModes[M]) << " node total of "
            << FA.ecfg().cfg().nodeName(N) << " in " << F->name();
      }
    }
  }
}

class RandomProgramRecovery : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramRecovery, AllOptimizedModesMatchExactCounts) {
  RandomProgramConfig Cfg;
  std::unique_ptr<Program> Prog = makeRandomProgram(GetParam(), Cfg);
  DiagnosticEngine Diags;
  ASSERT_TRUE(verifyProgram(*Prog, Diags)) << Diags.str();
  ProfiledProgram P = profileOnce(std::move(Prog));
  expectRecoveryMatchesExact(P);
}

TEST_P(RandomProgramRecovery, PlansAreSymbolicallyRecoverable) {
  RandomProgramConfig Cfg;
  std::unique_ptr<Program> Prog = makeRandomProgram(GetParam(), Cfg);
  DiagnosticEngine Diags;
  auto PA = ProgramAnalysis::compute(*Prog, Diags);
  ASSERT_NE(PA, nullptr) << Diags.str();
  for (const auto &F : Prog->functions())
    for (ProfileMode M : OptimizedModes) {
      FunctionPlan Plan = FunctionPlan::build(PA->of(*F), M);
      EXPECT_TRUE(planIsRecoverable(PA->of(*F), Plan))
          << profileModeName(M) << " plan unrecoverable for " << F->name();
    }
}

TEST_P(RandomProgramRecovery, OptimizationMonotonicallyReducesCounters) {
  RandomProgramConfig Cfg;
  std::unique_ptr<Program> Prog = makeRandomProgram(GetParam(), Cfg);
  DiagnosticEngine Diags;
  auto PA = ProgramAnalysis::compute(*Prog, Diags);
  ASSERT_NE(PA, nullptr) << Diags.str();

  ProgramPlan Naive = ProgramPlan::build(*PA, ProfileMode::Naive);
  ProgramPlan Opt1 = ProgramPlan::build(*PA, ProfileMode::Opt1);
  ProgramPlan Opt12 = ProgramPlan::build(*PA, ProfileMode::Opt12);
  ProgramPlan Smart = ProgramPlan::build(*PA, ProfileMode::Smart);

  // Static counter counts: each optimization level may only help.
  EXPECT_LE(Opt12.totalCounters(), Opt1.totalCounters());
  EXPECT_LE(Smart.totalCounters(), Opt12.totalCounters());
}

/// Runs \p Prog once through an Estimator with an exact profiler alongside
/// and checks, for every loop header H of the estimator's analysis, that
/// the loop moments' Sigma FREQ equals H's exact execution count: every
/// header execution lands in exactly one recorded loop entry, under the
/// statement the variance pass looks up.
void expectLoopSumsMatchHeaderCounts(const Program &Prog) {
  DiagnosticEngine Diags;
  std::unique_ptr<Estimator> Est =
      Estimator::create(Prog, CostModel::optimizing(), EstimatorOptions(Diags));
  ASSERT_NE(Est, nullptr) << Diags.str();
  ExactProfile Exact(Est->analysis());
  RunResult R = Est->profiledRun(Interpreter::DefaultMaxSteps, &Exact);
  ASSERT_TRUE(R.Ok) << R.Error;
  for (const auto &F : Prog.functions()) {
    const FunctionAnalysis &FA = Est->analysis().of(*F);
    for (NodeId H : FA.intervals().headers()) {
      StmtId S = FA.cfg().origin(H);
      std::optional<LoopFrequencyStats::Moments> M =
          Est->loopStats().momentsFor(*F, S);
      EXPECT_EQ(M ? M->Sum : 0.0, Exact.stmtCount(*F, S))
          << "loop headed by " << FA.cfg().nodeName(H) << " in "
          << F->name() << "\n"
          << printFunction(*F);
    }
  }
}

TEST_P(RandomProgramRecovery, LoopMomentSumsMatchHeaderCounts) {
  expectLoopSumsMatchHeaderCounts(
      *makeRandomProgram(GetParam(), RandomProgramConfig()));
}

TEST(LoopMoments, GotoFormedLoopsSumToHeaderCounts) {
  // Loops whose goto-preserving header, latch or exit is a GOTO that goto
  // elision folds into an edge, including a GOTO chain and a loop that is
  // irreducible only through such a GOTO.
  const char *Sources[] = {
      R"(program main
  integer i, j
  do 30 j = 1, 8
    i = 0
10  goto 20
20  i = i + 1
    if (i .lt. j) goto 10
30 continue
end
)",
      R"(program main
  integer i, x
  i = 0
  x = 1
  if (x .gt. 0) goto 20
10 goto 20
20 i = i + 1
  if (i .lt. 3) goto 10
end
)",
      R"(program main
  integer i, j
  j = 0
  do 40 i = 1, 5
10  goto 15
15  goto 20
20  j = j + 1
    if (j .gt. 2 * i) goto 30
    if (mod(j, 3) .eq. 0) goto 35
    goto 15
35  goto 10
30  goto 40
40 continue
end
)",
  };
  for (const char *Src : Sources) {
    DiagnosticEngine Diags;
    std::unique_ptr<Program> Prog = parseProgram(Src, Diags);
    ASSERT_NE(Prog, nullptr) << Diags.str();
    expectLoopSumsMatchHeaderCounts(*Prog);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramRecovery,
                         ::testing::Range<uint64_t>(1, 41));

TEST(WorkloadRecovery, LivermoreLoops) {
  ProfiledProgram P = profileOnce(parseWorkload(livermoreLoops()));
  expectRecoveryMatchesExact(P);
}

TEST(WorkloadRecovery, SimpleKernel) {
  ProfiledProgram P = profileOnce(parseWorkload(simpleKernel()));
  expectRecoveryMatchesExact(P);
}

TEST(WorkloadRecovery, SmartBeatsNaiveDynamically) {
  // The Table 1 claim, in update counts: smart profiling performs fewer
  // dynamic counter updates than naive per-block profiling.
  std::unique_ptr<Program> Prog = parseWorkload(livermoreLoops());
  DiagnosticEngine Diags;
  auto PA = ProgramAnalysis::compute(*Prog, Diags);
  ASSERT_NE(PA, nullptr) << Diags.str();
  CostModel CM = CostModel::optimizing();

  ProgramPlan NaivePlan = ProgramPlan::build(*PA, ProfileMode::Naive);
  ProgramPlan SmartPlan = ProgramPlan::build(*PA, ProfileMode::Smart);
  ProfileRuntime NaiveRt(*PA, NaivePlan, CM);
  ProfileRuntime SmartRt(*PA, SmartPlan, CM);

  Interpreter Interp(*Prog, CM);
  Interp.addObserver(&NaiveRt);
  Interp.addObserver(&SmartRt);
  RunResult R = Interp.run();
  ASSERT_TRUE(R.Ok) << R.Error;

  uint64_t NaiveUpdates = NaiveRt.dynamicIncrements() + NaiveRt.dynamicAdds();
  uint64_t SmartUpdates = SmartRt.dynamicIncrements() + SmartRt.dynamicAdds();
  EXPECT_LT(SmartUpdates, NaiveUpdates);
  EXPECT_LT(SmartRt.overheadCycles(), NaiveRt.overheadCycles());
}

TEST(NaiveProfile, BlockCountsMatchExactExecution) {
  // The naive plan's block counters must equal the leader statement's
  // exact execution count.
  std::unique_ptr<Program> Prog = makeRandomProgram(7, RandomProgramConfig());
  DiagnosticEngine Diags;
  auto PA = ProgramAnalysis::compute(*Prog, Diags);
  ASSERT_NE(PA, nullptr) << Diags.str();
  CostModel CM = CostModel::optimizing();

  ProgramPlan Plan = ProgramPlan::build(*PA, ProfileMode::Naive);
  ProfileRuntime Rt(*PA, Plan, CM);
  ExactProfile Exact(*PA);

  Interpreter Interp(*Prog, CM);
  Interp.addObserver(&Rt);
  Interp.addObserver(&Exact);
  RunResult R = Interp.run();
  ASSERT_TRUE(R.Ok) << R.Error;

  for (const auto &F : Prog->functions()) {
    const FunctionAnalysis &FA = PA->of(*F);
    const FunctionPlan &FP = Plan.of(*F);
    std::vector<double> Counters = Rt.countersFor(*F);
    for (unsigned B = 0; B < FP.naiveBlocks().size(); ++B) {
      NodeId Leader = FP.naiveBlocks()[B][0];
      StmtId LeaderStmt = FA.cfg().origin(Leader);
      if (LeaderStmt == InvalidStmt)
        continue;
      EXPECT_DOUBLE_EQ(Counters[B], Exact.stmtCount(*F, LeaderStmt))
          << "block " << B << " in " << F->name();
    }
  }
}

} // namespace
