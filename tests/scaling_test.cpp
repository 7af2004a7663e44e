//===--- tests/scaling_test.cpp - Cold pipeline stays near-linear ---------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An asymptotic and footprint regression test. It runs the whole cold
/// pipeline on one large procedure, makeScalingProgram(2048, 10): 20480
/// loops nested ten deep, 51k statements, 25M simulated cycles. The
/// pipeline is the analysis (CFG, intervals, ECFG, FCDG), the smart
/// counter plan, one profiled run with LoopFrequencyStats attached,
/// TOTAL_FREQ recovery and TIME/VAR with profiled loop variance.
///
/// The result check: TIME(START) must equal the simulated cycles of the
/// profiled run, since the frequencies came from that run. The time gate
/// is the ctest TIMEOUT set in tests/CMakeLists.txt. Every pass is linear
/// in the graph size times the loop depth, so the run fits the timeout
/// with a wide margin. One pass that scans every node or statement per
/// loop (O(nodes × loops)) makes it tens of times slower at this size and
/// the timeout fails the test. The memory gate is the process's peak RSS
/// against the bytes-per-statement bound of DESIGN.md §4a; a second
/// whole-program ECFG + FCDG exceeds it. Sanitizer builds skip it
/// (PTRAN_SCALING_CHECK_RSS=0): shadow memory is not the pipeline's.
///
//===----------------------------------------------------------------------===//

#include "cost/Estimator.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cmath>

using namespace ptran;

namespace {

constexpr unsigned Units = 2048;
constexpr unsigned Depth = 10;
/// Peak-RSS bound of the cold pipeline per IR statement (DESIGN.md §4a).
constexpr double MaxPeakBytesPerStatement = 2700.0;

TEST(Scaling, ColdPipelineOnOneLargeProcedure) {
  std::unique_ptr<Program> Prog = makeScalingProgram(Units, Depth);
  DiagnosticEngine Diags;
  EstimatorOptions Opts(Diags);
  Opts.loopVariance(LoopVarianceMode::Profiled).jobs(1);
  auto Est = Estimator::create(*Prog, CostModel::optimizing(), Opts);
  ASSERT_NE(Est, nullptr) << Diags.str();
  const Function &Main = *Prog->findFunction("main");
  EXPECT_EQ(Est->analysis().of(Main).intervals().headers().size(),
            Units * Depth);

  RunResult Run = Est->profiledRun();
  ASSERT_TRUE(Run.Ok) << Run.Error;
  TimeAnalysis TA = Est->analyze();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_NEAR(TA.programTime(), Run.Cycles, 1e-9 * Run.Cycles);
  EXPECT_TRUE(std::isfinite(TA.programStdDev()));

#if PTRAN_SCALING_CHECK_RSS
  struct rusage Usage;
  ASSERT_EQ(getrusage(RUSAGE_SELF, &Usage), 0);
  double PeakBytes = 1024.0 * static_cast<double>(Usage.ru_maxrss);
  double Statements = 0;
  for (const auto &F : Prog->functions())
    Statements += F->numStmts();
  EXPECT_LE(PeakBytes, MaxPeakBytesPerStatement * Statements)
      << "peak RSS " << PeakBytes / Statements << " bytes per statement ("
      << Statements << " statements)";
#endif
}

} // namespace
