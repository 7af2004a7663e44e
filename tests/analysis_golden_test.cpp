//===--- tests/analysis_golden_test.cpp - Pinned analysis output at size --===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the analysis output of one procedure large enough to exercise
/// every loop-nesting path: makeScalingProgram(256, 3), with 768 loops
/// three deep. Three texts are compared byte for byte with goldens under
/// tests/golden/analysis/:
///
///   - the FCDG's dot() rendering (node order, edges and their order);
///   - the smart counter plan's FunctionPlan::str() (counter names, sites
///     and every condition's resolution);
///   - TIME(START) / STD_DEV(START) after one profiled run with profiled
///     loop variance, printed as ptran-estimate does and as hex floats.
///
/// Every loop of that program has one exit, so a second golden pins the
/// FCDG and plan of four random programs whose loops have premature
/// exits, GOTO loops and calls: there the order of an ITERATE node's
/// pseudo edges shows in the FCDG.
///
/// The goldens were produced by the earlier O(nodes × loops) interval,
/// FCDG and counter-naming passes, so any drift in the linear-time
/// versions shows up here. A mismatching text is written to
/// `<name>.actual` in the working directory for inspection.
///
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "cost/Estimator.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

using namespace ptran;

namespace {

std::string readGolden(const std::string &Name) {
  std::ifstream In(std::string(PTRAN_ANALYSIS_GOLDEN_DIR) + "/" + Name,
                   std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

void expectMatchesGolden(const std::string &Name, const std::string &Actual) {
  std::string Golden = readGolden(Name);
  bool Same = Golden == Actual;
  if (!Same) {
    std::ofstream Out(Name + ".actual", std::ios::binary);
    Out << Actual;
  }
  EXPECT_TRUE(Same) << Name << ": output differs from the golden ("
                    << Actual.size() << " vs " << Golden.size()
                    << " bytes); wrote " << Name << ".actual";
}

std::string hexFloat(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

TEST(AnalysisGolden, Scaling256x3) {
  std::unique_ptr<Program> Prog = makeScalingProgram(256, 3);
  DiagnosticEngine Diags;
  EstimatorOptions Opts(Diags);
  Opts.loopVariance(LoopVarianceMode::Profiled).jobs(1);
  auto Est = Estimator::create(*Prog, CostModel::optimizing(), Opts);
  ASSERT_NE(Est, nullptr) << Diags.str();
  const Function &Main = *Prog->findFunction("main");
  const FunctionAnalysis &FA = Est->analysis().of(Main);

  expectMatchesGolden("scaling256x3.fcdg.dot",
                      FA.cd().dot(FA.ecfg().cfg(), "main"));
  expectMatchesGolden("scaling256x3.plan.txt", Est->plan().of(Main).str(FA));

  RunResult Run = Est->profiledRun();
  ASSERT_TRUE(Run.Ok) << Run.Error;
  TimeAnalysis TA = Est->analyze();
  std::string Estimate =
      "TIME(START)    = " + formatDouble(TA.programTime(), 8) + " cycles\n" +
      "STD_DEV(START) = " + formatDouble(TA.programStdDev(), 6) +
      " cycles\n" + "TIME(START)    = " + hexFloat(TA.programTime()) + "\n" +
      "STD_DEV(START) = " + hexFloat(TA.programStdDev()) + "\n";
  expectMatchesGolden("scaling256x3.estimate.txt", Estimate);
}

TEST(AnalysisGolden, RandomPrograms) {
  std::string Text;
  for (uint64_t Seed = 200; Seed < 204; ++Seed) {
    std::unique_ptr<Program> Prog = ptran::testing::makeRandomProgram(
        Seed, ptran::testing::RandomProgramConfig());
    DiagnosticEngine Diags;
    auto Est = Estimator::create(*Prog, CostModel::optimizing(),
                                 EstimatorOptions(Diags).jobs(1));
    ASSERT_NE(Est, nullptr) << Diags.str();
    for (const auto &F : Prog->functions()) {
      const FunctionAnalysis &FA = Est->analysis().of(*F);
      Text += FA.cd().dot(FA.ecfg().cfg(),
                          "seed " + std::to_string(Seed) + " " + F->name());
      Text += Est->plan().of(*F).str(FA);
    }
  }
  expectMatchesGolden("random200-203.txt", Text);
}

} // namespace
