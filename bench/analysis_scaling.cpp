//===--- bench/analysis_scaling.cpp - Ablation A2: pass throughput --------===//
//
// The paper claims the whole estimation runs in "a single, linear time,
// bottom-up traversal of the forward control dependence graph". This
// binary measures how every pass scales with CFG size on generated loop
// nests: CFG build, interval analysis, ECFG, control dependence, counter
// planning and the TIME/VAR computation itself — plus, on the
// many-function synthetic workload, how the parallel drivers scale with
// the worker count (1/2/4/8 jobs) while producing byte-identical
// estimates.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "cost/TimeAnalysis.h"
#include "support/FatalError.h"
#include "freq/Frequencies.h"
#include "profile/CounterPlan.h"
#include "support/TablePrinter.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>

using namespace ptran;

namespace {

struct Prepared {
  std::unique_ptr<Program> Prog;
  std::unique_ptr<ProgramAnalysis> PA;
  unsigned Nodes = 0;
};

Prepared prepare(unsigned Units) {
  Prepared P;
  P.Prog = makeScalingProgram(Units, /*Depth=*/2);
  DiagnosticEngine Diags;
  P.PA = ProgramAnalysis::compute(*P.Prog, Diags);
  if (!P.PA)
    reportFatalError("analysis failed for scaling program");
  for (const auto &F : P.Prog->functions())
    P.Nodes += P.PA->of(*F).ecfg().cfg().numNodes();
  return P;
}

void benchFullPipeline(benchmark::State &State) {
  unsigned Units = static_cast<unsigned>(State.range(0));
  std::unique_ptr<Program> Prog = makeScalingProgram(Units, 2);
  for (auto _ : State) {
    DiagnosticEngine Diags;
    auto PA = ProgramAnalysis::compute(*Prog, Diags);
    benchmark::DoNotOptimize(PA.get());
  }
  Prepared P = prepare(Units);
  State.counters["ecfg_nodes"] = P.Nodes;
  State.SetComplexityN(P.Nodes);
}
BENCHMARK(benchFullPipeline)->RangeMultiplier(4)->Range(4, 1024)->Complexity();

void benchTimeAnalysisOnly(benchmark::State &State) {
  unsigned Units = static_cast<unsigned>(State.range(0));
  Prepared P = prepare(Units);

  // Synthetic frequencies: every condition taken with probability 0.5,
  // loop frequencies 3 (trip 2 + 1); enough to drive the traversal.
  std::map<const Function *, Frequencies> Freqs;
  for (const auto &F : P.Prog->functions()) {
    const FunctionAnalysis &FA = P.PA->of(*F);
    FrequencyTotals Totals;
    Totals.Ok = true;
    for (const ControlCondition &C : FA.cd().conditions()) {
      double V = 1.0;
      if (C.Label == CfgLabel::Z)
        V = 0.0;
      else if (FA.ecfg().headerOf(C.Node) != InvalidNode)
        V = 3.0;
      Totals.Cond[C] = V;
    }
    Totals.Cond[{FA.ecfg().start(), CfgLabel::U}] = 1.0;
    Totals.Node = nodeTotalsFromConds(FA, Totals.Cond);
    Freqs[F.get()] = computeFrequencies(FA, Totals);
  }

  CostModel CM = CostModel::optimizing();
  for (auto _ : State) {
    TimeAnalysis TA = TimeAnalysis::run(*P.PA, Freqs, CM);
    benchmark::DoNotOptimize(TA.programTime());
  }
  State.counters["ecfg_nodes"] = P.Nodes;
  State.SetComplexityN(P.Nodes);
}
BENCHMARK(benchTimeAnalysisOnly)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Complexity();

void benchPlanAndSymbolicRecovery(benchmark::State &State) {
  unsigned Units = static_cast<unsigned>(State.range(0));
  Prepared P = prepare(Units);
  for (auto _ : State) {
    ProgramPlan Plan = ProgramPlan::build(*P.PA, ProfileMode::Smart);
    benchmark::DoNotOptimize(Plan.totalCounters());
  }
  State.counters["ecfg_nodes"] = P.Nodes;
}
BENCHMARK(benchPlanAndSymbolicRecovery)->RangeMultiplier(4)->Range(4, 256);

// Synthetic frequencies for a prepared program: every condition taken with
// probability 0.5, loop frequencies 3; enough to drive the traversal.
std::map<const Function *, Frequencies>
syntheticFrequencies(const Program &Prog, const ProgramAnalysis &PA) {
  std::map<const Function *, Frequencies> Freqs;
  for (const auto &F : Prog.functions()) {
    const FunctionAnalysis &FA = PA.of(*F);
    FrequencyTotals Totals;
    Totals.Ok = true;
    for (const ControlCondition &C : FA.cd().conditions()) {
      double V = 1.0;
      if (C.Label == CfgLabel::Z)
        V = 0.0;
      else if (FA.ecfg().headerOf(C.Node) != InvalidNode)
        V = 3.0;
      Totals.Cond[C] = V;
    }
    Totals.Cond[{FA.ecfg().start(), CfgLabel::U}] = 1.0;
    Totals.Node = nodeTotalsFromConds(FA, Totals.Cond);
    Freqs[F.get()] = computeFrequencies(FA, Totals);
  }
  return Freqs;
}

// Fan the per-function pipeline out across State.range(1) workers on a
// many-function program of State.range(0) procedures.
void benchParallelPipeline(benchmark::State &State) {
  unsigned Funcs = static_cast<unsigned>(State.range(0));
  unsigned Jobs = static_cast<unsigned>(State.range(1));
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(Funcs, 3);
  AnalysisOptions Opts;
  Opts.Exec.Jobs = Jobs;
  for (auto _ : State) {
    DiagnosticEngine Diags;
    auto PA = ProgramAnalysis::compute(*Prog, Diags, Opts);
    benchmark::DoNotOptimize(PA.get());
  }
  State.counters["jobs"] = Jobs;
}
BENCHMARK(benchParallelPipeline)
    ->ArgsProduct({{256}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// SCC-wave interprocedural pass across State.range(1) workers.
void benchParallelTimeAnalysis(benchmark::State &State) {
  unsigned Funcs = static_cast<unsigned>(State.range(0));
  unsigned Jobs = static_cast<unsigned>(State.range(1));
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(Funcs, 3);
  DiagnosticEngine Diags;
  auto PA = ProgramAnalysis::compute(*Prog, Diags);
  if (!PA || !PA->allOk())
    reportFatalError("analysis failed for many-function program");
  std::map<const Function *, Frequencies> Freqs =
      syntheticFrequencies(*Prog, *PA);
  CostModel CM = CostModel::optimizing();
  TimeAnalysisOptions Opts;
  Opts.Exec.Jobs = Jobs;
  for (auto _ : State) {
    TimeAnalysis TA = TimeAnalysis::run(*PA, Freqs, CM, Opts);
    benchmark::DoNotOptimize(TA.programTime());
  }
  State.counters["jobs"] = Jobs;
}
BENCHMARK(benchParallelTimeAnalysis)
    ->ArgsProduct({{256}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Wall-clock speedup table for the full parallel pipeline (analysis +
// TIME/VAR) on the many-function workload, with a bit-for-bit equality
// check of every function's TIME/VAR against the serial run.
void printParallelSpeedupTable() {
  constexpr unsigned Funcs = 255;
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(Funcs, 3);
  CostModel CM = CostModel::optimizing();

  auto RunOnce = [&](unsigned Jobs) {
    DiagnosticEngine Diags;
    AnalysisOptions AOpts;
    AOpts.Exec.Jobs = Jobs;
    auto Start = std::chrono::steady_clock::now();
    auto PA = ProgramAnalysis::compute(*Prog, Diags, AOpts);
    if (!PA || !PA->allOk())
      reportFatalError("analysis failed for many-function program");
    std::map<const Function *, Frequencies> Freqs =
        syntheticFrequencies(*Prog, *PA);
    TimeAnalysisOptions TAOpts;
    TAOpts.Exec.Jobs = Jobs;
    TimeAnalysis TA = TimeAnalysis::run(*PA, Freqs, CM, TAOpts);
    auto End = std::chrono::steady_clock::now();
    std::vector<double> Estimates;
    for (const auto &F : Prog->functions()) {
      Estimates.push_back(TA.functionTime(*F));
      Estimates.push_back(TA.functionVariance(*F));
    }
    return std::pair(std::chrono::duration<double>(End - Start).count(),
                     std::move(Estimates));
  };

  // Warm up allocators etc., then take the best of 3 per job count.
  RunOnce(1);
  std::printf("=== Parallel pipeline speedup (%u functions, depth 3) ===\n",
              Funcs);
  TablePrinter T({"jobs", "wall [ms]", "speedup vs 1", "output"});
  std::vector<double> Reference;
  double Serial = 0.0;
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    double Best = 1e100;
    std::vector<double> Estimates;
    for (int Rep = 0; Rep < 3; ++Rep) {
      auto [Secs, Est] = RunOnce(Jobs);
      Best = std::min(Best, Secs);
      Estimates = std::move(Est);
    }
    if (Jobs == 1) {
      Serial = Best;
      Reference = Estimates;
    }
    bool Identical =
        Estimates.size() == Reference.size() &&
        std::memcmp(Estimates.data(), Reference.data(),
                    Estimates.size() * sizeof(double)) == 0;
    char Wall[32], Speedup[32];
    std::snprintf(Wall, sizeof(Wall), "%.2f", Best * 1e3);
    std::snprintf(Speedup, sizeof(Speedup), "%.2fx", Serial / Best);
    T.addRow({std::to_string(Jobs), Wall, Speedup,
              Identical ? "identical" : "DIFFERS"});
  }
  std::printf("%s\n", T.str().c_str());
}

// Cancellation-poll cost: the same analysis + TIME/VAR pipeline with no
// token (the default, every checkpoint compiled out behind a null check)
// and with an armed far-future deadline token, so every checkpoint does
// its relaxed load plus the occasional clock read. The with-token column
// must stay within noise (<2%) of the without-token one.
void printCancellationOverheadTable() {
  constexpr unsigned Funcs = 255;
  std::unique_ptr<Program> Prog = makeManyFunctionProgram(Funcs, 3);
  CostModel CM = CostModel::optimizing();

  auto RunOnce = [&](CancelToken *Token) {
    DiagnosticEngine Diags;
    AnalysisOptions AOpts;
    AOpts.Cancel = Token;
    auto Start = std::chrono::steady_clock::now();
    auto PA = ProgramAnalysis::compute(*Prog, Diags, AOpts);
    if (!PA || !PA->allOk())
      reportFatalError("analysis failed for many-function program");
    std::map<const Function *, Frequencies> Freqs =
        syntheticFrequencies(*Prog, *PA);
    TimeAnalysisOptions TAOpts;
    TAOpts.Cancel = Token;
    TimeAnalysis TA = TimeAnalysis::run(*PA, Freqs, CM, TAOpts);
    auto End = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(TA.programTime());
    return std::chrono::duration<double>(End - Start).count();
  };

  RunOnce(nullptr); // Warm up.
  double BestOff = 1e100, BestOn = 1e100;
  uint64_t Polls = 0;
  for (int Rep = 0; Rep < 5; ++Rep) {
    BestOff = std::min(BestOff, RunOnce(nullptr));
    CancelToken Token;
    Token.setDeadlineIn(std::chrono::hours(24));
    BestOn = std::min(BestOn, RunOnce(&Token));
    Polls = Token.polls();
  }

  std::printf("=== Cancellation-poll overhead (%u functions, serial) ===\n",
              Funcs);
  TablePrinter T({"token", "wall [ms]", "vs none", "polls"});
  char Wall[32], Ratio[32];
  std::snprintf(Wall, sizeof(Wall), "%.2f", BestOff * 1e3);
  T.addRow({"none", Wall, "1.00x", "0"});
  std::snprintf(Wall, sizeof(Wall), "%.2f", BestOn * 1e3);
  std::snprintf(Ratio, sizeof(Ratio), "%.2fx", BestOn / BestOff);
  T.addRow({"armed deadline", Wall, Ratio,
            std::to_string(static_cast<unsigned long long>(Polls))});
  std::printf("%s\n", T.str().c_str());
}

void printStaticScalingTable() {
  std::printf("=== Ablation A2: representation sizes vs program size ===\n");
  TablePrinter T({"units", "stmts", "ecfg nodes", "fcdg edges",
                  "conditions", "smart counters"});
  for (unsigned Units : {4u, 16u, 64u, 256u}) {
    Prepared P = prepare(Units);
    const Function *Main = P.Prog->entry();
    const FunctionAnalysis &FA = P.PA->of(*Main);
    ProgramPlan Plan = ProgramPlan::build(*P.PA, ProfileMode::Smart);
    T.addRow({std::to_string(Units), std::to_string(Main->numStmts()),
              std::to_string(FA.ecfg().cfg().numNodes()),
              std::to_string(FA.cd().fcdg().numEdges()),
              std::to_string(FA.cd().conditions().size()),
              std::to_string(Plan.totalCounters())});
  }
  std::printf("%s\n", T.str().c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  printStaticScalingTable();
  printParallelSpeedupTable();
  printCancellationOverheadTable();
  benchmark::Initialize(&Argc, Argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
