//===--- perfbench/harness/Cold.cpp - Cold-pipeline replays ---------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-process replays of what one cold `ptran-estimate FILE` does with its
/// default flags (parse, both analyses at the default job count, counter
/// plan, one profiled run, TOTAL_FREQ recovery, FREQ, TIME/VAR, report),
/// with a span around each call, plus a serial pass-by-pass decomposition
/// of the analysis (CFG, intervals, ECFG, FCDG).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "cost/Report.h"
#include "cost/TimeAnalysis.h"
#include "interp/Interpreter.h"
#include "parser/Parser.h"
#include "profile/CounterPlan.h"
#include "profile/ProfileRuntime.h"
#include "support/StringUtils.h"

#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>

using namespace perfbench;
using namespace ptran;

namespace {

/// Sizes of one program after each pass (they repeat exactly per seed).
struct Sizes {
  uint64_t Functions = 0, Statements = 0, EcfgNodes = 0, CdgEdges = 0,
           Counters = 0, Steps = 0;
};

struct ReplayResult {
  bool Ok = false;
  std::string Error;
  double Time = 0, StdDev = 0, Cycles = 0;
  std::string TimeText, StdDevText;
  Sizes Size;
  uint64_t TotalNs = 0;
};

/// One cold replay. Mirrors tools/ptran-estimate's classic path at its
/// default flags: the optimizing cost model, smart counter placement,
/// profiled loop variance, --jobs=0 (hardware concurrency), one run.
ReplayResult replayCold(const std::string &Src, Tracer &T) {
  ReplayResult R;
  DiagnosticEngine Diags;
  CostModel CM = CostModel::optimizing();
  std::unique_ptr<Program> P;
  std::unique_ptr<ProgramAnalysis> PA, RawPA;
  ProgramPlan Plan;
  std::unique_ptr<ProfileRuntime> Runtime;
  std::unique_ptr<LoopFrequencyStats> Stats;
  std::map<const Function *, FrequencyTotals> Totals;
  std::map<const Function *, Frequencies> Freqs;
  std::optional<TimeAnalysis> TA;
  std::string Report;
  RunResult Run;

  uint64_t Start = nowNs();
  int Root = T.begin("replay");
  {
    Scoped S(T, "parser.parse");
    P = parseProgram(Src, Diags);
  }
  if (!P) {
    T.end(Root);
    R.Error = "parse failed: " + Diags.str();
    return R;
  }
  {
    Scoped S(T, "core.analysis");
    AnalysisOptions Opts;
    Opts.Exec.Jobs = 0;
    PA = ProgramAnalysis::compute(*P, Diags, Opts);
    Opts.ElideGotos = false;
    RawPA = ProgramAnalysis::compute(*P, Diags, Opts);
  }
  if (!PA->allOk() || !RawPA->allOk()) {
    T.end(Root);
    R.Error = "analysis failed (irreducible?): " + Diags.str();
    return R;
  }
  {
    Scoped S(T, "profile.plan");
    Plan = ProgramPlan::build(*PA, ProfileMode::Smart);
    Runtime = std::make_unique<ProfileRuntime>(*PA, Plan, CM);
    Stats = std::make_unique<LoopFrequencyStats>(*RawPA);
  }
  {
    Scoped S(T, "interp.run");
    Interpreter Interp(*P, CM);
    Interp.addObserver(Runtime.get());
    Interp.addObserver(Stats.get());
    Run = Interp.run();
  }
  if (!Run.Ok) {
    T.end(Root);
    R.Error = "profiled run failed: " + Run.Error;
    return R;
  }
  {
    Scoped S(T, "profile.recover");
    for (const auto &F : P->functions())
      Totals[F.get()] = Runtime->recover(*F);
  }
  {
    Scoped S(T, "freq.compute");
    for (const auto &F : P->functions())
      Freqs[F.get()] = computeFrequencies(PA->of(*F), Totals[F.get()]);
  }
  {
    Scoped S(T, "cost.timevar");
    TimeAnalysisOptions TAOpts;
    TAOpts.LoopVariance = LoopVarianceMode::Profiled;
    TAOpts.Stats = Stats.get();
    TAOpts.Exec.Jobs = 0;
    TAOpts.Diags = &Diags;
    TA = TimeAnalysis::run(*PA, Freqs, CM, TAOpts);
  }
  {
    Scoped S(T, "cost.report");
    Report = formatProcedureReport(buildProcedureReport(*PA, Freqs, *TA));
    R.TimeText = formatDouble(TA->programTime(), 8);
    R.StdDevText = formatDouble(TA->programStdDev(), 6);
  }
  T.end(Root);
  R.TotalNs = nowNs() - Start;

  R.Ok = !Report.empty();
  R.Time = TA->programTime();
  R.StdDev = TA->programStdDev();
  R.Cycles = Run.Cycles;
  R.Size.Functions = P->functions().size();
  for (const auto &F : P->functions()) {
    R.Size.Statements += F->numStmts();
    R.Size.EcfgNodes += PA->of(*F).ecfg().cfg().numNodes();
    R.Size.CdgEdges += PA->of(*F).cd().fcdg().numEdges();
  }
  R.Size.Counters = Plan.totalCounters();
  R.Size.Steps = Run.StatementsExecuted;
  return R;
}

/// The four analysis passes of one function, kept alive together (the
/// FCDG refers to the ECFG and the intervals).
struct PassParts {
  Cfg C;
  std::optional<IntervalStructure> IS;
  Ecfg E;
  std::unique_ptr<ControlDependence> CD;
};

/// Serial pass-by-pass decomposition of both analyses Estimator::create
/// makes (goto-elided and goto-preserving). \returns false when a
/// function is irreducible.
bool replayPasses(const Program &P, Tracer &T) {
  DiagnosticEngine Diags;
  std::vector<std::unique_ptr<PassParts>> Keep;
  Scoped Root(T, "analysis.passes");
  for (bool Elide : {true, false}) {
    for (const auto &F : P.functions()) {
      auto Parts = std::make_unique<PassParts>();
      {
        Scoped S(T, "cfg.build");
        Parts->C = buildCfg(*F);
        if (Elide)
          elideGotoNodes(Parts->C);
      }
      {
        Scoped S(T, "interval.compute");
        Parts->IS = IntervalStructure::compute(Parts->C, Diags);
      }
      if (!Parts->IS)
        return false;
      {
        Scoped S(T, "ecfg.build");
        Parts->E = buildEcfg(Parts->C, *Parts->IS);
      }
      {
        Scoped S(T, "cdg.fcdg");
        Parts->CD = std::make_unique<ControlDependence>(Parts->E, *Parts->IS);
      }
      Keep.push_back(std::move(Parts));
    }
  }
  return true;
}

double msOf(uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }

/// TIME(START) x runs must equal the interpreter's cycle total: the
/// estimate is exact on the profiled input (one run here).
bool cyclesAgree(double Time, double Cycles) {
  return std::fabs(Time - Cycles) <= 1e-9 * std::max(1.0, std::fabs(Cycles));
}

void putSizes(JsonOut &J, const Sizes &S) {
  J.num("functions", S.Functions);
  J.num("ir.statements", S.Statements);
  J.num("ecfg.nodes", S.EcfgNodes);
  J.num("cdg.edges", S.CdgEdges);
  J.num("profile.counters", S.Counters);
  J.num("interp.steps", S.Steps);
}

} // namespace

int perfbench::cmdGen(const Args &A) {
  std::string Kind = A.get("kind");
  uint64_t Seed = A.num("seed", 1);
  unsigned Size = static_cast<unsigned>(A.num("size", 0));
  std::string Src;
  if (Kind == "bigfn")
    Src = genBigFunction(Seed, Size);
  else if (Kind == "manyfn")
    Src = genManyFunctions(Seed, Size);
  else
    return fail("gen: unknown --kind '" + Kind + "' (bigfn|manyfn)");
  std::ofstream Out(A.get("out"), std::ios::binary);
  Out << Src;
  if (!Out.flush())
    return fail("gen: cannot write " + A.get("out"));

  // Check before any timing: parses, reducible, profiled run finishes.
  Tracer Off(false);
  ReplayResult R = replayCold(Src, Off);
  if (!R.Ok)
    return fail("gen: generated program is unusable: " + R.Error);
  JsonOut J;
  putSizes(J, R.Size);
  J.str("time_text", R.TimeText);
  J.str("stddev_text", R.StdDevText);
  J.num("cycles", R.Cycles);
  J.boolean("cycles_agree", cyclesAgree(R.Time, R.Cycles));
  std::printf("%s\n", J.text().c_str());
  return 0;
}

int perfbench::cmdColdTrace(const Args &A) {
  // --src takes a comma-separated list: the daemon workloads trace every
  // session program and report the sums.
  std::vector<std::string> Srcs;
  std::vector<std::unique_ptr<Program>> Progs;
  {
    std::istringstream In(A.get("src"));
    std::string Path;
    while (std::getline(In, Path, ',')) {
      std::string Src;
      if (!readFile(Path, Src))
        return fail("cold-trace: cannot read " + Path);
      DiagnosticEngine Diags;
      Progs.push_back(parseProgram(Src, Diags));
      if (!Progs.back())
        return fail("cold-trace: parse failed: " + Diags.str());
      Srcs.push_back(std::move(Src));
    }
  }
  if (Srcs.empty())
    return fail("cold-trace: no --src given");
  double Seconds = A.real("seconds", 5);

  std::map<std::string, std::vector<double>> LayerMs;
  std::vector<double> TracedMs, UntracedMs, SerialMs, PassSumMs, OverheadPct,
      UnattributedPct;
  const char *const ReplayLayers[] = {
      "parser.parse", "core.analysis",   "profile.plan", "interp.run",
      "profile.recover", "freq.compute", "cost.timevar", "cost.report"};
  std::string SpansPath = A.get("spans");
  std::unique_ptr<std::FILE, int (*)(std::FILE *)> SpansOut(
      SpansPath.empty() ? nullptr : std::fopen(SpansPath.c_str(), "w"),
      &std::fclose);
  Sizes Total;
  std::string TimeText, StdDevText;
  bool Agree = true;
  // One untimed replay first, so the allocator and page cache are warm
  // for both sides of the comparison.
  {
    Tracer Off(false);
    for (const std::string &Src : Srcs)
      replayCold(Src, Off);
  }
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  // An even number of iterations: each replay runs first equally often.
  for (unsigned Iter = 0; Iter < 4 || Iter % 2 || nowNs() < Deadline;
       ++Iter) {
    std::map<std::string, double> IterMs;
    double TracedSum = 0, UntracedSum = 0, PassSum = 0, SerialSum = 0;
    Total = Sizes();
    for (size_t I = 0; I < Srcs.size(); ++I) {
      // Alternate which replay runs first so warm-cache effects cancel.
      Tracer On(true), Off(false);
      ReplayResult Traced, Untraced;
      if (Iter % 2 == 0) {
        Traced = replayCold(Srcs[I], On);
        Untraced = replayCold(Srcs[I], Off);
      } else {
        Untraced = replayCold(Srcs[I], Off);
        Traced = replayCold(Srcs[I], On);
      }
      if (!Traced.Ok || !Untraced.Ok)
        return fail("cold-trace: replay failed: " + Traced.Error +
                    Untraced.Error);
      Agree = Agree && Traced.TimeText == Untraced.TimeText &&
              Traced.StdDevText == Untraced.StdDevText &&
              cyclesAgree(Traced.Time, Traced.Cycles);
      TracedSum += msOf(Traced.TotalNs);
      UntracedSum += msOf(Untraced.TotalNs);
      for (const auto &[Name, Ns] : On.selfNs())
        IterMs[Name] += Ns / 1e6;

      Tracer Passes(true);
      if (!replayPasses(*Progs[I], Passes))
        return fail("cold-trace: irreducible function in pass replay");
      for (const auto &[Name, Ns] : Passes.selfNs()) {
        IterMs[Name] += Ns / 1e6;
        if (Name != "analysis.passes")
          PassSum += Ns / 1e6;
      }

      DiagnosticEngine Diags;
      AnalysisOptions Opts;
      Opts.Exec.Jobs = 1;
      uint64_t T0 = nowNs();
      auto PA = ProgramAnalysis::compute(*Progs[I], Diags, Opts);
      Opts.ElideGotos = false;
      auto RawPA = ProgramAnalysis::compute(*Progs[I], Diags, Opts);
      SerialSum += msOf(nowNs() - T0);

      if (SpansOut && Iter == 0) {
        On.writeJsonLines(SpansOut.get(), "cold");
        Passes.writeJsonLines(SpansOut.get(), "cold-passes");
      }
      const Sizes &S = Untraced.Size;
      Total.Functions += S.Functions;
      Total.Statements += S.Statements;
      Total.EcfgNodes += S.EcfgNodes;
      Total.CdgEdges += S.CdgEdges;
      Total.Counters += S.Counters;
      Total.Steps += S.Steps;
      TimeText = Untraced.TimeText;
      StdDevText = Untraced.StdDevText;
    }
    double IterAttributed = 0;
    for (const char *Name : ReplayLayers)
      IterAttributed += IterMs[Name];
    OverheadPct.push_back(100.0 * (TracedSum - UntracedSum) / UntracedSum);
    UnattributedPct.push_back(100.0 * (UntracedSum - IterAttributed) /
                              UntracedSum);
    TracedMs.push_back(TracedSum);
    UntracedMs.push_back(UntracedSum);
    PassSumMs.push_back(PassSum);
    SerialMs.push_back(SerialSum);
    for (const auto &[Name, Ms] : IterMs)
      LayerMs[Name].push_back(Ms);
  }
  SpansOut.reset();

  auto Med = [&](const char *Name) { return median(LayerMs[Name]); };
  JsonOut J;
  for (const char *Name : ReplayLayers)
    J.num(std::string(Name) + "_ms", Med(Name));
  for (const char *Name :
       {"cfg.build", "interval.compute", "ecfg.build", "cdg.fcdg"})
    J.num(std::string(Name) + "_ms", Med(Name));
  double Serial = median(SerialMs), Default = Med("core.analysis");
  J.num("core.analysis_serial_ms", Serial);
  J.num("core.fanout_speedup", Default > 0 ? Serial / Default : 0);
  J.num("analysis.passes_sum_ms", median(PassSumMs));
  double Untraced = median(UntracedMs), Traced = median(TracedMs);
  J.num("replay_ms", Untraced);
  J.num("replay_traced_ms", Traced);
  J.num("trace.overhead_pct", median(OverheadPct));
  J.num("trace.unattributed_pct", median(UnattributedPct));
  J.num("iterations", static_cast<double>(TracedMs.size()));
  putSizes(J, Total);
  J.str("time_text", TimeText);
  J.str("stddev_text", StdDevText);
  J.boolean("replays_agree", Agree);
  std::printf("%s\n", J.text().c_str());
  return 0;
}
