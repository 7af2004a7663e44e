//===--- tests/TestPrograms.cpp - Shared test fixtures --------------------===//

#include "TestPrograms.h"

#include "support/Casting.h"
#include "support/FatalError.h"
#include "support/StringUtils.h"

#include <csignal>
#include <string>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace ptran;
using namespace ptran::testing;

Figure1Program ptran::testing::makeFigure1() {
  Figure1Program Fix;
  Fix.Prog = std::make_unique<Program>();
  DiagnosticEngine Diags;

  {
    FunctionBuilder B(*Fix.Prog, "main", Diags);
    VarId M = B.intVar("m");
    VarId N = B.intVar("n");
    B.assign(M, B.lit(1));
    B.assign(N, B.lit(8));
    Fix.A = B.label(10).ifGoto(B.ge(B.var(M), B.lit(0)), 30);
    Fix.C = B.ifGoto(B.ge(B.var(N), B.lit(0)), 20);
    B.gotoLabel(40);
    Fix.B = B.label(30).ifGoto(B.lt(B.var(N), B.lit(0)), 20);
    Fix.D = B.label(40).callSub("foo", {B.var(M), B.var(N)});
    B.gotoLabel(10);
    Fix.E = B.label(20).cont();
    if (!B.finish())
      reportFatalError("figure 1 main failed to build:\n" + Diags.str());
  }
  {
    FunctionBuilder B(*Fix.Prog, "foo", Diags);
    VarId M = B.intParam("m");
    VarId N = B.intParam("n");
    (void)M;
    B.assign(N, B.sub(B.var(N), B.lit(1)));
    if (!B.finish())
      reportFatalError("figure 1 foo failed to build:\n" + Diags.str());
  }

  Fix.Main = Fix.Prog->findFunction("main");
  Fix.Foo = Fix.Prog->findFunction("foo");
  return Fix;
}

TimeAnalysisOptions ptran::testing::figure3CostOptions() {
  TimeAnalysisOptions Opts;
  Opts.LocalCostOverride =
      [](const Function &F, const Stmt *S) -> std::optional<double> {
    if (equalsLower(F.name(), "foo"))
      return S->kind() == StmtKind::Assign ? 100.0 : 0.0;
    if (S->kind() == StmtKind::IfGoto)
      return 1.0;
    return 0.0;
  };
  return Opts;
}

namespace {

/// Emits statements that advance the in-program pseudo-random state and
/// leave a fresh value in `rnd` (0 .. 9999).
class ProgramRng {
public:
  ProgramRng(FunctionBuilder &B, VarId Seed, VarId Rnd)
      : B(B), Seed(Seed), Rnd(Rnd) {}

  /// seed = mod(seed * 1103 + 7919, 100003); rnd = mod(seed, 10000)
  void advance() {
    B.assign(Seed, B.intrinsic(Intrinsic::Mod,
                               {B.add(B.mul(B.var(Seed), B.lit(1103)),
                                      B.lit(7919)),
                                B.lit(100003)}));
    B.assign(Rnd, B.intrinsic(Intrinsic::Mod, {B.var(Seed), B.lit(10000)}));
  }

  /// A condition that is true with roughly probability \p Percent / 100.
  Expr *chance(int Percent) {
    return B.lt(B.var(Rnd), B.lit(Percent * 100));
  }

private:
  FunctionBuilder &B;
  VarId Seed;
  VarId Rnd;
};

/// Recursive generator of one procedure body.
class BodyGenerator {
public:
  BodyGenerator(FunctionBuilder &B, Rng &Gen, const RandomProgramConfig &Cfg,
                VarId Seed, VarId Rnd, VarId Acc, VarId Work,
                unsigned NumCallees)
      : B(B), Gen(Gen), Cfg(Cfg), PRng(B, Seed, Rnd), Rnd(Rnd), Acc(Acc),
        Work(Work), NumCallees(NumCallees) {}

  void genRegion(unsigned Depth) {
    unsigned Regions =
        static_cast<unsigned>(Gen.uniformInt(1, Cfg.MaxRegionsPerLevel));
    for (unsigned I = 0; I < Regions; ++I)
      genOne(Depth);
  }

  int freshLabel() { return NextLabel++; }

private:
  void genStraightLine() {
    B.assign(Acc, B.add(B.var(Acc), B.lit(Gen.uniformInt(1, 9))));
  }

  void genIf(unsigned Depth) {
    int Else = freshLabel();
    int End = freshLabel();
    bool HasElse = Gen.bernoulli(0.5);
    PRng.advance();
    // IF (chance) fails -> skip the then-part.
    B.ifGoto(B.logicalNot(PRng.chance(static_cast<int>(
                 Gen.uniformInt(20, 80)))),
             Else);
    genRegion(Depth + 1);
    if (HasElse) {
      B.gotoLabel(End);
      B.label(Else).cont();
      genRegion(Depth + 1);
      B.label(End).cont();
    } else {
      B.label(Else).cont();
    }
  }

  void genDoLoop(unsigned Depth) {
    std::string Name = "i" + std::to_string(NextVar++);
    VarId I = B.intVar(Name);
    bool ConstTrip = Gen.bernoulli(0.5);
    Expr *Hi = ConstTrip
                   ? B.lit(Gen.uniformInt(0, 5))
                   : B.add(B.intrinsic(Intrinsic::Mod,
                                       {B.var(Rnd), B.lit(4)}),
                           B.lit(1));
    if (!ConstTrip)
      PRng.advance();
    // Note: when the trip is random, advance() must come first so Hi reads
    // a fresh value; re-emit in the right order.
    B.doLoop(I, B.lit(1), Hi);
    bool Exit = Cfg.WithLoopExits && Gen.bernoulli(0.4);
    int After = freshLabel();
    if (Exit) {
      PRng.advance();
      B.ifGoto(PRng.chance(15), After);
    }
    genRegion(Depth + 1);
    B.endDo();
    if (Exit)
      B.label(After).cont();
  }

  void genGotoLoop(unsigned Depth) {
    std::string Name = "w" + std::to_string(NextVar++);
    VarId W = B.intVar(Name);
    int Head = freshLabel();
    int Out = freshLabel();
    int64_t Bound = Gen.uniformInt(1, 6);
    B.assign(W, B.lit(0));
    B.label(Head).cont();
    B.assign(W, B.add(B.var(W), B.lit(1)));
    B.ifGoto(B.gt(B.var(W), B.lit(Bound)), Out);
    if (Cfg.WithLoopExits && Gen.bernoulli(0.3)) {
      PRng.advance();
      B.ifGoto(PRng.chance(20), Out);
    }
    genRegion(Depth + 1);
    B.gotoLabel(Head);
    B.label(Out).cont();
  }

  void genCall() {
    unsigned Callee = static_cast<unsigned>(
        Gen.uniformInt(0, static_cast<int64_t>(NumCallees) - 1));
    B.callSub("helper" + std::to_string(Callee),
              {B.var("seed"), B.var("rnd"), B.var("acc")});
  }

  void genComputedGoto(unsigned Depth) {
    // GOTO (L1..Ln), idx where idx = mod(rnd, n+1): value 0 exercises the
    // out-of-range fallthrough arm.
    unsigned Arms = static_cast<unsigned>(Gen.uniformInt(2, 4));
    std::vector<int> Labels;
    for (unsigned K = 0; K < Arms; ++K)
      Labels.push_back(freshLabel());
    int End = freshLabel();
    PRng.advance();
    Expr *Index = B.intrinsic(
        Intrinsic::Mod, {B.var(Rnd), B.lit(static_cast<int64_t>(Arms) + 1)});
    B.computedGoto(Index, Labels);
    // Fallthrough arm.
    genStraightLine();
    B.gotoLabel(End);
    for (unsigned K = 0; K < Arms; ++K) {
      B.label(Labels[K]).cont();
      genRegion(Depth + 1);
      if (K + 1 < Arms)
        B.gotoLabel(End);
    }
    B.label(End).cont();
  }

  void genOne(unsigned Depth) {
    double Roll = Gen.uniformReal();
    if (Depth >= Cfg.MaxDepth || Roll < 0.3) {
      genStraightLine();
      return;
    }
    if (Roll < 0.5) {
      genIf(Depth);
      return;
    }
    if (Roll < 0.65) {
      genDoLoop(Depth);
      return;
    }
    if (Roll < 0.75) {
      genComputedGoto(Depth);
      return;
    }
    if (Cfg.WithGotoLoops && Roll < 0.9) {
      genGotoLoop(Depth);
      return;
    }
    if (Cfg.WithCalls && NumCallees > 0) {
      genCall();
      return;
    }
    genStraightLine();
  }

  FunctionBuilder &B;
  Rng &Gen;
  const RandomProgramConfig &Cfg;
  ProgramRng PRng;
  VarId Rnd;
  VarId Acc;
  VarId Work;
  unsigned NumCallees;
  int NextLabel = 100;
  unsigned NextVar = 0;
};

void buildProcedureBody(FunctionBuilder &B, Rng &Gen,
                        const RandomProgramConfig &Cfg, VarId Seed, VarId Rnd,
                        VarId Acc, unsigned NumCallees, unsigned Depth) {
  VarId Work = B.intVar("workaux");
  BodyGenerator Body(B, Gen, Cfg, Seed, Rnd, Acc, Work, NumCallees);
  Body.genRegion(Depth);
}

} // namespace

std::unique_ptr<Program>
ptran::testing::makeRandomProgram(uint64_t Seed,
                                  const RandomProgramConfig &Cfg) {
  Rng Gen(Seed);
  auto Prog = std::make_unique<Program>();
  DiagnosticEngine Diags;

  unsigned NumCallees =
      Cfg.WithCalls ? static_cast<unsigned>(Gen.uniformInt(0, 2)) : 0;

  for (unsigned C = 0; C < NumCallees; ++C) {
    FunctionBuilder B(*Prog, "helper" + std::to_string(C), Diags);
    VarId S = B.intParam("seed");
    VarId R = B.intParam("rnd");
    VarId A = B.intParam("acc");
    RandomProgramConfig Leaf = Cfg;
    Leaf.WithCalls = false;
    buildProcedureBody(B, Gen, Leaf, S, R, A, 0, 1);
    if (!B.finish())
      reportFatalError("random helper failed to build:\n" + Diags.str());
  }

  {
    FunctionBuilder B(*Prog, "main", Diags);
    VarId S = B.intVar("seed");
    VarId R = B.intVar("rnd");
    VarId A = B.intVar("acc");
    B.assign(S, B.lit(static_cast<int64_t>(Seed % 99991) + 1));
    B.assign(R, B.lit(0));
    B.assign(A, B.lit(0));
    buildProcedureBody(B, Gen, Cfg, S, R, A, NumCallees, 0);
    B.print({B.var(A)});
    if (!B.finish())
      reportFatalError("random main failed to build:\n" + Diags.str());
  }
  return Prog;
}

std::optional<bool>
ptran::testing::runUnderFileSizeLimit(size_t LimitBytes,
                                      const std::function<bool()> &Body) {
  pid_t Pid = ::fork();
  if (Pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    struct rlimit Limit = {LimitBytes, LimitBytes};
    if (::setrlimit(RLIMIT_FSIZE, &Limit) != 0)
      ::_exit(2);
    ::_exit(Body() ? 1 : 0);
  }
  int Status = 0;
  if (Pid < 0 || ::waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) > 1)
    return std::nullopt;
  return WEXITSTATUS(Status) == 1;
}
