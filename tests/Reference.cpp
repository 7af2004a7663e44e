//===--- tests/Reference.cpp - Brute-force reference algorithms -----------===//

#include "Reference.h"

#include "graph/Scc.h"
#include "ir/Function.h"
#include "support/Casting.h"

#include <cmath>

using namespace ptran;
using namespace ptran::testing;

namespace {

/// Nodes reachable from \p From, optionally pretending \p Removed is
/// absent.
std::vector<bool> reachableFrom(const Digraph &G, NodeId From,
                                NodeId Removed = InvalidNode) {
  std::vector<bool> Seen(G.numNodes(), false);
  if (From == Removed)
    return Seen;
  std::vector<NodeId> Worklist = {From};
  Seen[From] = true;
  while (!Worklist.empty()) {
    NodeId N = Worklist.back();
    Worklist.pop_back();
    for (NodeId S : G.successors(N)) {
      if (S == Removed || Seen[S])
        continue;
      Seen[S] = true;
      Worklist.push_back(S);
    }
  }
  return Seen;
}

} // namespace

std::vector<std::set<NodeId>>
ptran::testing::bruteForceDominators(const Digraph &G, NodeId Root) {
  std::vector<std::set<NodeId>> Dom(G.numNodes());
  std::vector<bool> Base = reachableFrom(G, Root);
  for (NodeId A = 0; A < G.numNodes(); ++A) {
    if (!Base[A])
      continue;
    std::vector<bool> Without = reachableFrom(G, Root, A);
    for (NodeId B = 0; B < G.numNodes(); ++B)
      if (Base[B] && (B == A || !Without[B]))
        Dom[B].insert(A);
  }
  return Dom;
}

std::vector<std::set<NodeId>>
ptran::testing::bruteForcePostDominators(const Digraph &G, NodeId Stop) {
  return bruteForceDominators(G.reversed(), Stop);
}

std::set<std::tuple<NodeId, NodeId, LabelId>>
ptran::testing::bruteForceControlDependence(const Digraph &G, NodeId Stop) {
  std::vector<std::set<NodeId>> Pdom = bruteForcePostDominators(G, Stop);

  auto Postdom = [&](NodeId A, NodeId B) { return Pdom[B].count(A) != 0; };

  std::set<std::tuple<NodeId, NodeId, LabelId>> Out;
  for (EdgeId E = 0; E < G.numEdgeSlots(); ++E) {
    if (!G.isLive(E))
      continue;
    const Digraph::Edge &Ed = G.edge(E);
    NodeId X = Ed.From;
    NodeId Z = Ed.To;
    // Skip nodes with undefined postdominators (cannot reach Stop).
    if (Pdom[X].empty() || Pdom[Z].empty())
      continue;
    for (NodeId Y = 0; Y < G.numNodes(); ++Y) {
      if (Pdom[Y].empty())
        continue;
      if (Postdom(Y, X))
        continue; // Condition 1 fails (note: reflexive, so Y != X holds).
      // Condition 2/3: a path X -> Z -> ... -> Y whose intermediate nodes
      // (everything after X and before Y) are postdominated by Y.
      bool Found = false;
      if (Z == Y) {
        Found = true; // Single-edge path: no intermediates.
      } else if (Postdom(Y, Z)) {
        // BFS from Z over nodes postdominated by Y, looking for Y.
        std::vector<bool> Seen(G.numNodes(), false);
        std::vector<NodeId> Worklist = {Z};
        Seen[Z] = true;
        while (!Worklist.empty() && !Found) {
          NodeId N = Worklist.back();
          Worklist.pop_back();
          for (NodeId S : G.successors(N)) {
            if (S == Y) {
              Found = true;
              break;
            }
            if (!Seen[S] && !Pdom[S].empty() && Postdom(Y, S)) {
              Seen[S] = true;
              Worklist.push_back(S);
            }
          }
        }
      }
      if (Found)
        Out.insert({X, Y, Ed.Label});
    }
  }
  return Out;
}

namespace {

/// VAR(FREQ) of the loop behind preheader \p Ph (Section 5, Case 1).
double loopFreqVariance(const FunctionAnalysis &FA,
                        const TimeAnalysisOptions &Opts, NodeId Ph,
                        double Mean) {
  switch (Opts.LoopVariance) {
  case LoopVarianceMode::Zero:
    return 0.0;
  case LoopVarianceMode::Profiled: {
    if (!Opts.Stats)
      return 0.0;
    NodeId Header = FA.ecfg().headerOf(Ph);
    const LoopFrequencyStats::Moments *M = Opts.Stats->momentsFor(
        FA.function(), FA.ecfg().cfg().origin(Header));
    return M ? M->variance() : 0.0;
  }
  case LoopVarianceMode::Geometric: {
    double V = Mean * Mean - Mean;
    return V > 0.0 ? V : 0.0;
  }
  case LoopVarianceMode::Uniform: {
    double Width = 2.0 * Mean - 1.0;
    double V = (Width * Width - 1.0) / 12.0;
    return V > 0.0 ? V : 0.0;
  }
  }
  return 0.0;
}

/// One function's node estimates, children before parents over its FCDG.
std::vector<NodeEstimates>
referenceFunction(const FunctionAnalysis &FA, const Frequencies &Freqs,
                  const CostModel &CM, const TimeAnalysisOptions &Opts,
                  const std::map<const Function *, FunctionSummary> &Callees,
                  const Program &Prog) {
  const ControlDependence &CD = FA.cd();
  const Ecfg &E = FA.ecfg();
  const Cfg &C = E.cfg();
  const Function &F = FA.function();

  std::vector<NodeEstimates> Est(C.numNodes());
  const std::vector<NodeId> &Topo = CD.topoOrder();
  for (auto It = Topo.rbegin(); It != Topo.rend(); ++It) {
    NodeId U = *It;
    NodeEstimates &EU = Est[U];

    // Local cost; rule 2 adds a call's callee TIME (and, as an
    // extension, its VAR).
    double VarCost = 0.0;
    StmtId S = C.origin(U);
    if (S != InvalidStmt) {
      const Stmt *St = F.stmt(S);
      std::optional<double> Overridden;
      if (Opts.LocalCostOverride)
        Overridden = Opts.LocalCostOverride(F, St);
      EU.Cost = Overridden ? *Overridden : CM.statementCost(St);
      EU.SelfCost = EU.Cost;
      if (const auto *Call = dyn_cast<CallStmt>(St)) {
        const Function *Callee = Prog.findFunction(Call->callee());
        auto CIt = Callee ? Callees.find(Callee) : Callees.end();
        if (CIt != Callees.end()) {
          EU.Cost += CIt->second.Time;
          if (Opts.PropagateCalleeVariance)
            VarCost = CIt->second.Var;
        }
      }
    }

    if (E.headerOf(U) != InvalidNode) {
      // Case 1: a preheader; only its U label carries frequency.
      double Freq = Freqs.freqOf({U, CfgLabel::U});
      double SumTime = 0.0;
      double SumVar = 0.0;
      for (NodeId V : CD.childrenOf(U, CfgLabel::U)) {
        SumTime += Est[V].Time;
        SumVar += Est[V].Var;
      }
      double FreqVar = loopFreqVariance(FA, Opts, U, Freq);
      EU.Time = EU.Cost + Freq * SumTime;
      EU.Var = VarCost + Freq * Freq * SumVar + FreqVar * SumTime * SumTime +
               FreqVar * SumVar;
    } else {
      // Case 2: TIME_C and E[TIME_C^2] over the label outcomes.
      bool Deterministic = Opts.DeterministicDoHeaders &&
                           U < E.numOriginalNodes() &&
                           FA.intervals().isHeader(U) &&
                           FA.intervals().isExitFreeDoLoop(FA.cfg(), U);
      double TimeC = 0.0;
      double TimeCSq = 0.0;
      double ChildVar = 0.0;
      for (CfgLabel L : CD.labelsOf(U)) {
        double Freq = Freqs.freqOf({U, L});
        double SumTime = 0.0;
        double SumVar = 0.0;
        for (NodeId V : CD.childrenOf(U, L)) {
          SumTime += Est[V].Time;
          SumVar += Est[V].Var;
        }
        TimeC += Freq * SumTime;
        TimeCSq += Freq * (SumVar + SumTime * SumTime);
        ChildVar += Freq * SumVar;
      }
      EU.Time = EU.Cost + TimeC;
      EU.Var = Deterministic ? VarCost + ChildVar
                             : VarCost + (TimeCSq - TimeC * TimeC);
      if (EU.Var < 0.0)
        EU.Var = 0.0;
    }
    EU.TimeSq = EU.Var + EU.Time * EU.Time;
    EU.StdDev = std::sqrt(EU.Var);
  }
  return Est;
}

} // namespace

std::map<const Function *, std::vector<NodeEstimates>>
ptran::testing::referenceTimeEstimates(
    const ProgramAnalysis &PA,
    const std::map<const Function *, Frequencies> &Freqs,
    const CostModel &CM, const TimeAnalysisOptions &Opts) {
  const Program &Prog = PA.program();
  std::vector<const Function *> Funcs;
  std::map<const Function *, NodeId> Index;
  for (const auto &F : Prog.functions())
    if (PA.tryOf(*F)) {
      Index[F.get()] = static_cast<NodeId>(Funcs.size());
      Funcs.push_back(F.get());
    }
  Digraph CallGraph(static_cast<unsigned>(Funcs.size()));
  for (const Function *F : Funcs)
    for (StmtId S = 0; S < F->numStmts(); ++S)
      if (const auto *Call = dyn_cast<CallStmt>(F->stmt(S)))
        if (const Function *Callee = Prog.findFunction(Call->callee()))
          if (Index.count(Callee))
            CallGraph.addEdge(Index[F], Index[Callee], 0);
  CsrGraph CallCsr(CallGraph);
  SccResult Sccs = computeSccs(CallCsr.view());

  std::map<const Function *, FunctionSummary> Summaries;
  for (const Function *F : Funcs)
    Summaries[F];
  std::map<const Function *, std::vector<NodeEstimates>> Out;
  auto Evaluate = [&](const Function *F) {
    const FunctionAnalysis &FA = PA.of(*F);
    Out[F] = referenceFunction(FA, Freqs.at(F), CM, Opts, Summaries, Prog);
    NodeId Start = FA.ecfg().start();
    Summaries[F] = {Out[F][Start].Time, Out[F][Start].Var};
  };
  // Tarjan numbers components callees-first.
  for (unsigned Comp = 0; Comp < Sccs.numComponents(); ++Comp) {
    const std::vector<NodeId> &Members = Sccs.Members[Comp];
    bool Cyclic = Sccs.isInCycle(CallCsr.view(), Members.front());
    unsigned Iterations = Cyclic ? Opts.RecursionIterations : 1;
    for (unsigned Iter = 0; Iter < Iterations; ++Iter)
      for (NodeId M : Members)
        Evaluate(Funcs[M]);
  }
  return Out;
}
