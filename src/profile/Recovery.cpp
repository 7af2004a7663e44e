//===--- profile/Recovery.cpp - TOTAL_FREQ recovery -----------------------===//

#include "profile/Recovery.h"

#include "graph/GraphView.h"

#include <string>

using namespace ptran;

FrequencyTotals ptran::recoverTotals(const FunctionAnalysis &FA,
                                     const FunctionPlan &Plan,
                                     const std::vector<double> &Counters,
                                     DiagnosticEngine *Diags,
                                     ObsRegistry *Obs, CancelToken *Cancel) {
  // Explicit validation (not just an assert, which compiles out in release
  // builds): a mismatched vector would index out of bounds below.
  if (Counters.size() != Plan.numCounters()) {
    if (Diags)
      Diags->error("counter vector for " + FA.function().name() + " has " +
                   std::to_string(Counters.size()) + " entries, plan expects " +
                   std::to_string(Plan.numCounters()));
    FrequencyTotals Bad;
    Bad.Ok = false;
    return Bad;
  }
  if (Plan.mode() == ProfileMode::Naive) {
    // Naive plans measure basic blocks, not conditions; nothing to solve.
    FrequencyTotals Empty;
    Empty.Ok = false;
    return Empty;
  }

  const ControlDependence &CD = FA.cd();
  const Digraph &Fcdg = CD.fcdg();
  NodeId Start = FA.ecfg().start();

  FrequencyTotals Out;
  Out.Node.assign(Fcdg.numNodes(), -1.0);
  std::map<ControlCondition, double> Known;
  // In-edges per node in Digraph order (the order node sums accumulate
  // in), gathered once rather than on every pass.
  CsrGraph FcdgCsr(Fcdg);
  GraphView View = FcdgCsr.view();

  auto CondKnown = [&](const ControlCondition &C) {
    return Known.count(C) != 0;
  };

  // Fixpoint propagation over node totals and condition rules. Every
  // productive pass resolves at least one condition or node total, so a
  // well-formed plan converges within conditions + nodes passes; the cap
  // only trips on contradictory input (e.g. a NaN counter keeps a node
  // total "unknown" forever because NaN >= 0.0 is false, re-deriving it
  // each pass with Changed stuck at true).
  const uint64_t MaxIterations =
      2 * (static_cast<uint64_t>(CD.conditions().size()) + Fcdg.numNodes()) + 8;
  bool Changed = true;
  uint64_t Iterations = 0;
  while (Changed) {
    if (Iterations >= MaxIterations) {
      if (Diags)
        Diags->error("frequency recovery for " + FA.function().name() +
                     " did not converge after " +
                     std::to_string(Iterations) +
                     " iterations; counters are contradictory (NaN or cyclic "
                     "derivation)");
      if (Obs) {
        Obs->addCounter("recovery.calls");
        Obs->addCounter("recovery.fixpoint_iterations", Iterations);
        Obs->addCounter("recovery.diverged");
      }
      FrequencyTotals Bad;
      Bad.Ok = false;
      return Bad;
    }
    if (Cancel && Cancel->checkpoint()) {
      if (Diags)
        Diags->error(cancelMessage(*Cancel, "frequency recovery for " +
                                                FA.function().name()));
      if (Obs) {
        Obs->addCounter("recovery.calls");
        Obs->addCounter("recovery.fixpoint_iterations", Iterations);
      }
      FrequencyTotals Bad;
      Bad.Ok = false;
      return Bad;
    }
    Changed = false;
    ++Iterations;

    // Node totals: START's equals its own U condition (the procedure's
    // invocation count); every other node sums its incoming conditions.
    for (NodeId N : CD.topoOrder()) {
      if (Out.Node[N] >= 0.0)
        continue;
      if (N == Start) {
        ControlCondition StartCond{Start, CfgLabel::U};
        if (CondKnown(StartCond)) {
          Out.Node[N] = Known[StartCond];
          Changed = true;
        }
        continue;
      }
      double Sum = 0.0;
      bool AllKnown = true;
      for (const CsrEdgeRef &In : View.preds(N)) {
        auto It = Known.find({In.Node, static_cast<CfgLabel>(In.Label)});
        if (It == Known.end()) {
          AllKnown = false;
          break;
        }
        Sum += It->second;
      }
      if (AllKnown && View.inDegree(N) > 0) {
        Out.Node[N] = Sum;
        Changed = true;
      }
    }

    // Condition rules.
    for (const auto &[Cond, R] : Plan.resolutions()) {
      if (CondKnown(Cond))
        continue;
      switch (R.K) {
      case Resolution::Kind::Measured:
        Known[Cond] = Counters[R.Counter];
        Changed = true;
        continue;
      case Resolution::Kind::Zero:
        Known[Cond] = 0.0;
        Changed = true;
        continue;
      default:
        break;
      }
      // Linear rule: resolvable when every term is known.
      double Value = 0.0;
      bool AllKnown = true;
      for (const RecoveryTerm &T : R.Terms) {
        switch (T.K) {
        case RecoveryTerm::Kind::CondTotal:
          if (!CondKnown(T.Cond)) {
            AllKnown = false;
            break;
          }
          Value += T.Coeff * Known[T.Cond];
          break;
        case RecoveryTerm::Kind::NodeTotal:
          if (Out.Node[T.Node] < 0.0) {
            AllKnown = false;
            break;
          }
          Value += T.Coeff * Out.Node[T.Node];
          break;
        case RecoveryTerm::Kind::CounterVal:
          Value += T.Coeff * Counters[T.Counter];
          break;
        }
        if (!AllKnown)
          break;
      }
      if (AllKnown) {
        // Counter noise can produce tiny negative values for identically
        // zero paths; clamp.
        Known[Cond] = Value < 0.0 ? 0.0 : Value;
        Changed = true;
      }
    }
  }

  if (Obs) {
    Obs->addCounter("recovery.calls");
    Obs->addCounter("recovery.fixpoint_iterations", Iterations);
  }

  Out.Cond = Known;
  Out.Ok = true;
  for (const ControlCondition &C : CD.conditions())
    if (!CondKnown(C)) {
      Out.Ok = false;
      Out.Unresolved.push_back(C);
    }
  for (NodeId N : CD.topoOrder())
    if (Out.Node[N] < 0.0)
      Out.Ok = false;
  return Out;
}

std::vector<double> ptran::nodeTotalsFromConds(
    const FunctionAnalysis &FA,
    const std::map<ControlCondition, double> &Cond) {
  const ControlDependence &CD = FA.cd();
  const Digraph &Fcdg = CD.fcdg();
  NodeId Start = FA.ecfg().start();

  std::vector<double> Node(Fcdg.numNodes(), -1.0);
  for (NodeId N : CD.topoOrder()) {
    if (N == Start) {
      auto It = Cond.find({Start, CfgLabel::U});
      Node[N] = It == Cond.end() ? 0.0 : It->second;
      continue;
    }
    double Sum = 0.0;
    for (EdgeId In : Fcdg.inEdges(N)) {
      const Digraph::Edge &Ed = Fcdg.edge(In);
      auto It = Cond.find({Ed.From, static_cast<CfgLabel>(Ed.Label)});
      Sum += It == Cond.end() ? 0.0 : It->second;
    }
    Node[N] = Sum;
  }
  return Node;
}

bool ptran::planIsRecoverable(const FunctionAnalysis &FA,
                              const FunctionPlan &Plan) {
  if (Plan.mode() == ProfileMode::Naive)
    return true; // Naive plans have no condition rules to resolve.
  std::vector<double> Zeros(Plan.numCounters(), 0.0);
  return recoverTotals(FA, Plan, Zeros).Ok;
}
