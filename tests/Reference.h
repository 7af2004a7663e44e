//===--- tests/Reference.h - Brute-force reference algorithms ---*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Slow, obviously-correct reference implementations used to validate the
/// production algorithms: reachability-based dominators, natural loops
/// found one bitmap per header, a literal transcription of the paper's
/// Definition 2 of control dependence, and the node-object TIME/VAR
/// evaluator of Sections 4 and 5.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_TESTS_REFERENCE_H
#define PTRAN_TESTS_REFERENCE_H

#include "cdg/ControlDependence.h"
#include "cost/TimeAnalysis.h"
#include "graph/Digraph.h"
#include "interval/Intervals.h"

#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

namespace ptran {
namespace testing {

/// Brute-force dominator sets: A dominates B iff removing A makes B
/// unreachable from Root (plus A dominating itself). Unreachable nodes
/// have empty sets.
std::vector<std::set<NodeId>> bruteForceDominators(const Digraph &G,
                                                   NodeId Root);

/// Brute-force postdominator relation on \p G with exit \p Stop:
/// Result[B] contains every A that postdominates B.
std::vector<std::set<NodeId>> bruteForcePostDominators(const Digraph &G,
                                                       NodeId Stop);

/// The interval structure of a CFG, found loop by loop: each header's
/// natural loop is a node bitmap filled by backward reachability from its
/// latches; the parent of a loop and HDR(n) are the smallest enclosing
/// bodies found by scanning every header. O(nodes × loops); the oracle
/// that IntervalStructure::compute is compared with query by query.
struct ReferenceIntervals {
  /// Headers outermost-first (by depth, then node id).
  std::vector<NodeId> Headers;
  /// Innermost header per node, or InvalidNode.
  std::vector<NodeId> Hdr;
  /// Per header:
  std::map<NodeId, NodeId> Parent;
  std::map<NodeId, std::vector<bool>> InBody;
  std::map<NodeId, std::vector<NodeId>> Bodies;
  std::map<NodeId, std::vector<EdgeId>> Latches;
  std::map<NodeId, std::vector<EdgeId>> Entries;
  std::map<NodeId, std::vector<EdgeId>> Exits;
  std::map<NodeId, std::vector<Cfg::ExitBranch>> ExitBranches;
};

/// \returns the reference interval structure of \p C, or std::nullopt if
/// a retreating edge does not target a dominator (irreducible).
std::optional<ReferenceIntervals> referenceIntervals(const Cfg &C);

/// A literal implementation of Definition 2: Y is control dependent on
/// (X, L) iff Y does not postdominate X, and there is a path from X to Y,
/// starting with an L-labelled edge, whose intermediate nodes are all
/// postdominated by Y. Returns (X, Y, L) triples.
std::set<std::tuple<NodeId, NodeId, LabelId>>
bruteForceControlDependence(const Digraph &G, NodeId Stop);

/// TIME/VAR of every node of every analyzed function, evaluated the way
/// Sections 4 and 5 read: a bottom-up walk over each FCDG through
/// childrenOf()/labelsOf() and the map-backed Frequencies::freqOf(),
/// callees before callers over the call graph's SCCs, recursive SCCs
/// iterated Opts.RecursionIterations times from zero summaries. Serial,
/// and it performs TimeAnalysis's floating-point operations in the same
/// order, so the production results must match it bit for bit.
/// Functions without an analysis are skipped; calls into them cost only
/// their linkage. Opts.Exec, Diags, Obs and Cancel are ignored.
std::map<const Function *, std::vector<NodeEstimates>>
referenceTimeEstimates(const ProgramAnalysis &PA,
                       const std::map<const Function *, Frequencies> &Freqs,
                       const CostModel &CM, const TimeAnalysisOptions &Opts);

} // namespace testing
} // namespace ptran

#endif // PTRAN_TESTS_REFERENCE_H
