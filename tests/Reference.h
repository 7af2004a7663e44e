//===--- tests/Reference.h - Brute-force reference algorithms ---*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Slow, obviously-correct reference implementations used to validate the
/// production algorithms: reachability-based dominators, a literal
/// transcription of the paper's Definition 2 of control dependence, and
/// the node-object TIME/VAR evaluator of Sections 4 and 5.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_TESTS_REFERENCE_H
#define PTRAN_TESTS_REFERENCE_H

#include "cdg/ControlDependence.h"
#include "cost/TimeAnalysis.h"
#include "graph/Digraph.h"

#include <map>
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
