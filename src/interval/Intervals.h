//===--- interval/Intervals.h - Interval (loop) structure -------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interval structure of Section 2: for a reducible control flow graph
/// the intervals identify the loops. This module computes the paper's
/// three mappings —
///
///   HDR(n)         the header of the (innermost) interval containing n,
///   HDR_PARENT(h)  the header of the immediately enclosing interval,
///   HDR_LCA(a, b)  the least common ancestor in the header tree —
///
/// plus the loop bodies, entry edges, back (latch) edges and exit edges
/// that the ECFG construction and the profiling optimizations consume.
/// The virtual outermost interval (the whole procedure) is represented by
/// InvalidNode, matching the paper's "HDR_PARENT(h) = 0".
///
/// Cost: compute() is O(N + E + sum of loop body sizes) after the DFS and
/// dominator tree, for CFGs of bounded in-degree: each loop's backward
/// walk visits its body once (see compute() for the inner-first
/// argument). contains() is O(1): H contains N iff H is an
/// ancestor-or-self of HDR(n) in the header tree, tested with header-tree
/// preorder intervals.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_INTERVAL_INTERVALS_H
#define PTRAN_INTERVAL_INTERVALS_H

#include "cfg/Cfg.h"
#include "support/Diagnostics.h"

#include <optional>
#include <vector>

namespace ptran {

/// The computed interval (loop) structure of one CFG.
class IntervalStructure {
public:
  /// Computes the interval structure of \p C. Fails (returning
  /// std::nullopt and reporting to \p Diags) if the reachable part of the
  /// graph is irreducible; apply splitNodes() first in that case.
  static std::optional<IntervalStructure> compute(const Cfg &C,
                                                  DiagnosticEngine &Diags);

  /// True if \p N heads a loop (has at least one back edge).
  bool isHeader(NodeId N) const { return BodyIndex[N] != NoLoop; }

  /// All loop headers, outermost first (by increasing nesting depth).
  const std::vector<NodeId> &headers() const { return Headers; }

  /// The nodes of loop \p H's body (header included), ascending.
  const std::vector<NodeId> &loopBody(NodeId H) const;

  /// True if loop \p H's body contains node \p N (header included). O(1).
  bool contains(NodeId H, NodeId N) const;

  /// HDR(n): header of the innermost loop containing \p N; a header is in
  /// its own interval, so hdr(h) == h. InvalidNode when \p N is in no loop
  /// (the virtual outermost interval).
  NodeId hdr(NodeId N) const { return Hdr[N]; }

  /// HDR_PARENT(h): the enclosing header, or InvalidNode for a top-level
  /// loop.
  NodeId hdrParent(NodeId H) const;

  /// HDR_LCA over the header tree. Arguments and result may be
  /// InvalidNode (the virtual root).
  NodeId hdrLca(NodeId A, NodeId B) const;

  /// Number of loops containing \p N (0 = not in any loop). O(1).
  unsigned loopDepth(NodeId N) const;

  /// Back (latch) edges of loop \p H: edges u -> H with u inside the body.
  const std::vector<EdgeId> &backEdges(NodeId H) const;

  /// Entry edges of loop \p H: edges u -> H with u outside the body.
  const std::vector<EdgeId> &entryEdges(NodeId H) const;

  /// Exit edges of loop \p H: edges from a body node to a node outside the
  /// body. Does not include procedure-exit branches (see exitBranches).
  const std::vector<EdgeId> &exitEdges(NodeId H) const;

  /// Procedure-exit branches taken from inside loop \p H's body (e.g. a
  /// RETURN in the loop). These leave every enclosing interval at once.
  const std::vector<Cfg::ExitBranch> &exitBranches(NodeId H) const;

  /// True if loop \p H is a DO loop with no premature exits: its header is
  /// a DO statement and the only way out is the header's own F branch.
  /// This is the precondition of the paper's third profiling optimization.
  bool isExitFreeDoLoop(const Cfg &C, NodeId H) const;

private:
  static constexpr unsigned NoLoop = static_cast<unsigned>(-1);

  unsigned loopIndex(NodeId H) const;

  /// Per-node innermost header.
  std::vector<NodeId> Hdr;
  /// Headers outermost-first.
  std::vector<NodeId> Headers;
  /// For each node: index into per-loop tables if it is a header.
  std::vector<unsigned> BodyIndex;
  /// Per-loop data, indexed by loopIndex().
  std::vector<std::vector<NodeId>> Bodies;
  std::vector<NodeId> Parent;
  std::vector<unsigned> Depth;
  /// Header-tree preorder number and subtree size (in loops), for O(1)
  /// ancestor tests.
  std::vector<unsigned> TreeIn;
  std::vector<unsigned> TreeSize;
  std::vector<std::vector<EdgeId>> Latches;
  std::vector<std::vector<EdgeId>> Entries;
  std::vector<std::vector<EdgeId>> ExitsOf;
  std::vector<std::vector<Cfg::ExitBranch>> ExitBranchesOf;
};

/// Splits nodes to make an irreducible CFG reducible (the "node splitting"
/// transformation the paper points to). Repeatedly duplicates the smallest
/// offending node until every retreating edge is a back edge. \returns the
/// number of node copies made (0 if the graph was already reducible).
/// Only supports Cfgs without a backing Function (synthetic graphs), since
/// splitting statement nodes would desynchronize the statement mapping.
unsigned splitNodes(Cfg &C, DiagnosticEngine &Diags);

} // namespace ptran

#endif // PTRAN_INTERVAL_INTERVALS_H
