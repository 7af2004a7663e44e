//===--- graph/Scc.h - Strongly connected components ------------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tarjan's strongly-connected-components algorithm. The interprocedural
/// cost analysis (Section 4, rule 2) visits procedures bottom-up over the
/// call graph; SCCs identify recursive cycles, which the paper defers and
/// we handle with an optional fixed-point extension.
///
/// The solver runs over a GraphView.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_GRAPH_SCC_H
#define PTRAN_GRAPH_SCC_H

#include "graph/GraphView.h"

#include <vector>

namespace ptran {

/// The strongly connected components of a graph.
struct SccResult {
  /// Component index per node. Components are numbered in reverse
  /// topological order of the condensation: if component A has an edge to
  /// component B (A != B), then Component[a] > Component[b] for a in A,
  /// b in B. Visiting components 0, 1, 2, ... is therefore a bottom-up
  /// (callees-first) order for a call graph.
  std::vector<unsigned> Component;

  /// Members of each component, grouped.
  std::vector<std::vector<NodeId>> Members;

  unsigned numComponents() const {
    return static_cast<unsigned>(Members.size());
  }

  /// True if node \p N sits in a component that is a real cycle (more than
  /// one member, or a self-loop).
  bool isInCycle(const GraphView &G, NodeId N) const;
};

/// Computes the SCCs of \p G (all nodes, reachable or not).
SccResult computeSccs(const GraphView &G);

} // namespace ptran

#endif // PTRAN_GRAPH_SCC_H
