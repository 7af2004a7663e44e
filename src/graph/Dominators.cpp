//===--- graph/Dominators.cpp - (Post)dominator trees ---------------------===//

#include "graph/Dominators.h"

#include "graph/DepthFirst.h"
#include "support/FatalError.h"

#include <algorithm>

using namespace ptran;

DominatorTree::DominatorTree(const GraphView &G, NodeId RootNode,
                             Direction Dir)
    : Root(RootNode), Idom(G.numNodes(), InvalidNode),
      Level(G.numNodes(), InvalidLevel), Kids(G.numNodes()),
      TreeIn(G.numNodes(), 0), TreeOut(G.numNodes(), 0) {
  if (G.numNodes() == 0)
    return;

  // Postdominators are dominators of the reversed view — a pointer swap,
  // not a graph copy.
  const GraphView Work = Dir == Direction::Post ? G.reversed() : G;

  DfsResult Dfs(Work, Root);
  const std::vector<NodeId> &Rpo = Dfs.reversePostorder();

  // RPO index per node; the CHK intersect walks toward lower RPO indices.
  std::vector<unsigned> RpoIndex(Work.numNodes(), DfsResult::InvalidOrder);
  for (unsigned I = 0; I < Rpo.size(); ++I)
    RpoIndex[Rpo[I]] = I;

  Idom[Root] = Root; // Temporarily self, per Cooper-Harvey-Kennedy.

  auto Intersect = [&](NodeId A, NodeId B) {
    while (A != B) {
      while (RpoIndex[A] > RpoIndex[B])
        A = Idom[A];
      while (RpoIndex[B] > RpoIndex[A])
        B = Idom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (NodeId N : Rpo) {
      if (N == Root)
        continue;
      NodeId NewIdom = InvalidNode;
      for (const CsrEdgeRef &P : Work.preds(N)) {
        NodeId Pred = P.Node;
        if (Idom[Pred] == InvalidNode)
          continue; // Not yet processed or unreachable.
        NewIdom = NewIdom == InvalidNode ? Pred : Intersect(Pred, NewIdom);
      }
      assert(NewIdom != InvalidNode &&
             "reachable non-root node must have a processed predecessor");
      if (Idom[N] != NewIdom) {
        Idom[N] = NewIdom;
        Changed = true;
      }
    }
  }

  Idom[Root] = InvalidNode; // The root has no immediate dominator.

  // Materialize children lists and levels.
  for (NodeId N : Rpo) {
    if (N == Root) {
      Level[N] = 0;
      continue;
    }
    Kids[Idom[N]].push_back(N);
  }
  // Compute levels and Euler in/out numbers by one dominator-tree walk.
  unsigned Timer = 0;
  struct WalkFrame {
    NodeId N;
    size_t Next = 0;
  };
  std::vector<WalkFrame> Walk;
  Walk.push_back({Root, 0});
  TreeIn[Root] = Timer++;
  Level[Root] = 0;
  while (!Walk.empty()) {
    WalkFrame &F = Walk.back();
    if (F.Next == Kids[F.N].size()) {
      TreeOut[F.N] = Timer++;
      Walk.pop_back();
      continue;
    }
    NodeId Child = Kids[F.N][F.Next++];
    Level[Child] = Level[F.N] + 1;
    TreeIn[Child] = Timer++;
    Walk.push_back({Child, 0});
  }
}

bool DominatorTree::dominates(NodeId A, NodeId B) const {
  assert(isReachable(A) && isReachable(B) &&
         "dominance queries require reachable nodes");
  return TreeIn[A] <= TreeIn[B] && TreeOut[A] >= TreeOut[B];
}

NodeId DominatorTree::findNearestCommonDominator(NodeId A, NodeId B) const {
  assert(isReachable(A) && isReachable(B) &&
         "LCA queries require reachable nodes");
  while (Level[A] > Level[B])
    A = Idom[A];
  while (Level[B] > Level[A])
    B = Idom[B];
  while (A != B) {
    A = Idom[A];
    B = Idom[B];
  }
  return A;
}

bool ptran::isReducible(const GraphView &G, NodeId Root) {
  if (G.numNodes() == 0)
    return true;
  DfsResult Dfs(G, Root);
  DominatorTree Dom(G, Root);
  for (NodeId N = 0; N < G.numNodes(); ++N)
    for (const CsrEdgeRef &E : G.succs(N))
      if (Dfs.edgeKind(E.Edge) == DfsEdgeKind::Retreating &&
          !Dom.dominates(E.Node, N))
        return false;
  return true;
}
