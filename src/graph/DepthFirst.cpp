//===--- graph/DepthFirst.cpp - DFS numbering and edge classes ------------===//

#include "graph/DepthFirst.h"

#include <algorithm>

using namespace ptran;

DfsResult::DfsResult(const GraphView &G, NodeId Root)
    : Pre(G.numNodes(), InvalidOrder), Post(G.numNodes(), InvalidOrder),
      Parent(G.numNodes(), InvalidNode),
      EdgeKinds(G.numEdgeSlots(), DfsEdgeKind::Unreached) {
  if (G.numNodes() == 0)
    return;
  assert(Root < G.numNodes() && "root out of range");

  unsigned PreCounter = 0;
  unsigned PostCounter = 0;
  std::vector<NodeId> PostorderNodes;
  PostorderNodes.reserve(G.numNodes());

  // Explicit stack of (node, adjacency cursor) frames. The CSR ranges are
  // borrowed straight from the view — no per-node edge-list copies.
  struct Frame {
    NodeId N;
    const CsrEdgeRef *Next;
    const CsrEdgeRef *End;
  };
  std::vector<Frame> Stack;
  Stack.reserve(64);
  // On-stack marker distinguishes retreating edges from cross edges.
  std::vector<bool> OnStack(G.numNodes(), false);

  auto Push = [&](NodeId N) {
    GraphView::Range Out = G.succs(N);
    Stack.push_back({N, Out.begin(), Out.end()});
  };

  Pre[Root] = PreCounter++;
  OnStack[Root] = true;
  Push(Root);

  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (F.Next == F.End) {
      Post[F.N] = PostCounter++;
      PostorderNodes.push_back(F.N);
      OnStack[F.N] = false;
      Stack.pop_back();
      continue;
    }
    const CsrEdgeRef &E = *F.Next++;
    NodeId To = E.Node;
    if (Pre[To] == InvalidOrder) {
      EdgeKinds[E.Edge] = DfsEdgeKind::Tree;
      Parent[To] = F.N;
      Pre[To] = PreCounter++;
      OnStack[To] = true;
      Push(To);
    } else if (OnStack[To]) {
      EdgeKinds[E.Edge] = DfsEdgeKind::Retreating;
    } else if (Pre[To] > Pre[F.N]) {
      EdgeKinds[E.Edge] = DfsEdgeKind::Forward;
    } else {
      EdgeKinds[E.Edge] = DfsEdgeKind::Cross;
    }
  }

  Rpo.assign(PostorderNodes.rbegin(), PostorderNodes.rend());
}

bool DfsResult::isTreeAncestor(NodeId Ancestor, NodeId N) const {
  assert(isReachable(Ancestor) && isReachable(N) &&
         "tree ancestry queries require reachable nodes");
  // In a DFS, Ancestor is a tree ancestor of N iff N's discovery lies within
  // Ancestor's discovery/finish bracket. Using pre/post numbering:
  return Pre[Ancestor] <= Pre[N] && Post[Ancestor] >= Post[N];
}

std::vector<NodeId> ptran::reversePostorder(const GraphView &G, NodeId Root) {
  return DfsResult(G, Root).reversePostorder();
}

std::optional<std::vector<NodeId>>
ptran::topologicalOrder(const GraphView &G) {
  unsigned N = G.numNodes();
  std::vector<unsigned> InDeg(N, 0);
  for (NodeId Node = 0; Node < N; ++Node)
    InDeg[Node] = G.inDegree(Node);

  std::vector<NodeId> Worklist;
  for (NodeId Node = 0; Node < N; ++Node)
    if (InDeg[Node] == 0)
      Worklist.push_back(Node);

  std::vector<NodeId> Order;
  Order.reserve(N);
  // Pop from the front to keep the order stable w.r.t. node ids.
  for (size_t I = 0; I < Worklist.size(); ++I) {
    NodeId Node = Worklist[I];
    Order.push_back(Node);
    for (const CsrEdgeRef &E : G.succs(Node))
      if (--InDeg[E.Node] == 0)
        Worklist.push_back(E.Node);
  }
  if (Order.size() != N)
    return std::nullopt; // A cycle keeps some in-degrees positive.
  return Order;
}
