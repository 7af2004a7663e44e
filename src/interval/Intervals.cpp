//===--- interval/Intervals.cpp - Interval (loop) structure ---------------===//

#include "interval/Intervals.h"

#include "graph/DepthFirst.h"
#include "graph/Dominators.h"
#include "support/Casting.h"
#include "support/FatalError.h"

#include <algorithm>
#include <cassert>

using namespace ptran;

unsigned IntervalStructure::loopIndex(NodeId H) const {
  assert(H < BodyIndex.size() && BodyIndex[H] != NoLoop &&
         "node is not a loop header");
  return BodyIndex[H];
}

const std::vector<NodeId> &IntervalStructure::loopBody(NodeId H) const {
  return Bodies[loopIndex(H)];
}

bool IntervalStructure::contains(NodeId H, NodeId N) const {
  unsigned I = loopIndex(H);
  NodeId Inner = Hdr[N];
  if (Inner == InvalidNode)
    return false;
  unsigned J = BodyIndex[Inner];
  return TreeIn[I] <= TreeIn[J] && TreeIn[J] < TreeIn[I] + TreeSize[I];
}

NodeId IntervalStructure::hdrParent(NodeId H) const {
  return Parent[loopIndex(H)];
}

NodeId IntervalStructure::hdrLca(NodeId A, NodeId B) const {
  // Walk both headers up the header tree to equal depth, then in lockstep.
  auto DepthOf = [&](NodeId H) {
    return H == InvalidNode ? 0u : Depth[loopIndex(H)] + 1;
  };
  while (DepthOf(A) > DepthOf(B))
    A = hdrParent(A);
  while (DepthOf(B) > DepthOf(A))
    B = hdrParent(B);
  while (A != B) {
    A = hdrParent(A);
    B = hdrParent(B);
  }
  return A;
}

unsigned IntervalStructure::loopDepth(NodeId N) const {
  NodeId H = Hdr[N];
  return H == InvalidNode ? 0 : Depth[loopIndex(H)] + 1;
}

const std::vector<EdgeId> &IntervalStructure::backEdges(NodeId H) const {
  return Latches[loopIndex(H)];
}

const std::vector<EdgeId> &IntervalStructure::entryEdges(NodeId H) const {
  return Entries[loopIndex(H)];
}

const std::vector<EdgeId> &IntervalStructure::exitEdges(NodeId H) const {
  return ExitsOf[loopIndex(H)];
}

const std::vector<Cfg::ExitBranch> &
IntervalStructure::exitBranches(NodeId H) const {
  return ExitBranchesOf[loopIndex(H)];
}

bool IntervalStructure::isExitFreeDoLoop(const Cfg &C, NodeId H) const {
  const Function *F = C.function();
  if (!F)
    return false;
  StmtId S = C.origin(H);
  if (S == InvalidStmt || !isa<DoStmt>(F->stmt(S)))
    return false;
  // The only ways out must be the DO header's own F branch.
  for (EdgeId E : exitEdges(H)) {
    const Digraph::Edge &Ed = C.graph().edge(E);
    if (Ed.From != H || static_cast<CfgLabel>(Ed.Label) != CfgLabel::F)
      return false;
  }
  for (const Cfg::ExitBranch &B : exitBranches(H))
    if (B.Node != H || B.Label != CfgLabel::F)
      return false;
  return true;
}

std::optional<IntervalStructure>
IntervalStructure::compute(const Cfg &C, DiagnosticEngine &Diags) {
  const Digraph &G = C.graph();
  unsigned NumNodes = G.numNodes();
  IntervalStructure IS;
  IS.Hdr.assign(NumNodes, InvalidNode);
  IS.BodyIndex.assign(NumNodes, NoLoop);
  if (NumNodes == 0)
    return IS;

  NodeId Entry = C.entry();
  assert(Entry != InvalidNode && "CFG has no entry");
  CsrGraph Csr(G);
  GraphView View = Csr.view();
  DfsResult Dfs(View, Entry);
  DominatorTree Dom(View, Entry);

  // Back edges, rejecting irreducible retreating edges. Loops are indexed
  // by ascending header id; each loop's latches stay in EdgeId order.
  std::vector<EdgeId> BackEdges;
  for (EdgeId E = 0; E < G.numEdgeSlots(); ++E) {
    if (!G.isLive(E) || Dfs.edgeKind(E) != DfsEdgeKind::Retreating)
      continue;
    const Digraph::Edge &Ed = G.edge(E);
    if (!Dom.dominates(Ed.To, Ed.From)) {
      Diags.error("irreducible control flow: retreating edge " +
                  C.nodeName(Ed.From) + " -> " + C.nodeName(Ed.To) +
                  " does not target a dominator");
      return std::nullopt;
    }
    BackEdges.push_back(E);
    IS.BodyIndex[Ed.To] = 0; // Marks a header; numbered below.
  }
  std::vector<NodeId> HeaderOfLoop;
  for (NodeId N = 0; N < NumNodes; ++N)
    if (IS.BodyIndex[N] != NoLoop) {
      IS.BodyIndex[N] = static_cast<unsigned>(HeaderOfLoop.size());
      HeaderOfLoop.push_back(N);
    }
  unsigned NumLoops = static_cast<unsigned>(HeaderOfLoop.size());
  IS.Latches.resize(NumLoops);
  for (EdgeId E : BackEdges)
    IS.Latches[IS.BodyIndex[G.edge(E).To]].push_back(E);

  // Inner-first natural loops. A header dominates its whole body, and a
  // dominator precedes everything it dominates in DFS preorder; so the
  // loops containing a node form a chain whose innermost header has the
  // largest preorder number. Walking the loops in decreasing header
  // preorder, backward from the latches and stopping at the header, the
  // first walk to reach a node is its innermost loop (HDR), and the first
  // walk other than H's own to reach header H is HDR_PARENT(H). One stamp
  // array serves every walk; each walk visits its body once and scans
  // those nodes' in-edges.
  std::vector<unsigned> InnerFirst(NumLoops);
  for (unsigned I = 0; I < NumLoops; ++I)
    InnerFirst[I] = I;
  std::sort(InnerFirst.begin(), InnerFirst.end(), [&](unsigned A, unsigned B) {
    return Dfs.preorder(HeaderOfLoop[A]) > Dfs.preorder(HeaderOfLoop[B]);
  });
  IS.Parent.assign(NumLoops, InvalidNode);
  std::vector<unsigned> Stamp(NumNodes, NoLoop);
  std::vector<NodeId> Worklist;
  for (unsigned I : InnerFirst) {
    NodeId H = HeaderOfLoop[I];
    Stamp[H] = I;
    IS.Hdr[H] = H;
    auto Claim = [&](NodeId N) {
      if (Stamp[N] == I)
        return;
      Stamp[N] = I;
      Worklist.push_back(N);
      if (IS.Hdr[N] == InvalidNode)
        IS.Hdr[N] = H;
      else if (IS.Hdr[N] == N && IS.Parent[IS.BodyIndex[N]] == InvalidNode)
        IS.Parent[IS.BodyIndex[N]] = H;
    };
    for (EdgeId E : IS.Latches[I])
      Claim(G.edge(E).From);
    while (!Worklist.empty()) {
      NodeId N = Worklist.back();
      Worklist.pop_back();
      for (const CsrEdgeRef &P : View.preds(N))
        if (Dfs.isReachable(P.Node))
          Claim(P.Node);
    }
  }

  // Depths and header-tree subtree sizes (parents precede children in
  // preorder, so the reverse walk sees every child before its parent).
  IS.Depth.assign(NumLoops, 0);
  IS.TreeSize.assign(NumLoops, 1);
  for (auto It = InnerFirst.rbegin(); It != InnerFirst.rend(); ++It)
    if (NodeId P = IS.Parent[*It]; P != InvalidNode)
      IS.Depth[*It] = IS.Depth[IS.BodyIndex[P]] + 1;
  for (unsigned I : InnerFirst)
    if (NodeId P = IS.Parent[I]; P != InvalidNode)
      IS.TreeSize[IS.BodyIndex[P]] += IS.TreeSize[I];
  // Header-tree preorder numbers: loop J is in loop I's subtree iff
  // TreeIn[I] <= TreeIn[J] < TreeIn[I] + TreeSize[I].
  IS.TreeIn.assign(NumLoops, 0);
  std::vector<unsigned> NextChildIn(NumLoops, 0);
  unsigned NextRootIn = 0;
  for (auto It = InnerFirst.rbegin(); It != InnerFirst.rend(); ++It) {
    NodeId P = IS.Parent[*It];
    unsigned &Cursor = P == InvalidNode ? NextRootIn
                                        : NextChildIn[IS.BodyIndex[P]];
    IS.TreeIn[*It] = Cursor;
    Cursor += IS.TreeSize[*It];
    NextChildIn[*It] = IS.TreeIn[*It] + 1;
  }

  // Headers outermost-first.
  IS.Headers = HeaderOfLoop;
  std::sort(IS.Headers.begin(), IS.Headers.end(), [&](NodeId A, NodeId B) {
    unsigned DA = IS.Depth[IS.BodyIndex[A]];
    unsigned DB = IS.Depth[IS.BodyIndex[B]];
    return DA != DB ? DA < DB : A < B;
  });

  // Bodies (ascending), exit edges (by source node, then out-edge order)
  // and procedure-exit branches: each is recorded at the innermost loop of
  // its node and every enclosing loop it also belongs to.
  auto Enclosing = [&](NodeId H) { return IS.Parent[IS.BodyIndex[H]]; };
  IS.Bodies.resize(NumLoops);
  IS.ExitsOf.resize(NumLoops);
  for (NodeId N = 0; N < NumNodes; ++N) {
    for (NodeId H = IS.Hdr[N]; H != InvalidNode; H = Enclosing(H))
      IS.Bodies[IS.BodyIndex[H]].push_back(N);
    for (const CsrEdgeRef &S : View.succs(N))
      for (NodeId H = IS.Hdr[N]; H != InvalidNode && !IS.contains(H, S.Node);
           H = Enclosing(H))
        IS.ExitsOf[IS.BodyIndex[H]].push_back(S.Edge);
  }
  IS.ExitBranchesOf.resize(NumLoops);
  for (const Cfg::ExitBranch &B : C.exitBranches())
    for (NodeId H = IS.Hdr[B.Node]; H != InvalidNode; H = Enclosing(H))
      IS.ExitBranchesOf[IS.BodyIndex[H]].push_back(B);

  // Entry edges: in-edges of the header from outside the body.
  IS.Entries.resize(NumLoops);
  for (unsigned I = 0; I < NumLoops; ++I)
    for (const CsrEdgeRef &P : View.preds(HeaderOfLoop[I]))
      if (!IS.contains(HeaderOfLoop[I], P.Node))
        IS.Entries[I].push_back(P.Edge);

  return IS;
}

unsigned ptran::splitNodes(Cfg &C, DiagnosticEngine &Diags) {
  if (C.function()) {
    Diags.error("node splitting is only supported on synthetic CFGs");
    return 0;
  }
  unsigned Copies = 0;
  // Growth bound: give up rather than explode on adversarial graphs.
  unsigned MaxNodes = C.numNodes() * 8 + 16;

  while (!isReducible(CsrGraph(C.graph()).view(), C.entry())) {
    if (C.numNodes() > MaxNodes) {
      Diags.error("node splitting exceeded its growth budget");
      return Copies;
    }
    const Digraph &G = C.graph();
    CsrGraph Csr(G);
    DfsResult Dfs(Csr.view(), C.entry());
    DominatorTree Dom(Csr.view(), C.entry());

    // Find an offending retreating edge and split its target: the copy
    // takes over all offending retreating in-edges; both keep the
    // original's out-edges. This preserves all execution paths.
    NodeId Victim = InvalidNode;
    for (EdgeId E = 0; E < G.numEdgeSlots() && Victim == InvalidNode; ++E) {
      if (!G.isLive(E) || Dfs.edgeKind(E) != DfsEdgeKind::Retreating)
        continue;
      const Digraph::Edge &Ed = G.edge(E);
      if (!Dom.dominates(Ed.To, Ed.From))
        Victim = Ed.To;
    }
    assert(Victim != InvalidNode && "irreducible graph must have a witness");

    NodeId Copy = C.createNode(C.nodeType(Victim), C.origin(Victim));
    ++Copies;
    for (EdgeId E : G.outEdges(Victim))
      C.addEdge(Copy, G.edge(E).To, static_cast<CfgLabel>(G.edge(E).Label));
    for (EdgeId E : G.inEdges(Victim)) {
      if (Dfs.edgeKind(E) != DfsEdgeKind::Retreating)
        continue;
      const Digraph::Edge &Ed = G.edge(E);
      if (Dom.dominates(Victim, Ed.From))
        continue; // Well-formed back edge; leave it.
      C.addEdge(Ed.From, Copy, static_cast<CfgLabel>(Ed.Label));
      C.eraseEdge(E);
    }
  }
  return Copies;
}
