//===--- cdg/ControlDependence.cpp - (Forward) control dependence ---------===//

#include "cdg/ControlDependence.h"

#include "graph/DepthFirst.h"
#include "support/FatalError.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <sstream>
#include <tuple>

using namespace ptran;

namespace {

/// Builds the forward ECFG: the ECFG minus interval back edges, with any
/// node left successor-free (a dangling latch) connected to STOP so the
/// postdominator tree stays rooted.
Digraph buildForwardGraph(const Ecfg &E, const IntervalStructure &IS) {
  const Digraph &G = E.cfg().graph();
  Digraph Forward(G.numNodes());
  unsigned NumOrig = E.numOriginalNodes();

  // Where a node "logically sits" for back-edge classification: postexits
  // inherit the position of the node whose exit they split (an edge that
  // leaves an inner loop and re-enters an outer header is that outer
  // loop's latch, and in the ECFG its source is a postexit).
  auto Anchor = [&](NodeId N) -> NodeId {
    if (N < NumOrig)
      return N;
    if (const Ecfg::PostexitInfo *Info = E.postexitInfo(N))
      return Info->From;
    return InvalidNode;
  };

  for (EdgeId EId = 0; EId < G.numEdgeSlots(); ++EId) {
    if (!G.isLive(EId))
      continue;
    const Digraph::Edge &Ed = G.edge(EId);
    // Interval back edge: a latch inside the body targeting its header.
    // Re-target it at the loop's ITERATE node: the per-iteration view
    // ends there, and the iterate node's pseudo edges below stand for
    // "some later iteration exits the loop".
    NodeId From = Anchor(Ed.From);
    bool IsBack = Ed.To < NumOrig && From != InvalidNode &&
                  IS.isHeader(Ed.To) && IS.contains(Ed.To, From);
    if (IsBack) {
      NodeId It = E.iterateOf(Ed.To);
      assert(It != InvalidNode && "header without an iterate node");
      Forward.addEdge(Ed.From, It, Ed.Label);
      continue;
    }
    Forward.addEdge(Ed.From, Ed.To, Ed.Label);
  }

  // Pseudo edges from each loop's iterate node to every postexit through
  // which control can leave that loop (including exits of inner loops
  // that jump past this one). These carry zero frequency but make code
  // following the loop postdominate the entire body, so it hangs under
  // the enclosing context in the FCDG — exactly Figure 3's shape, where
  // the final CONTINUE is control dependent on START.
  //
  // The loops a postexit leaves are those containing its source but not
  // its destination: a chain from HDR(source) up the header tree that
  // stops at the first loop containing the destination. One walk per
  // postexit, O(postexits × depth), fills per-header buckets in postexit
  // order; emitting the buckets in headers() order keeps the edge order
  // of a header-by-header scan over all postexits.
  std::vector<std::vector<NodeId>> Leaving(NumOrig);
  for (const Ecfg::PostexitInfo &Info : E.postexits())
    for (NodeId H = IS.hdr(Info.From);
         H != InvalidNode &&
         (Info.To == InvalidNode || !IS.contains(H, Info.To));
         H = IS.hdrParent(H))
      Leaving[H].push_back(Info.Postexit);
  for (NodeId H : IS.headers()) {
    NodeId It = E.iterateOf(H);
    for (NodeId Pe : Leaving[H])
      Forward.addEdge(It, Pe, static_cast<LabelId>(CfgLabel::Z));
    if (Leaving[H].empty()) // No way out (the paper assumes termination).
      Forward.addEdge(It, E.stop(), static_cast<LabelId>(CfgLabel::Z));
  }

  // Safety net: any node left without successors (cannot happen for
  // well-formed ECFGs) keeps the postdominator tree rooted.
  for (NodeId N = 0; N < Forward.numNodes(); ++N)
    if (N != E.stop() && Forward.outDegree(N) == 0 && G.outDegree(N) > 0)
      Forward.addEdge(N, E.stop(), static_cast<LabelId>(CfgLabel::U));
  return Forward;
}

} // namespace

ControlDependence::ControlDependence(const Ecfg &E,
                                     const IntervalStructure &IS)
    : ForwardG(buildForwardGraph(E, IS)),
      FcdgGraph(E.cfg().graph().numNodes()),
      Pdt(CsrGraph(ForwardG).view(), E.stop(),
          DominatorTree::Direction::Post) {
  // FOW over the forward graph: for every edge (A, B, l) where B does not
  // postdominate A, every node on the postdominator-tree path
  // [B .. ipostdom(A)) is control dependent on (A, l). Two same-labelled
  // edges from one node (a preheader's or an ITERATE node's pseudo Z
  // edges) may generate the same dependence; each (A, Y, l) triple is kept
  // once. A single edge's walk never repeats a node, so only walks from
  // such nodes consult the set of emitted triples.
  CsrGraph ForwardCsr(ForwardG);
  std::vector<bool> RepeatsLabel(ForwardG.numNodes(), false);
  for (NodeId N = 0; N < ForwardG.numNodes(); ++N) {
    GraphView::Range Out = ForwardCsr.view().succs(N);
    for (size_t I = 1; I < Out.size() && !RepeatsLabel[N]; ++I)
      for (size_t J = 0; J < I; ++J)
        if (Out[I].Label == Out[J].Label)
          RepeatsLabel[N] = true;
  }
  std::set<std::tuple<NodeId, NodeId, LabelId>> Emitted;
  Digraph Cdg(ForwardG.numNodes());
  for (EdgeId EId = 0; EId < ForwardG.numEdgeSlots(); ++EId) {
    const Digraph::Edge &Ed = ForwardG.edge(EId);
    if (!Pdt.isReachable(Ed.From) || !Pdt.isReachable(Ed.To))
      continue;
    if (Pdt.dominates(Ed.To, Ed.From))
      continue;
    NodeId Fence = Pdt.idom(Ed.From);
    for (NodeId Y = Ed.To; Y != Fence; Y = Pdt.idom(Y)) {
      assert(Y != InvalidNode &&
             "walked past the postdominator root; fence must be an ancestor");
      if (!RepeatsLabel[Ed.From] ||
          Emitted.insert({Ed.From, Y, Ed.Label}).second)
        Cdg.addEdge(Ed.From, Y, Ed.Label);
    }
  }

  // The forward graph is acyclic, and so is its control dependence; the
  // DFS filter below is a safety net only (it also drops dependence edges
  // not reachable from START, e.g. inside code that cannot reach STOP).
  DfsResult Dfs(CsrGraph(Cdg).view(), E.start());
  for (EdgeId EId = 0; EId < Cdg.numEdgeSlots(); ++EId) {
    const Digraph::Edge &Ed = Cdg.edge(EId);
    DfsEdgeKind Kind = Dfs.edgeKind(EId);
    if (Kind == DfsEdgeKind::Retreating || Kind == DfsEdgeKind::Unreached)
      continue;
    FcdgGraph.addEdge(Ed.From, Ed.To, Ed.Label);
  }

  CsrGraph FcdgCsr(FcdgGraph);
  std::optional<std::vector<NodeId>> Order =
      topologicalOrder(FcdgCsr.view());
  if (!Order)
    reportFatalError("forward control dependence graph is cyclic");

  // Keep only nodes reachable from START in the FCDG, in topological
  // order; isolated nodes (e.g. STOP) carry no estimation state.
  DfsResult FDfs(FcdgCsr.view(), E.start());
  Arena.PosOf.assign(FcdgGraph.numNodes(), FlowArena::InvalidPosition);
  for (NodeId N : *Order)
    if (FDfs.isReachable(N))
      Arena.Nodes.push_back(N);
  for (unsigned P = 0; P < Arena.Nodes.size(); ++P)
    Arena.PosOf[Arena.Nodes[P]] = P;

  // Freeze the FCDG's out-edges into the arena. Per node: label groups in
  // first-appearance order with children in insertion order (the
  // labelsOf/childrenOf contract), plus the raw insertion-order edge list
  // (the equation-3 accumulation order). Children are stored as topo
  // positions so the sweeps index dense position-based buffers directly.
  unsigned NumPos = Arena.numPositions();
  Arena.GroupBegin.assign(NumPos + 1, 0);
  Arena.RawBegin.assign(NumPos + 1, 0);
  struct LocalGroup {
    CfgLabel Label;
    uint32_t Count;
    uint32_t Global;
  };
  std::vector<LocalGroup> Local;
  std::vector<uint32_t> Fill;
  for (unsigned P = 0; P < NumPos; ++P) {
    NodeId U = Arena.Nodes[P];
    Local.clear();
    GraphView::Range Out = FcdgCsr.view().succs(U);
    for (const CsrEdgeRef &Ed : Out) {
      CfgLabel L = static_cast<CfgLabel>(Ed.Label);
      auto It = std::find_if(Local.begin(), Local.end(),
                             [&](const LocalGroup &G) {
                               return G.Label == L;
                             });
      if (It == Local.end())
        Local.push_back({L, 1, 0});
      else
        ++It->Count;
    }
    uint32_t ChildCursor = static_cast<uint32_t>(Arena.Children.size());
    Fill.clear();
    for (LocalGroup &G : Local) {
      G.Global = static_cast<uint32_t>(Arena.Groups.size());
      Arena.Groups.push_back({G.Label, ChildCursor, ChildCursor + G.Count});
      Fill.push_back(ChildCursor);
      ChildCursor += G.Count;
    }
    Arena.Children.resize(ChildCursor);
    for (const CsrEdgeRef &Ed : Out) {
      CfgLabel L = static_cast<CfgLabel>(Ed.Label);
      auto It = std::find_if(Local.begin(), Local.end(),
                             [&](const LocalGroup &G) {
                               return G.Label == L;
                             });
      assert(It != Local.end());
      unsigned LocalIdx = static_cast<unsigned>(It - Local.begin());
      unsigned ChildPos = Arena.PosOf[Ed.Node];
      assert(ChildPos != FlowArena::InvalidPosition &&
             "FCDG edge target must be START-reachable");
      Arena.Children[Fill[LocalIdx]++] = ChildPos;
      Arena.Raw.push_back({Ed.Node, It->Global});
    }
    Arena.GroupBegin[P + 1] = static_cast<uint32_t>(Arena.Groups.size());
    Arena.RawBegin[P + 1] = static_cast<uint32_t>(Arena.Raw.size());
  }

  // Enumerate control conditions.
  for (EdgeId EId = 0; EId < FcdgGraph.numEdgeSlots(); ++EId) {
    if (!FcdgGraph.isLive(EId))
      continue;
    const Digraph::Edge &Ed = FcdgGraph.edge(EId);
    Conds.push_back({Ed.From, static_cast<CfgLabel>(Ed.Label)});
  }
  std::sort(Conds.begin(), Conds.end());
  Conds.erase(std::unique(Conds.begin(), Conds.end()), Conds.end());
}

std::vector<NodeId> ControlDependence::childrenOf(NodeId U,
                                                  CfgLabel L) const {
  std::vector<NodeId> Kids;
  for (EdgeId EId : FcdgGraph.outEdges(U)) {
    const Digraph::Edge &Ed = FcdgGraph.edge(EId);
    if (static_cast<CfgLabel>(Ed.Label) == L)
      Kids.push_back(Ed.To);
  }
  return Kids;
}

std::string ControlDependence::dot(const Cfg &Ecfg,
                                   std::string_view Title) const {
  std::ostringstream OS;
  OS << "digraph \"" << Title << "\" {\n";
  OS << "  node [shape=box, fontname=\"monospace\"];\n";
  NodeNamer Name(Ecfg);
  for (NodeId N : Arena.Nodes) {
    OS << "  n" << N << " [label=\"" << Name(N) << "\"";
    CfgNodeType Ty = Ecfg.nodeType(N);
    if (Ty != CfgNodeType::Other && Ty != CfgNodeType::Header)
      OS << ", style=dashed";
    OS << "];\n";
  }
  for (EdgeId E = 0; E < FcdgGraph.numEdgeSlots(); ++E) {
    if (!FcdgGraph.isLive(E))
      continue;
    const Digraph::Edge &Ed = FcdgGraph.edge(E);
    CfgLabel L = static_cast<CfgLabel>(Ed.Label);
    OS << "  n" << Ed.From << " -> n" << Ed.To << " [label=\""
       << cfgLabelName(L) << "\"";
    if (L == CfgLabel::Z)
      OS << ", style=dashed";
    OS << "];\n";
  }
  OS << "}\n";
  return OS.str();
}

std::vector<CfgLabel> ControlDependence::labelsOf(NodeId U) const {
  std::vector<CfgLabel> Labels;
  for (EdgeId EId : FcdgGraph.outEdges(U)) {
    CfgLabel L = static_cast<CfgLabel>(FcdgGraph.edge(EId).Label);
    if (std::find(Labels.begin(), Labels.end(), L) == Labels.end())
      Labels.push_back(L);
  }
  return Labels;
}
