//===--- ecfg/Ecfg.cpp - Extended control flow graph ----------------------===//

#include "ecfg/Ecfg.h"

#include "graph/DepthFirst.h"
#include "support/FatalError.h"

#include <cassert>

using namespace ptran;

const Ecfg::PostexitInfo *Ecfg::postexitInfo(NodeId Pe) const {
  if (Pe >= PostexitIndexOfNode.size() ||
      PostexitIndexOfNode[Pe] == NoPostexit)
    return nullptr;
  return &Postexits[PostexitIndexOfNode[Pe]];
}

Ecfg ptran::buildEcfg(const Cfg &C, const IntervalStructure &IS) {
  Ecfg Result;
  Cfg &E = Result.E;
  E = Cfg(C.function());
  Result.NumOriginal = C.numNodes();

  // Step 1: copy nodes (ids preserved) and remember the original edges.
  for (NodeId N = 0; N < C.numNodes(); ++N) {
    CfgNodeType Ty = IS.isHeader(N) ? CfgNodeType::Header : C.nodeType(N);
    E.createNode(Ty, C.origin(N));
  }
  E.setEntry(C.entry());

  Result.PreheaderOfNode.assign(C.numNodes(), InvalidNode);

  // Step 2(a,c): a preheader per header, with its unconditional edge.
  for (NodeId H : IS.headers()) {
    NodeId Ph = E.createNode(CfgNodeType::Preheader);
    Result.PreheaderOfNode[H] = Ph;
    Result.HeaderOfNode.resize(E.numNodes(), InvalidNode);
    Result.HeaderOfNode[Ph] = H;
    E.addEdge(Ph, H, CfgLabel::U);
  }

  auto PreheaderOf = [&](NodeId H) {
    NodeId Ph = Result.PreheaderOfNode[H];
    assert(Ph != InvalidNode && "header without preheader");
    return Ph;
  };

  // Helper implementing step 3(a-c) for one exit branch out of \p From
  // with \p Label, continuing to \p Continuation (a node, a preheader, or
  // STOP once it exists). Returns the postexit node.
  auto MakePostexit = [&](NodeId From, CfgLabel Label, NodeId Continuation,
                          NodeId OrigTo) {
    NodeId ExitedHeader = IS.hdr(From);
    assert(ExitedHeader != InvalidNode && "postexits only for loop exits");
    NodeId Pe = E.createNode(CfgNodeType::Postexit);
    Result.HeaderOfNode.resize(E.numNodes(), InvalidNode);
    E.addEdge(From, Pe, Label);
    E.addEdge(Pe, Continuation, CfgLabel::U);
    E.addEdge(PreheaderOf(ExitedHeader), Pe, CfgLabel::Z);
    Result.PostexitIndexOfNode.resize(E.numNodes(), Ecfg::NoPostexit);
    Result.PostexitIndexOfNode[Pe] =
        static_cast<unsigned>(Result.Postexits.size());
    Result.Postexits.push_back({Pe, From, OrigTo, Label, ExitedHeader});
    return Pe;
  };

  // Steps 2(b) and 3: route every original edge, diverting interval
  // entries through preheaders and splitting interval exits at postexits.
  const Digraph &G = C.graph();
  for (EdgeId OrigE = 0; OrigE < G.numEdgeSlots(); ++OrigE) {
    if (!G.isLive(OrigE))
      continue;
    const Digraph::Edge &Ed = G.edge(OrigE);
    NodeId U = Ed.From;
    NodeId V = Ed.To;
    CfgLabel L = static_cast<CfgLabel>(Ed.Label);

    // Interval entry: HDR_LCA(HDR(u), v) != v, i.e. u outside v's body.
    bool IsEntry = IS.isHeader(V) && !IS.contains(V, U);
    // Interval exit: HDR_LCA(HDR(u), HDR(v)) != HDR(u), i.e. u's innermost
    // interval does not contain v.
    NodeId Hu = IS.hdr(U);
    bool IsExit = Hu != InvalidNode && !IS.contains(Hu, V);

    NodeId Continuation = IsEntry ? PreheaderOf(V) : V;
    if (IsExit)
      MakePostexit(U, L, Continuation, V);
    else
      E.addEdge(U, Continuation, L);
  }

  // A synthetic, isolated ITERATE node per loop (used by the forward
  // control dependence construction; see Ecfg::iterateOf).
  Result.IterateOfNode.assign(C.numNodes(), InvalidNode);
  for (NodeId H : IS.headers()) {
    NodeId It = E.createNode(CfgNodeType::Iterate);
    Result.IterateOfNode[H] = It;
    Result.IterateHeaderOfNode.resize(E.numNodes(), InvalidNode);
    Result.IterateHeaderOfNode[It] = H;
  }

  // Steps 4-6: START and STOP with the pseudo edge between them.
  NodeId Start = E.createNode(CfgNodeType::Start);
  NodeId Stop = E.createNode(CfgNodeType::Stop);
  Result.HeaderOfNode.resize(E.numNodes(), InvalidNode);
  Result.IterateHeaderOfNode.resize(E.numNodes(), InvalidNode);
  Result.Start = Start;
  Result.Stop = Stop;

  NodeId FirstNode = C.entry();
  // Entering at a loop header is an interval entry like any other.
  if (FirstNode != InvalidNode) {
    if (IS.isHeader(FirstNode))
      E.addEdge(Start, PreheaderOf(FirstNode), CfgLabel::U);
    else
      E.addEdge(Start, FirstNode, CfgLabel::U);
  }

  for (const Cfg::ExitBranch &B : C.exitBranches()) {
    // A procedure exit taken inside a loop leaves that interval: split it
    // with a postexit so the FCDG nesting holds.
    if (IS.hdr(B.Node) != InvalidNode)
      MakePostexit(B.Node, B.Label, Stop, InvalidNode);
    else
      E.addEdge(B.Node, Stop, B.Label);
  }

  E.addEdge(Start, Stop, CfgLabel::Z);
  E.setEntry(Start);
  return Result;
}

bool ptran::verifyEcfg(const Ecfg &Ext, const Cfg &C,
                       const IntervalStructure &IS, DiagnosticEngine &Diags) {
  unsigned Before = Diags.errorCount();
  const Cfg &E = Ext.cfg();
  const Digraph &G = E.graph();

  auto Error = [&](std::string Message) { Diags.error(std::move(Message)); };

  // Every header has a preheader whose sole non-pseudo out-edge is the
  // unconditional edge to the header.
  for (NodeId H : IS.headers()) {
    NodeId Ph = Ext.preheaderOf(H);
    if (Ph == InvalidNode) {
      Error("header " + C.nodeName(H) + " has no preheader");
      continue;
    }
    if (E.nodeType(Ph) != CfgNodeType::Preheader)
      Error("preheader node has wrong type");
    bool FoundU = false;
    for (EdgeId Out : G.outEdges(Ph)) {
      const Digraph::Edge &Ed = G.edge(Out);
      CfgLabel L = static_cast<CfgLabel>(Ed.Label);
      if (L == CfgLabel::U) {
        if (Ed.To != H)
          Error("preheader U edge does not target its header");
        FoundU = true;
      } else if (L != CfgLabel::Z) {
        Error("preheader has an out-edge that is neither U nor Z");
      } else if (E.nodeType(Ed.To) != CfgNodeType::Postexit) {
        Error("preheader pseudo edge does not target a postexit");
      }
    }
    if (!FoundU)
      Error("preheader lacks its unconditional edge to the header");

    // In the ECFG, the header's only non-latch predecessor is the
    // preheader: every original entry edge was rerouted.
    for (EdgeId In : G.inEdges(H)) {
      NodeId P = G.edge(In).From;
      if (P == Ph)
        continue;
      if (P < Ext.numOriginalNodes() && !IS.contains(H, P))
        Error("interval entry edge into " + C.nodeName(H) +
              " was not rerouted through the preheader");
    }
  }

  // Postexits: one in-edge from the exiting node, one pseudo in-edge from
  // the right preheader, one U out-edge.
  for (const Ecfg::PostexitInfo &Info : Ext.postexits()) {
    if (E.nodeType(Info.Postexit) != CfgNodeType::Postexit) {
      Error("postexit node has wrong type");
      continue;
    }
    unsigned RealIn = 0, PseudoIn = 0;
    for (EdgeId In : G.inEdges(Info.Postexit)) {
      const Digraph::Edge &Ed = G.edge(In);
      if (static_cast<CfgLabel>(Ed.Label) == CfgLabel::Z) {
        ++PseudoIn;
        if (Ed.From != Ext.preheaderOf(Info.ExitedHeader))
          Error("postexit pseudo edge comes from the wrong preheader");
      } else {
        ++RealIn;
        if (Ed.From != Info.From)
          Error("postexit real in-edge comes from the wrong node");
      }
    }
    if (RealIn != 1 || PseudoIn != 1)
      Error("postexit must have exactly one real and one pseudo in-edge");
    if (G.outDegree(Info.Postexit) != 1)
      Error("postexit must have exactly one out-edge");
  }

  // START has a U edge into the procedure and the pseudo edge to STOP.
  bool StartToStop = false;
  for (EdgeId Out : G.outEdges(Ext.start())) {
    const Digraph::Edge &Ed = G.edge(Out);
    if (static_cast<CfgLabel>(Ed.Label) == CfgLabel::Z) {
      if (Ed.To != Ext.stop())
        Error("START pseudo edge does not target STOP");
      StartToStop = true;
    }
  }
  if (!StartToStop)
    Error("missing START -> STOP pseudo edge");

  // Every node of the original CFG that was reachable stays reachable
  // from START.
  DfsResult OrigDfs(CsrGraph(C.graph()).view(), C.entry());
  DfsResult ExtDfs(CsrGraph(G).view(), Ext.start());
  for (NodeId N = 0; N < C.numNodes(); ++N)
    if (OrigDfs.isReachable(N) && !ExtDfs.isReachable(N))
      Error("node " + C.nodeName(N) + " lost reachability in the ECFG");

  return Diags.errorCount() == Before;
}
