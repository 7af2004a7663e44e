//===--- cfg/Cfg.cpp - Statement-level control flow graph -----------------===//

#include "cfg/Cfg.h"

#include "graph/DepthFirst.h"
#include "ir/Printer.h"
#include "support/Casting.h"
#include "support/FatalError.h"

#include <sstream>

using namespace ptran;

std::string ptran::cfgLabelName(CfgLabel L) {
  switch (L) {
  case CfgLabel::U:
    return "U";
  case CfgLabel::T:
    return "T";
  case CfgLabel::F:
    return "F";
  case CfgLabel::Z:
    return "Z";
  default:
    break;
  }
  if (isCaseLabel(L))
    return "C" + std::to_string(caseIndex(L));
  PTRAN_UNREACHABLE("unknown CfgLabel");
}

const char *ptran::cfgNodeTypeName(CfgNodeType Ty) {
  switch (Ty) {
  case CfgNodeType::Start:
    return "START";
  case CfgNodeType::Stop:
    return "STOP";
  case CfgNodeType::Header:
    return "HEADER";
  case CfgNodeType::Preheader:
    return "PREHEADER";
  case CfgNodeType::Postexit:
    return "POSTEXIT";
  case CfgNodeType::Other:
    return "OTHER";
  case CfgNodeType::Iterate:
    return "ITERATE";
  }
  PTRAN_UNREACHABLE("unknown CfgNodeType");
}

NodeId Cfg::createNode(CfgNodeType Ty, StmtId Origin) {
  NodeId N = G.addNode();
  Types.push_back(Ty);
  Origins.push_back(Origin);
  return N;
}

NodeId Cfg::nodeForStmt(StmtId S) const {
  // buildCfg creates statement nodes first, in statement order.
  if (S < Origins.size() && Origins[S] == S)
    return S;
  for (NodeId N = 0; N < Origins.size(); ++N)
    if (Origins[N] == S)
      return N;
  return InvalidNode;
}

std::string Cfg::nodeName(NodeId N) const { return NodeNamer(*this)(N); }

NodeNamer::NodeNamer(const Cfg &C) : C(C) {
  if (C.function())
    Print.emplace(*C.function());
}

std::string NodeNamer::operator()(NodeId N) const {
  switch (C.nodeType(N)) {
  case CfgNodeType::Start:
    return "START";
  case CfgNodeType::Stop:
    return "STOP";
  case CfgNodeType::Preheader:
    return "PH" + std::to_string(N);
  case CfgNodeType::Postexit:
    return "PE" + std::to_string(N);
  case CfgNodeType::Iterate:
    return "IT" + std::to_string(N);
  case CfgNodeType::Header:
  case CfgNodeType::Other:
    break;
  }
  std::string Name = "S" + std::to_string(N);
  if (Print && C.origin(N) != InvalidStmt) {
    const Stmt *S = C.function()->stmt(C.origin(N));
    Name += ": ";
    if (S->label() != 0)
      Name += std::to_string(S->label()) + " ";
    Name += (*Print)(S);
  }
  return Name;
}

std::string Cfg::dot(std::string_view Title) const {
  std::ostringstream OS;
  OS << "digraph \"" << Title << "\" {\n";
  OS << "  node [shape=box, fontname=\"monospace\"];\n";
  NodeNamer Name(*this);
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    OS << "  n" << N << " [label=\"" << Name(N) << "\"";
    if (Types[N] != CfgNodeType::Other && Types[N] != CfgNodeType::Header)
      OS << ", style=dashed";
    if (Types[N] == CfgNodeType::Header)
      OS << ", peripheries=2";
    OS << "];\n";
  }
  for (EdgeId E = 0; E < G.numEdgeSlots(); ++E) {
    if (!G.isLive(E))
      continue;
    const Digraph::Edge &Ed = G.edge(E);
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

Cfg ptran::buildCfg(const Function &F) {
  assert(F.isFinalized() && "CFG construction requires a finalized function");
  Cfg C(&F);

  // One node per statement, ids aligned with StmtIds.
  for (StmtId S = 0; S < F.numStmts(); ++S) {
    CfgNodeType Ty = CfgNodeType::Other;
    C.createNode(Ty, S);
  }
  if (F.numStmts() == 0)
    return C;
  C.setEntry(0);

  auto HasNext = [&](StmtId S) { return S + 1 < F.numStmts(); };

  for (StmtId S = 0; S < F.numStmts(); ++S) {
    const Stmt *St = F.stmt(S);
    switch (St->kind()) {
    case StmtKind::Assign:
    case StmtKind::Continue:
    case StmtKind::Call:
    case StmtKind::Print:
      if (HasNext(S))
        C.addEdge(S, S + 1, CfgLabel::U);
      else
        C.addExitBranch(S, CfgLabel::U);
      break;
    case StmtKind::Goto:
      C.addEdge(S, cast<GotoStmt>(St)->target(), CfgLabel::U);
      break;
    case StmtKind::ComputedGoto: {
      const auto *Cg = cast<ComputedGotoStmt>(St);
      for (size_t K = 0; K < Cg->targets().size(); ++K)
        C.addEdge(S, Cg->targets()[K],
                  caseLabel(static_cast<unsigned>(K) + 1));
      // An out-of-range index falls through (Fortran-77 semantics).
      if (HasNext(S))
        C.addEdge(S, S + 1, CfgLabel::U);
      else
        C.addExitBranch(S, CfgLabel::U);
      break;
    }
    case StmtKind::IfGoto: {
      const auto *If = cast<IfGotoStmt>(St);
      C.addEdge(S, If->target(), CfgLabel::T);
      if (HasNext(S))
        C.addEdge(S, S + 1, CfgLabel::F);
      else
        C.addExitBranch(S, CfgLabel::F);
      break;
    }
    case StmtKind::DoStart: {
      const auto *Do = cast<DoStmt>(St);
      assert(Do->matchingEnd() != InvalidStmt && "unmatched DO");
      // T: enter/continue the loop body; F: trip count exhausted.
      if (HasNext(S))
        C.addEdge(S, S + 1, CfgLabel::T);
      else
        PTRAN_UNREACHABLE("DO statement cannot be last (needs its ENDDO)");
      StmtId AfterLoop = Do->matchingEnd() + 1;
      if (AfterLoop < F.numStmts())
        C.addEdge(S, AfterLoop, CfgLabel::F);
      else
        C.addExitBranch(S, CfgLabel::F);
      break;
    }
    case StmtKind::DoEnd:
      C.addEdge(S, cast<EndDoStmt>(St)->matchingDo(), CfgLabel::U);
      break;
    case StmtKind::Return:
      C.addExitBranch(S, CfgLabel::U);
      break;
    }
  }
  return C;
}

unsigned ptran::elideGotoNodes(Cfg &C) {
  const Function *F = C.function();
  if (!F)
    return 0;
  unsigned Elided = 0;
  const Digraph &G = C.graph();

  // Resolve the final destination of a GOTO chain (guarding against cycles
  // of GOTOs, which are simply left in place).
  auto IsGotoNode = [&](NodeId N) {
    StmtId S = C.origin(N);
    return S != InvalidStmt && isa<GotoStmt>(F->stmt(S));
  };
  auto ChainTarget = [&](NodeId N) -> NodeId {
    std::vector<bool> Seen(G.numNodes(), false);
    NodeId Cur = N;
    while (IsGotoNode(Cur)) {
      if (Seen[Cur])
        return InvalidNode; // GOTO cycle; leave untouched.
      Seen[Cur] = true;
      std::vector<NodeId> Succs = G.successors(Cur);
      assert(Succs.size() == 1 && "GOTO nodes have exactly one successor");
      Cur = Succs[0];
    }
    return Cur;
  };

  for (NodeId N = 0; N < G.numNodes(); ++N) {
    if (!IsGotoNode(N))
      continue;
    NodeId Target = ChainTarget(N);
    if (Target == InvalidNode)
      continue;
    // Redirect all in-edges past this GOTO, preserving their labels.
    for (EdgeId In : G.inEdges(N)) {
      const Digraph::Edge &Ed = G.edge(In);
      C.addEdge(Ed.From, Target, static_cast<CfgLabel>(Ed.Label));
      C.eraseEdge(In);
    }
    // Detach the GOTO's own out-edge.
    for (EdgeId Out : G.outEdges(N))
      C.eraseEdge(Out);
    if (C.entry() == N)
      C.setEntry(Target);
    ++Elided;
  }
  return Elided;
}

std::vector<std::vector<NodeId>>
ptran::computeBasicBlocks(const Cfg &C) {
  const Digraph &G = C.graph();
  unsigned N = G.numNodes();

  // A node is a block leader unless it has exactly one predecessor and
  // that predecessor has exactly one successor (both counting live edges).
  std::vector<bool> Leader(N, true);
  for (NodeId Node = 0; Node < N; ++Node) {
    std::vector<NodeId> Preds = G.predecessors(Node);
    if (Preds.size() == 1 && G.outDegree(Preds[0]) == 1 &&
        Node != C.entry() && Preds[0] != Node)
      Leader[Node] = false;
  }

  std::vector<std::vector<NodeId>> Blocks;
  std::vector<bool> Assigned(N, false);
  for (NodeId Node = 0; Node < N; ++Node) {
    if (!Leader[Node] || Assigned[Node])
      continue;
    // Detached nodes (e.g. elided GOTOs) do not form blocks.
    if (Node != C.entry() && G.inDegree(Node) == 0 && G.outDegree(Node) == 0 &&
        C.origin(Node) != InvalidStmt && C.numNodes() > 1) {
      // Still give isolated-but-real nodes a singleton block, except for
      // elided ones that have been fully detached.
      bool WasElided = false;
      if (const Function *F = C.function())
        WasElided = F->stmt(C.origin(Node))->kind() == StmtKind::Goto;
      if (WasElided) {
        Assigned[Node] = true;
        continue;
      }
    }
    std::vector<NodeId> Block;
    NodeId Cur = Node;
    while (true) {
      Block.push_back(Cur);
      Assigned[Cur] = true;
      std::vector<NodeId> Succs = G.successors(Cur);
      if (Succs.size() != 1)
        break;
      NodeId Next = Succs[0];
      if (Leader[Next] || Assigned[Next])
        break;
      Cur = Next;
    }
    Blocks.push_back(std::move(Block));
  }
  return Blocks;
}
