//===--- ecfg/Ecfg.h - Extended control flow graph --------------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The extended control flow graph (ECFG) of Section 2: the original CFG
/// augmented with
///
///   - a PREHEADER node per interval (loop), with every interval-entry
///     edge rerouted through it and an unconditional edge to the header;
///   - a POSTEXIT node per interval-exit edge, splitting the exit, plus a
///     pseudo (Z) edge from the exiting interval's preheader to it;
///   - START and STOP nodes bracketing the procedure, with a pseudo edge
///     START -> STOP.
///
/// The pseudo edges are never taken at run time; they exist so that the
/// forward control dependence graph becomes rooted at START and nests
/// every interval under its preheader (Figure 3).
///
/// Two deliberate generalizations of the paper's step 4/5 (documented in
/// DESIGN.md): the START edge is routed through the entry's preheader when
/// the first statement itself heads a loop, and procedure exits taken from
/// inside a loop (e.g. RETURN in a loop) get a POSTEXIT like any other
/// interval exit. Both are required for the FCDG's interval nesting to
/// hold on such programs.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_ECFG_ECFG_H
#define PTRAN_ECFG_ECFG_H

#include "cfg/Cfg.h"
#include "interval/Intervals.h"

namespace ptran {

/// The extended CFG. Nodes 0 .. numOriginalNodes()-1 coincide with the
/// nodes of the source CFG; synthesized nodes follow.
class Ecfg {
public:
  const Cfg &cfg() const { return E; }
  Cfg &cfgMutable() { return E; }

  NodeId start() const { return Start; }
  NodeId stop() const { return Stop; }

  /// Number of nodes shared with the original CFG.
  unsigned numOriginalNodes() const { return NumOriginal; }

  /// The preheader of header \p H, or InvalidNode.
  NodeId preheaderOf(NodeId H) const {
    return H < PreheaderOfNode.size() ? PreheaderOfNode[H] : InvalidNode;
  }

  /// The header served by preheader \p Ph, or InvalidNode.
  NodeId headerOf(NodeId Ph) const {
    return Ph < HeaderOfNode.size() ? HeaderOfNode[Ph] : InvalidNode;
  }

  /// The synthetic ITERATE node of header \p H, or InvalidNode. Iterate
  /// nodes are isolated in the ECFG itself; only the forward control
  /// dependence construction wires them up.
  NodeId iterateOf(NodeId H) const {
    return H < IterateOfNode.size() ? IterateOfNode[H] : InvalidNode;
  }

  /// The header whose ITERATE node is \p It, or InvalidNode.
  NodeId iterateHeaderOf(NodeId It) const {
    return It < IterateHeaderOfNode.size() ? IterateHeaderOfNode[It]
                                           : InvalidNode;
  }

  /// Description of one POSTEXIT node.
  struct PostexitInfo {
    NodeId Postexit = InvalidNode;
    /// Source node of the split exit.
    NodeId From = InvalidNode;
    /// Destination of the exit; InvalidNode when the exit leaves the
    /// procedure (connected to STOP).
    NodeId To = InvalidNode;
    /// Label of the original exit branch.
    CfgLabel Label = CfgLabel::U;
    /// Header of the (innermost) interval being exited.
    NodeId ExitedHeader = InvalidNode;
  };
  const std::vector<PostexitInfo> &postexits() const { return Postexits; }

  /// \returns the PostexitInfo of node \p Pe, or null. O(1).
  const PostexitInfo *postexitInfo(NodeId Pe) const;

  friend Ecfg buildEcfg(const Cfg &C, const IntervalStructure &IS);

private:
  Cfg E;
  NodeId Start = InvalidNode;
  NodeId Stop = InvalidNode;
  unsigned NumOriginal = 0;
  std::vector<NodeId> PreheaderOfNode;
  std::vector<NodeId> HeaderOfNode;
  std::vector<NodeId> IterateOfNode;
  std::vector<NodeId> IterateHeaderOfNode;
  std::vector<PostexitInfo> Postexits;
  static constexpr unsigned NoPostexit = static_cast<unsigned>(-1);
  /// Per node: index into Postexits, or NoPostexit.
  std::vector<unsigned> PostexitIndexOfNode;
};

/// Builds the ECFG of \p C per the algorithm in Section 2 of the paper.
/// \p IS must have been computed on \p C.
Ecfg buildEcfg(const Cfg &C, const IntervalStructure &IS);

/// Checks the structural invariants listed in the file comment. Reports
/// violations to \p Diags; \returns true when all hold.
bool verifyEcfg(const Ecfg &E, const Cfg &C, const IntervalStructure &IS,
                DiagnosticEngine &Diags);

} // namespace ptran

#endif // PTRAN_ECFG_ECFG_H
