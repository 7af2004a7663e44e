//===--- profile/ProfileRuntime.cpp - Counter runtime ---------------------===//

#include "profile/ProfileRuntime.h"

#include "support/FatalError.h"
#include "support/FaultInjection.h"

#include <cassert>

using namespace ptran;

//===----------------------------------------------------------------------===//
// ProfileRuntime
//===----------------------------------------------------------------------===//

ProfileRuntime::ProfileRuntime(const ProgramAnalysis &PA,
                               const ProgramPlan &Plan, const CostModel &CM,
                               ObsRegistry *Obs)
    : PA(PA), Plan(Plan), CM(CM), Obs(Obs),
      Counters(Plan.totalCounters(), 0.0) {
  for (const auto &[F, FA] : PA.all()) {
    const FunctionPlan &FP = Plan.of(*F);
    unsigned Base = Plan.offsetOf(*F);
    SiteTables T;
    T.OnStmt.resize(F->numStmts());
    T.OnEdge.resize(F->numStmts());
    T.OnDoEntry.resize(F->numStmts());
    for (unsigned CId = 0; CId < FP.numCounters(); ++CId) {
      unsigned Global = Base + CId;
      for (const CounterSite &Site : FP.counters()[CId].Sites) {
        switch (Site.K) {
        case CounterSite::Kind::Statement:
          assert(Site.S < F->numStmts() && "site statement out of range");
          T.OnStmt[Site.S].push_back(Global);
          break;
        case CounterSite::Kind::Edge:
          assert(Site.S < F->numStmts() && "site statement out of range");
          T.OnEdge[Site.S].push_back({Site.Label, Global});
          break;
        case CounterSite::Kind::ProcEntry:
          T.OnProcEntry.push_back(Global);
          break;
        case CounterSite::Kind::DoLoopEntryAdd:
          assert(Site.S < F->numStmts() && "site statement out of range");
          T.OnDoEntry[Site.S].push_back({Global, Site.Bias});
          break;
        }
      }
    }
    Tables.emplace(F, std::move(T));
  }
}

const ProfileRuntime::SiteTables &
ProfileRuntime::tablesFor(const Function &F) const {
  auto It = Tables.find(&F);
  if (It == Tables.end())
    reportFatalError("profiling a function without a plan: " + F.name());
  return It->second;
}

void ProfileRuntime::onProcedureEntry(const Function &F, unsigned) {
  for (unsigned C : tablesFor(F).OnProcEntry) {
    Counters[C] += 1.0;
    ++Increments;
  }
}

void ProfileRuntime::onStatement(const Function &F, StmtId S, unsigned) {
  for (unsigned C : tablesFor(F).OnStmt[S]) {
    Counters[C] += 1.0;
    ++Increments;
  }
}

void ProfileRuntime::onTransfer(const Function &F, StmtId From, CfgLabel L,
                                StmtId, unsigned) {
  for (const auto &[Label, C] : tablesFor(F).OnEdge[From]) {
    if (Label == L) {
      Counters[C] += 1.0;
      ++Increments;
    }
  }
}

void ProfileRuntime::onDoLoopEntry(const Function &F, StmtId DoHeader,
                                   int64_t HeaderExecutions, unsigned) {
  for (const auto &[C, Bias] : tablesFor(F).OnDoEntry[DoHeader]) {
    Counters[C] += static_cast<double>(HeaderExecutions + Bias);
    ++Adds;
  }
}

std::vector<double> ProfileRuntime::countersFor(const Function &F) const {
  unsigned Base = Plan.offsetOf(F);
  unsigned Count = Plan.of(F).numCounters();
  return std::vector<double>(Counters.begin() + Base,
                             Counters.begin() + Base + Count);
}

double ProfileRuntime::overheadCycles() const {
  return static_cast<double>(Increments) * CM.CounterIncrementCost +
         static_cast<double>(Adds) * CM.CounterAddCost;
}

FrequencyTotals ProfileRuntime::recover(const Function &F,
                                        CancelToken *Cancel) const {
  std::vector<double> Local = countersFor(F);
  // Fault-injection seam (CounterCorrupt): corrupts only this local
  // slice, so the shared accumulator is untouched and the caller's
  // validation path is what gets exercised.
  FaultInjection::maybeCorruptCounters(Local);
  return recoverTotals(PA.of(F), Plan.of(F), Local,
                       /*Diags=*/nullptr, Obs, Cancel);
}

void ProfileRuntime::reset() {
  Counters.assign(Counters.size(), 0.0);
  Increments = 0;
  Adds = 0;
}

//===----------------------------------------------------------------------===//
// ExactProfile
//===----------------------------------------------------------------------===//

ExactProfile::Counts &ExactProfile::countsFor(const Function &F) {
  auto It = PerFunction.find(&F);
  if (It != PerFunction.end())
    return It->second;
  Counts C;
  C.Stmt.assign(F.numStmts(), 0.0);
  C.Transfer.resize(F.numStmts());
  return PerFunction.emplace(&F, std::move(C)).first->second;
}

const ExactProfile::Counts *
ExactProfile::findCounts(const Function &F) const {
  auto It = PerFunction.find(&F);
  return It == PerFunction.end() ? nullptr : &It->second;
}

void ExactProfile::onProcedureEntry(const Function &F, unsigned) {
  countsFor(F).Entries += 1.0;
}

void ExactProfile::onStatement(const Function &F, StmtId S, unsigned) {
  countsFor(F).Stmt[S] += 1.0;
}

void ExactProfile::onTransfer(const Function &F, StmtId From, CfgLabel L,
                              StmtId, unsigned) {
  countsFor(F).Transfer[From][static_cast<LabelId>(L)] += 1.0;
}

double ExactProfile::stmtCount(const Function &F, StmtId S) const {
  const Counts *C = findCounts(F);
  return C ? C->Stmt[S] : 0.0;
}

double ExactProfile::transferCount(const Function &F, StmtId S,
                                   CfgLabel L) const {
  const Counts *C = findCounts(F);
  if (!C)
    return 0.0;
  auto It = C->Transfer[S].find(static_cast<LabelId>(L));
  return It == C->Transfer[S].end() ? 0.0 : It->second;
}

double ExactProfile::entryCount(const Function &F) const {
  const Counts *C = findCounts(F);
  return C ? C->Entries : 0.0;
}

FrequencyTotals ExactProfile::totals(const Function &F) const {
  const FunctionAnalysis &FA = PA.of(F);
  const Ecfg &E = FA.ecfg();
  FrequencyTotals Out;
  for (const ControlCondition &Cond : FA.cd().conditions()) {
    double Total = 0.0;
    if (Cond.Label == CfgLabel::Z) {
      Total = 0.0;
    } else if (Cond.Node == E.start()) {
      Total = entryCount(F);
    } else if (NodeId H = E.headerOf(Cond.Node); H != InvalidNode) {
      Total = stmtCount(F, FA.cfg().origin(H));
    } else {
      Total = transferCount(F, FA.cfg().origin(Cond.Node), Cond.Label);
    }
    Out.Cond[Cond] = Total;
  }
  Out.Node = nodeTotalsFromConds(FA, Out.Cond);
  Out.Ok = true;
  return Out;
}

//===----------------------------------------------------------------------===//
// LoopFrequencyStats
//===----------------------------------------------------------------------===//

namespace {

/// Fills a per-statement slice table: Begin[S] .. Begin[S + 1] indexes the
/// values of the (statement, value) pairs whose statement is S, in input
/// order.
void bucketByStmt(unsigned NumStmts,
                  const std::vector<std::pair<StmtId, unsigned>> &Pairs,
                  std::vector<unsigned> &Begin, std::vector<unsigned> &Values) {
  Begin.assign(NumStmts + 1, 0);
  for (const auto &[S, V] : Pairs)
    ++Begin[S + 1];
  for (unsigned S = 0; S < NumStmts; ++S)
    Begin[S + 1] += Begin[S];
  Values.resize(Pairs.size());
  std::vector<unsigned> Fill(Begin.begin(), Begin.end() - 1);
  for (const auto &[S, V] : Pairs)
    Values[Fill[S]++] = V;
}

} // namespace

bool LoopFrequencyStats::FunctionLoops::bodyContains(unsigned Loop,
                                                     StmtId S) const {
  if (S >= InnerBegin.size() - 1) // Includes InvalidStmt.
    return false;
  for (unsigned K = InnerBegin[S]; K < InnerBegin[S + 1]; ++K)
    if (TreeIn[Loop] <= TreeIn[Inner[K]] && TreeIn[Inner[K]] < TreeEnd[Loop])
      return true;
  return false;
}

std::unique_ptr<LoopFrequencyStats>
LoopFrequencyStats::build(const Program &P, DiagnosticEngine &Diags,
                          CancelToken *Cancel) {
  auto Stats = std::unique_ptr<LoopFrequencyStats>(new LoopFrequencyStats());
  bool Failed = false;
  size_t Skipped = 0;
  for (const auto &F : P.functions()) {
    if (Cancel && Cancel->checkpoint()) {
      ++Skipped;
      continue;
    }
    Cfg C = buildCfg(*F);
    std::optional<IntervalStructure> IS = IntervalStructure::compute(C, Diags);
    if (!IS) {
      Failed = true;
      continue;
    }
    Stats->addFunction(*F, C, *IS);
  }
  if (Skipped)
    Diags.error(cancelMessage(*Cancel, "program analysis") + "; " +
                std::to_string(Skipped) + " of " +
                std::to_string(P.functions().size()) +
                " functions not analyzed");
  if (Failed || Skipped)
    return nullptr;
  return Stats;
}

LoopFrequencyStats::LoopFrequencyStats(const ProgramAnalysis &RawPA) {
  for (const auto &[F, FA] : RawPA.all())
    addFunction(*F, FA->cfg(), FA->intervals());
}

void LoopFrequencyStats::addFunction(const Function &F, const Cfg &C,
                                     const IntervalStructure &IS) {
  const std::vector<NodeId> &Headers = IS.headers();
  unsigned NumLoops = static_cast<unsigned>(Headers.size());
  FunctionLoops &L = Loops[&F];

  std::vector<unsigned> LoopOfHeader(C.numNodes(), NoLoop);
  std::vector<std::pair<StmtId, unsigned>> HeadedPairs, InnerPairs;
  for (unsigned I = 0; I < NumLoops; ++I) {
    LoopOfHeader[Headers[I]] = I;
    auto [In, End] = IS.treeRange(Headers[I]);
    L.TreeIn.push_back(In);
    L.TreeEnd.push_back(End);
    L.HeaderStmt.push_back(C.origin(Headers[I]));
    if (L.HeaderStmt[I] != InvalidStmt)
      HeadedPairs.emplace_back(L.HeaderStmt[I], I);
  }
  for (NodeId N = 0; N < C.numNodes(); ++N)
    if (C.origin(N) != InvalidStmt && IS.hdr(N) != InvalidNode)
      InnerPairs.emplace_back(C.origin(N), LoopOfHeader[IS.hdr(N)]);
  bucketByStmt(F.numStmts(), HeadedPairs, L.HeadedBegin, L.Headed);
  bucketByStmt(F.numStmts(), InnerPairs, L.InnerBegin, L.Inner);
}

void LoopFrequencyStats::onProcedureEntry(const Function &F, unsigned Depth) {
  Frames.resize(Depth + 1);
  FunctionState &State = Frames[Depth];
  State.F = &F;
  auto It = Loops.find(&F);
  State.Loops = It == Loops.end() ? nullptr : &It->second;
  State.Active.clear();
}

void LoopFrequencyStats::onProcedureExit(const Function &, unsigned Depth) {
  if (Depth >= Frames.size())
    return;
  // Close any loops still open (closed normally via the exit transfer, but
  // a fault can interrupt execution mid-loop).
  closeLoopsOutside(Frames[Depth], InvalidStmt);
  Frames.resize(Depth);
}

void LoopFrequencyStats::onStatement(const Function &, StmtId S,
                                     unsigned Depth) {
  FunctionState &State = Frames[Depth];
  const FunctionLoops *L = State.Loops;
  if (!L || S >= L->HeadedBegin.size() - 1)
    return;

  // Header executions: bump active loops, activate on first execution.
  for (unsigned K = L->HeadedBegin[S]; K < L->HeadedBegin[S + 1]; ++K) {
    unsigned I = L->Headed[K];
    bool ActiveAlready = false;
    for (ActiveLoop &A : State.Active)
      if (A.LoopIdx == I) {
        A.HeaderExecs += 1;
        ActiveAlready = true;
      }
    if (!ActiveAlready)
      State.Active.push_back({I, 1.0});
  }
}

void LoopFrequencyStats::closeLoopsOutside(FunctionState &State,
                                           StmtId Target) {
  while (!State.Active.empty()) {
    ActiveLoop &A = State.Active.back();
    if (State.Loops->bodyContains(A.LoopIdx, Target))
      return;
    Moments &M = Stats[{State.F, State.Loops->HeaderStmt[A.LoopIdx]}];
    M.Entries += 1;
    M.Sum += A.HeaderExecs;
    M.SumSq += A.HeaderExecs * A.HeaderExecs;
    State.Active.pop_back();
  }
}

void LoopFrequencyStats::onTransfer(const Function &, StmtId, CfgLabel,
                                    StmtId To, unsigned Depth) {
  if (Depth >= Frames.size())
    return;
  closeLoopsOutside(Frames[Depth], To);
}

const LoopFrequencyStats::Moments *
LoopFrequencyStats::momentsFor(const Function &F, StmtId HeaderStmt) const {
  auto It = Stats.find({&F, HeaderStmt});
  return It == Stats.end() ? nullptr : &It->second;
}

std::vector<std::pair<StmtId, LoopFrequencyStats::Moments>>
LoopFrequencyStats::momentsOf(const Function &F) const {
  std::vector<std::pair<StmtId, Moments>> Out;
  for (auto It = Stats.lower_bound({&F, 0});
       It != Stats.end() && It->first.first == &F; ++It)
    Out.emplace_back(It->first.second, It->second);
  return Out;
}

void LoopFrequencyStats::addMoments(const Function &F, StmtId HeaderStmt,
                                    const Moments &M) {
  Moments &Acc = Stats[{&F, HeaderStmt}];
  Acc.Entries += M.Entries;
  Acc.Sum += M.Sum;
  Acc.SumSq += M.SumSq;
}

const std::vector<StmtId> &
LoopFrequencyStats::headerStmts(const Function &F) const {
  static const std::vector<StmtId> None;
  auto It = Loops.find(&F);
  return It == Loops.end() ? None : It->second.HeaderStmt;
}
