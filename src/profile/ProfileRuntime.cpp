//===--- profile/ProfileRuntime.cpp - Counter runtime ---------------------===//

#include "profile/ProfileRuntime.h"

#include "support/Casting.h"
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

LoopFrequencyStats::LoopFrequencyStats(const ProgramAnalysis &PA) : PA(PA) {
  // A GOTO node keeps the one out-edge buildCfg gives it unless goto
  // elision detached the node.
  for (const auto &[F, FA] : PA.all())
    for (StmtId S = 0; S < F->numStmts(); ++S) {
      if (!isa<GotoStmt>(F->stmt(S)) || FA->cfg().graph().outDegree(S) != 0)
        continue;
      StmtId To = S;
      while (const auto *G = dyn_cast<GotoStmt>(F->stmt(To)))
        To = G->target();
      GotoLanding.emplace(std::make_pair(F, S), To);
    }
}

void LoopFrequencyStats::onProcedureEntry(const Function &F, unsigned Depth) {
  Frames.resize(Depth + 1);
  FunctionState &State = Frames[Depth];
  State.F = &F;
  const FunctionAnalysis *FA = PA.tryOf(F);
  State.Loops = FA ? &FA->intervals() : nullptr;
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
  if (!State.Loops || !State.Loops->isHeader(S))
    return;
  // The transfer here closed every loop not containing S, so an active
  // loop headed by S is the innermost one.
  if (!State.Active.empty() && State.Active.back().Header == S)
    State.Active.back().HeaderExecs += 1;
  else
    State.Active.push_back({S, 1.0});
}

void LoopFrequencyStats::closeLoopsOutside(FunctionState &State,
                                           StmtId Target) {
  if (State.Active.empty())
    return;
  bool InFunction = Target < State.F->numStmts();
  if (InFunction && isa<GotoStmt>(State.F->stmt(Target)))
    if (auto It = GotoLanding.find({State.F, Target}); It != GotoLanding.end())
      Target = It->second;
  while (!State.Active.empty()) {
    ActiveLoop &A = State.Active.back();
    if (InFunction && State.Loops->contains(A.Header, Target))
      return;
    Observed[{State.F, A.Header}] +=
        {1.0, A.HeaderExecs, A.HeaderExecs * A.HeaderExecs};
    State.Active.pop_back();
  }
}

void LoopFrequencyStats::onTransfer(const Function &, StmtId, CfgLabel,
                                    StmtId To, unsigned Depth) {
  if (Depth >= Frames.size())
    return;
  closeLoopsOutside(Frames[Depth], To);
}

std::optional<LoopFrequencyStats::Moments>
LoopFrequencyStats::momentsFor(const Function &F, StmtId HeaderStmt) const {
  std::optional<Moments> Sum;
  for (const MomentMap *From : {&Observed, &Ingested})
    if (auto It = From->find({&F, HeaderStmt}); It != From->end()) {
      if (!Sum)
        Sum.emplace();
      *Sum += It->second;
    }
  return Sum;
}

std::vector<std::pair<StmtId, LoopFrequencyStats::Moments>>
LoopFrequencyStats::momentsOf(const Function &F, MomentSet Which) const {
  std::map<StmtId, Moments> Merged;
  auto Add = [&](const MomentMap &From) {
    for (auto It = From.lower_bound({&F, 0});
         It != From.end() && It->first.first == &F; ++It)
      Merged[It->first.second] += It->second;
  };
  Add(Observed);
  if (Which == MomentSet::All)
    Add(Ingested);
  return {Merged.begin(), Merged.end()};
}

void LoopFrequencyStats::addMoments(const Function &F, StmtId HeaderStmt,
                                    const Moments &M) {
  Ingested[{&F, HeaderStmt}] += M;
}

const std::vector<StmtId> &
LoopFrequencyStats::headerStmts(const Function &F) const {
  static const std::vector<StmtId> None;
  const FunctionAnalysis *FA = PA.tryOf(F);
  return FA ? FA->intervals().headers() : None;
}
