//===--- cost/Report.cpp - gprof-style procedure report -------------------===//

#include "cost/Report.h"

#include "ir/Printer.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <cmath>
#include <sstream>

using namespace ptran;

std::vector<ProcedureReportRow> ptran::buildProcedureReport(
    const ProgramAnalysis &PA,
    const std::map<const Function *, Frequencies> &FreqsByFunction,
    const TimeAnalysis &TA) {
  std::vector<ProcedureReportRow> Rows;
  double ProgramSelf = 0.0;

  for (const auto &F : PA.program().functions()) {
    const FunctionAnalysis &FA = PA.of(*F);
    auto FreqIt = FreqsByFunction.find(F.get());
    if (FreqIt == FreqsByFunction.end())
      continue;
    const Frequencies &Freqs = FreqIt->second;

    ProcedureReportRow Row;
    Row.Name = F->name();
    Row.Calls = Freqs.Invocations;
    Row.TimePerCall = TA.functionTime(*F);
    Row.StdDevPerCall = std::sqrt(TA.functionVariance(*F));
    // Self time: frequency-weighted local costs over the FCDG nodes.
    for (NodeId N : FA.cd().topoOrder())
      Row.SelfPerCall += Freqs.NodeFreq[N] * TA.of(*F, N).SelfCost;
    Row.TotalSelf = Row.Calls * Row.SelfPerCall;
    ProgramSelf += Row.TotalSelf;
    Rows.push_back(std::move(Row));
  }

  for (ProcedureReportRow &Row : Rows)
    Row.SelfFraction = ProgramSelf > 0.0 ? Row.TotalSelf / ProgramSelf : 0.0;
  std::sort(Rows.begin(), Rows.end(),
            [](const ProcedureReportRow &A, const ProcedureReportRow &B) {
              return A.TotalSelf != B.TotalSelf ? A.TotalSelf > B.TotalSelf
                                                : A.Name < B.Name;
            });
  return Rows;
}

std::string
ptran::formatProcedureReport(const std::vector<ProcedureReportRow> &Rows) {
  TablePrinter T({"procedure", "calls", "time/call", "stddev", "self/call",
                  "total self", "% self"});
  for (const ProcedureReportRow &Row : Rows)
    T.addRow({Row.Name, formatDouble(Row.Calls),
              formatDouble(Row.TimePerCall, 6),
              formatDouble(Row.StdDevPerCall, 5),
              formatDouble(Row.SelfPerCall, 6),
              formatDouble(Row.TotalSelf, 6),
              formatDouble(100.0 * Row.SelfFraction, 4) + "%"});
  return T.str();
}

std::string ptran::annotatedListing(const FunctionAnalysis &FA,
                                    const FrequencyTotals &Totals,
                                    const TimeAnalysis &TA) {
  const Function &F = FA.function();
  StmtPrinter Print(F);
  std::ostringstream OS;
  OS << "      count |       TIME |    STD_DEV | " << F.name() << "\n";
  for (StmtId S = 0; S < F.numStmts(); ++S) {
    NodeId N = FA.cfg().nodeForStmt(S);
    std::string Count = "-", Time = "-", Sd = "-";
    if (N != InvalidNode && Totals.Ok && N < Totals.Node.size() &&
        Totals.Node[N] >= 0.0) {
      Count = formatDouble(Totals.Node[N]);
      const NodeEstimates &E = TA.of(F, N);
      Time = formatDouble(E.Time, 5);
      Sd = formatDouble(E.StdDev, 4);
    }
    char Line[64];
    std::snprintf(Line, sizeof(Line), "%11s |%11s |%11s | ", Count.c_str(),
                  Time.c_str(), Sd.c_str());
    OS << Line;
    const Stmt *St = F.stmt(S);
    if (St->label() != 0)
      OS << Print.label(St->label()) << ' ';
    OS << Print(St) << "\n";
  }
  return OS.str();
}
