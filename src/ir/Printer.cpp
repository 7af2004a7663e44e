//===--- ir/Printer.cpp - MiniIR pretty printer ---------------------------===//

#include "ir/Printer.h"

#include "support/Casting.h"
#include "support/FatalError.h"
#include "support/StringUtils.h"

#include <sstream>

using namespace ptran;

namespace {

/// Binding strength for parenthesization, loosest first.
int precedence(const Expr *E) {
  if (const auto *B = dyn_cast<BinaryExpr>(E)) {
    switch (B->op()) {
    case BinaryOp::Or:
      return 1;
    case BinaryOp::And:
      return 2;
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
    case BinaryOp::Eq:
    case BinaryOp::Ne:
      return 3;
    case BinaryOp::Add:
    case BinaryOp::Sub:
      return 4;
    case BinaryOp::Mul:
    case BinaryOp::Div:
      return 5;
    case BinaryOp::Pow:
      return 6;
    }
  }
  if (isa<UnaryExpr>(E))
    return 7;
  return 8; // Leaves never need parentheses.
}

void printExprInto(const Function &F, const Expr *E, std::ostringstream &OS,
                   int ParentPrec) {
  int Prec = precedence(E);
  bool Paren = Prec < ParentPrec;
  if (Paren)
    OS << '(';

  switch (E->kind()) {
  case ExprKind::IntLiteral:
    OS << cast<IntLiteral>(E)->value();
    break;
  case ExprKind::RealLiteral: {
    double V = cast<RealLiteral>(E)->value();
    std::string Text = formatDouble(V);
    OS << Text;
    // Keep real literals lexically real on round trips.
    if (Text.find('.') == std::string::npos &&
        Text.find('e') == std::string::npos &&
        Text.find("inf") == std::string::npos &&
        Text.find("nan") == std::string::npos)
      OS << ".0";
    break;
  }
  case ExprKind::VarRef:
    OS << F.symbol(cast<VarRef>(E)->var()).Name;
    break;
  case ExprKind::ArrayRef: {
    const auto *A = cast<ArrayRef>(E);
    OS << F.symbol(A->var()).Name << '(';
    for (size_t I = 0; I < A->indices().size(); ++I) {
      if (I != 0)
        OS << ", ";
      printExprInto(F, A->indices()[I], OS, 0);
    }
    OS << ')';
    break;
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    OS << (U->op() == UnaryOp::Neg ? "-" : ".NOT. ");
    printExprInto(F, U->operand(), OS, Prec);
    break;
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    printExprInto(F, B->lhs(), OS, Prec);
    const char *Spelling = binaryOpSpelling(B->op());
    if (isComparison(B->op()) || isLogicalOp(B->op()))
      OS << ' ' << Spelling << ' ';
    else
      OS << ' ' << Spelling << ' ';
    // Right operand of a left-associative operator needs parens at equal
    // precedence.
    printExprInto(F, B->rhs(), OS, Prec + 1);
    break;
  }
  case ExprKind::Intrinsic: {
    const auto *I = cast<IntrinsicExpr>(E);
    OS << intrinsicName(I->fn()) << '(';
    for (size_t A = 0; A < I->args().size(); ++A) {
      if (A != 0)
        OS << ", ";
      printExprInto(F, I->args()[A], OS, 0);
    }
    OS << ')';
    break;
  }
  }

  if (Paren)
    OS << ')';
}

std::string printLValue(const Function &F, const LValue &L) {
  std::ostringstream OS;
  OS << F.symbol(L.Var).Name;
  if (L.isArrayElement()) {
    OS << '(';
    for (size_t I = 0; I < L.Indices.size(); ++I) {
      if (I != 0)
        OS << ", ";
      OS << printExpr(F, L.Indices[I]);
    }
    OS << ')';
  }
  return OS.str();
}

} // namespace

std::string ptran::printExpr(const Function &F, const Expr *E) {
  std::ostringstream OS;
  printExprInto(F, E, OS, 0);
  return OS.str();
}

StmtPrinter::StmtPrinter(const Function &F) : F(F) {
  int MaxUser = 0;
  for (StmtId I = 0; I < F.numStmts(); ++I) {
    int L = F.stmt(I)->label();
    if (L > 0 && L < FirstCompilerLabel)
      MaxUser = std::max(MaxUser, L);
  }
  int Next = MaxUser + 10;
  for (StmtId I = 0; I < F.numStmts(); ++I) {
    int L = F.stmt(I)->label();
    if (L >= FirstCompilerLabel && Renumbered.emplace(L, Next).second)
      Next += 10;
  }
}

int StmtPrinter::label(int Label) const {
  auto It = Renumbered.find(Label);
  return It == Renumbered.end() ? Label : It->second;
}

std::string StmtPrinter::operator()(const Stmt *S) const {
  std::ostringstream OS;
  switch (S->kind()) {
  case StmtKind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    OS << printLValue(F, A->target()) << " = " << printExpr(F, A->value());
    break;
  }
  case StmtKind::IfGoto: {
    const auto *I = cast<IfGotoStmt>(S);
    OS << "IF (" << printExpr(F, I->cond()) << ") GOTO "
       << label(I->targetLabel());
    break;
  }
  case StmtKind::Goto:
    OS << "GOTO " << label(cast<GotoStmt>(S)->targetLabel());
    break;
  case StmtKind::ComputedGoto: {
    const auto *Cg = cast<ComputedGotoStmt>(S);
    OS << "GOTO (";
    for (size_t K = 0; K < Cg->targetLabels().size(); ++K) {
      if (K != 0)
        OS << ", ";
      OS << label(Cg->targetLabels()[K]);
    }
    OS << "), " << printExpr(F, Cg->index());
    break;
  }
  case StmtKind::DoStart: {
    const auto *D = cast<DoStmt>(S);
    OS << "DO " << F.symbol(D->indexVar()).Name << " = "
       << printExpr(F, D->lo()) << ", " << printExpr(F, D->hi());
    if (D->step())
      OS << ", " << printExpr(F, D->step());
    break;
  }
  case StmtKind::DoEnd:
    OS << "ENDDO";
    break;
  case StmtKind::Call: {
    const auto *C = cast<CallStmt>(S);
    OS << "CALL " << C->callee() << '(';
    for (size_t I = 0; I < C->args().size(); ++I) {
      if (I != 0)
        OS << ", ";
      OS << printExpr(F, C->args()[I]);
    }
    OS << ')';
    break;
  }
  case StmtKind::Return:
    OS << "RETURN";
    break;
  case StmtKind::Continue:
    OS << "CONTINUE";
    break;
  case StmtKind::Print: {
    const auto *P = cast<PrintStmt>(S);
    OS << "PRINT ";
    for (size_t I = 0; I < P->args().size(); ++I) {
      if (I != 0)
        OS << ", ";
      OS << printExpr(F, P->args()[I]);
    }
    break;
  }
  }
  return OS.str();
}

std::string ptran::printStmt(const Function &F, const Stmt *S) {
  return StmtPrinter(F)(S);
}

std::string ptran::printFunction(const Function &F) {
  std::ostringstream OS;
  OS << "subroutine " << F.name() << '(';
  for (size_t I = 0; I < F.params().size(); ++I) {
    if (I != 0)
      OS << ", ";
    OS << F.symbol(F.params()[I]).Name;
  }
  OS << ")\n";

  for (VarId V = 0; V < F.numSymbols(); ++V) {
    const Symbol &Sym = F.symbol(V);
    OS << "  " << typeName(Sym.Ty) << ' ' << Sym.Name;
    if (Sym.isArray()) {
      OS << '(';
      for (size_t D = 0; D < Sym.Dims.size(); ++D) {
        if (D != 0)
          OS << ", ";
        OS << Sym.Dims[D];
      }
      OS << ')';
    }
    OS << '\n';
  }

  StmtPrinter Print(F);
  for (StmtId I = 0; I < F.numStmts(); ++I) {
    const Stmt *S = F.stmt(I);
    if (S->label() != 0)
      OS << Print.label(S->label()) << ' ';
    else
      OS << "  ";
    OS << Print(S) << '\n';
  }
  OS << "end\n";
  return OS.str();
}

std::string ptran::printProgram(const Program &P) {
  std::vector<std::string> Parts;
  for (const auto &F : P.functions())
    Parts.push_back(printFunction(*F));
  return join(Parts, "\n");
}
