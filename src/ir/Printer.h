//===--- ir/Printer.h - MiniIR pretty printer -------------------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders MiniIR back to mini-language source text. Used by tests
/// (round-tripping), examples and debugging dumps.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_IR_PRINTER_H
#define PTRAN_IR_PRINTER_H

#include "ir/Function.h"

#include <map>
#include <string>

namespace ptran {

/// Renders a single expression.
std::string printExpr(const Function &F, const Expr *E);

/// Renders the statements of one function. Printing a GOTO needs the
/// function's label renumbering (see label()), a pass over every
/// statement; a StmtPrinter makes that pass once, so printing K statements
/// costs O(statements + K) instead of O(statements × K).
class StmtPrinter {
public:
  explicit StmtPrinter(const Function &F);

  /// Renders \p S, a statement of the function (without its label prefix
  /// or newline).
  std::string operator()(const Stmt *S) const;

  /// The label value printed for \p Label: compiler-generated labels are
  /// renumbered into the user range so that printed programs reparse.
  /// User labels pass through unchanged.
  int label(int Label) const;

private:
  const Function &F;
  std::map<int, int> Renumbered;
};

/// Renders one statement (without its label prefix or newline). Builds a
/// StmtPrinter per call; print many statements through one instead.
std::string printStmt(const Function &F, const Stmt *S);

/// Renders a whole function, declarations included.
std::string printFunction(const Function &F);

/// Renders a whole program.
std::string printProgram(const Program &P);

} // namespace ptran

#endif // PTRAN_IR_PRINTER_H
