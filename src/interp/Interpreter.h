//===--- interp/Interpreter.h - MiniIR interpreter --------------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tree-walking interpreter for MiniIR programs with a simulated cycle
/// clock (driven by a CostModel) and observer hooks for profiling. This is
/// the substrate standing in for the paper's IBM 3090 + VS Fortran
/// testbed: profiling overhead becomes counter-update work measured on the
/// same simulated clock.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_INTERP_INTERPRETER_H
#define PTRAN_INTERP_INTERPRETER_H

#include "interp/CostModel.h"
#include "interp/Observer.h"
#include "interp/Value.h"

#include <string>
#include <vector>

namespace ptran {

/// Outcome of one program run.
struct RunResult {
  bool Ok = false;
  /// Error description when !Ok (runtime fault or budget exhaustion).
  std::string Error;
  /// Simulated cycles consumed by the program itself (no profiling).
  double Cycles = 0.0;
  /// Total statements executed.
  uint64_t StatementsExecuted = 0;
  /// Output accumulated by PRINT statements, one line per PRINT.
  std::string Output;
};

/// Interprets a verified MiniIR program.
class Interpreter {
public:
  /// \p P must have been finalized and verified (expression types are
  /// needed). The cost model drives the simulated clock.
  Interpreter(const Program &P, const CostModel &CM);

  /// Registers an observer; observers are invoked in registration order
  /// and must outlive the interpreter.
  void addObserver(ExecutionObserver *O) { Observers.push_back(O); }

  /// The default runaway-loop backstop of run().
  static constexpr uint64_t DefaultMaxSteps = 200'000'000;

  /// Runs the program entry procedure. \p MaxSteps bounds the number of
  /// executed statements (a runaway-loop backstop).
  RunResult run(uint64_t MaxSteps = DefaultMaxSteps);

private:
  const Program &Prog;
  CostModel CM;
  std::vector<ExecutionObserver *> Observers;
};

} // namespace ptran

#endif // PTRAN_INTERP_INTERPRETER_H
