//===--- perfbench/harness/Harness.h - Harness subcommands ------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `perfbench-harness SUBCOMMAND --key value ...`: the compiled half of the
/// benchmark. perfbench/run.py starts the tools under test and calls these
/// subcommands for input generation, open-loop load and the traced
/// in-process replays. Each subcommand prints one JSON object on stdout.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "Gen.h"
#include "Trace.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// `--key value` pairs.
class Args {
public:
  Args(int Argc, char **Argv, int First);
  std::string get(const std::string &Key, const std::string &Def = {}) const;
  uint64_t num(const std::string &Key, uint64_t Def) const;
  double real(const std::string &Key, double Def) const;

private:
  std::map<std::string, std::string> Values;
};

/// Prints \p Message to stderr and returns 1.
int fail(const std::string &Message);

/// Reads a whole file; false if it cannot be opened.
bool readFile(const std::string &Path, std::string &Out);

/// Median of \p V (0 for an empty sample).
double median(std::vector<double> V);
/// Nearest-rank percentile \p P in [0, 100] of \p V (0 for empty).
double percentile(std::vector<double> V, double P);

/// The one-line JSON object each subcommand prints: numbers, strings and
/// booleans under flat keys.
class JsonOut {
public:
  void num(const std::string &Key, double V);
  void str(const std::string &Key, const std::string &V);
  void boolean(const std::string &Key, bool V);
  std::string text() const { return "{" + Body + "}"; }

private:
  void sep();
  std::string Body;
};

/// Writes a seeded cold-workload source file and checks it (parses, is
/// reducible, finishes its profiled run); prints its sizes.
int cmdGen(const Args &A);
/// Traced and untraced in-process cold replays for --seconds.
int cmdColdTrace(const Args &A);
/// Writes the daemon workloads' session programs.
int cmdGenSessions(const Args &A);
/// Loads, runs and captures every session on a running daemon.
int cmdServeSetup(const Args &A);
/// Seeded open-loop load against a running daemon, phase by phase.
int cmdServeLoad(const Args &A);
/// Quiesced primary / standby / in-process replay comparison.
int cmdServeVerify(const Args &A);
/// Traced in-process replay of a daemon workload's request sequence.
int cmdServeTrace(const Args &A);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
