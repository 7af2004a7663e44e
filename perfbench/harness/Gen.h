//===--- perfbench/harness/Gen.h - Seeded benchmark inputs ------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded generators for the benchmark's programs, written as mini-language
/// source text so the tools under test receive only generated inputs.
///
/// Every generator draws its shape from a fixed multiset (loop depths,
/// call-tree size) and lets the seed choose the order, the constants and
/// the call-tree wiring. So two seeds give programs of equal size and
/// different structure, which keeps run-to-run spread down without making
/// the benchmark depend on one hand-picked input.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GEN_H
#define PERFBENCH_GEN_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a fixed, portable stream (std:: distributions are
/// implementation-defined, so they would tie inputs to one libstdc++).
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t S;
};

/// One procedure of \p Units units; each unit is a DO nest of depth 1-3
/// around an IF diamond (a quarter depth 1, half depth 2, a quarter
/// depth 3, in seeded order).
std::string genBigFunction(uint64_t Seed, unsigned Units);

/// \p Funcs small procedures wired into a seeded call tree rooted at the
/// main program, log2(Funcs) levels deep: each procedure is called once,
/// by a seeded choice among the procedures one level up. Each body is a
/// DO nest of depth 1-2 around an IF diamond; calls sit outside the
/// loops, so every procedure runs exactly once per program run.
std::string genManyFunctions(uint64_t Seed, unsigned Funcs);

/// The daemon workloads' session programs: \p Count many-function
/// programs whose sizes step from 8 to 8 * Count procedures.
std::vector<std::string> genSessionPrograms(uint64_t Seed, unsigned Count);

} // namespace perfbench

#endif // PERFBENCH_GEN_H
