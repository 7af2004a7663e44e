//===--- perfbench/harness/Gen.cpp - Seeded benchmark inputs --------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Gen.h"

#include <algorithm>
#include <bit>

using namespace perfbench;

namespace {

/// Fisher-Yates with the benchmark's own generator.
template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(static_cast<unsigned>(I))]);
}

/// Depths for \p N units in the ratio \p Weights (depth 1, 2, 3, ...),
/// in seeded order. The multiset depends only on N.
std::vector<unsigned> depthMix(unsigned N, const std::vector<unsigned> &Weights,
                               Rng &R) {
  unsigned Sum = 0;
  for (unsigned W : Weights)
    Sum += W;
  std::vector<unsigned> Depths;
  for (unsigned I = 0; I < N; ++I) {
    // Deterministic stratification: unit I takes the depth whose
    // cumulative weight covers (I mod Sum).
    unsigned Slot = I % Sum, Acc = 0, D = 0;
    while (Slot >= Acc + Weights[D])
      Acc += Weights[D++];
    Depths.push_back(D + 1);
  }
  shuffle(Depths, R);
  return Depths;
}

/// Appends one unit: a DO nest of \p Depth loops (two trips each) around
/// an IF diamond on `acc`. \p Label is the next free statement label.
void emitUnit(std::string &Out, unsigned Depth, int &Label, Rng &R) {
  std::vector<int> LoopLabels;
  std::string Indent = "  ";
  for (unsigned D = 0; D < Depth; ++D) {
    int L = Label++;
    LoopLabels.push_back(L);
    Out += Indent + "do " + std::to_string(L) + " i" + std::to_string(D + 1) +
           " = 1, 2\n";
    Indent += "  ";
  }
  int Else = Label++, End = Label++;
  unsigned Limit = 500 + R.below(1000);
  unsigned Step = 1 + R.below(3);
  Out += Indent + "if (acc .gt. " + std::to_string(Limit) + ") goto " +
         std::to_string(Else) + "\n";
  Out += Indent + "acc = acc + " + std::to_string(Step) + "\n";
  Out += Indent + "goto " + std::to_string(End) + "\n";
  Out += std::to_string(Else) + Indent + "acc = acc - " +
         std::to_string(Limit) + "\n";
  Out += std::to_string(End) + Indent + "continue\n";
  for (unsigned D = Depth; D-- > 0;) {
    Indent.resize(Indent.size() - 2);
    Out += std::to_string(LoopLabels[D]) + Indent + "continue\n";
  }
}

} // namespace

std::string perfbench::genBigFunction(uint64_t Seed, unsigned Units) {
  Rng R(Seed * 0x100000001B3ull + 1);
  std::string Out = "program big\n  integer acc, i1, i2, i3\n  acc = 0\n";
  int Label = 10;
  for (unsigned Depth : depthMix(Units, {1, 2, 1}, R))
    emitUnit(Out, Depth, Label, R);
  Out += "  print acc\nend\n";
  return Out;
}

std::string perfbench::genManyFunctions(uint64_t Seed, unsigned Funcs) {
  Rng R(Seed * 0x100000001B3ull + 2);
  if (Funcs == 0)
    Funcs = 1;
  // Levels as in a complete binary tree (level L holds procedures
  // 2^L - 1 .. 2^(L+1) - 2); each procedure is called by a seeded choice
  // from the level above. The height, and so the number of SCC waves,
  // is fixed; the fan-out of each caller varies.
  std::vector<std::vector<unsigned>> Callees(Funcs);
  for (unsigned K = 1; K < Funcs; ++K) {
    unsigned Level = std::bit_width(K + 1) - 1;
    unsigned First = (1u << (Level - 1)) - 1, Width = 1u << (Level - 1);
    Callees[First + R.below(Width)].push_back(K);
  }
  std::vector<unsigned> Depths = depthMix(Funcs, {1, 1}, R);

  std::string Out;
  for (unsigned K = 0; K < Funcs; ++K) {
    Out += K == 0 ? "program main\n" : "subroutine f" + std::to_string(K) + "\n";
    Out += "  integer acc, i1, i2\n  acc = " + std::to_string(R.below(100)) +
           "\n";
    int Label = 10;
    emitUnit(Out, Depths[K], Label, R);
    for (unsigned C : Callees[K])
      Out += "  call f" + std::to_string(C) + "\n";
    if (K == 0)
      Out += "  print acc\n";
    Out += "end\n\n";
  }
  return Out;
}

std::vector<std::string> perfbench::genSessionPrograms(uint64_t Seed,
                                                       unsigned Count) {
  std::vector<std::string> Out;
  for (unsigned I = 0; I < Count; ++I)
    Out.push_back(genManyFunctions(Seed * 131 + I, 8 * (I + 1)));
  return Out;
}
