//===- bench_fig2to5_descriptions.cpp - Regenerates Figs. 2-5 ---*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// Figures 2 and 3 are the paper's source listings (Rigel index, 8086
// scasb); Figures 4 and 5 are *derived* forms — the simplified and
// augmented scasb — which this binary regenerates by replaying the
// recorded derivation through the engine.
//
// Exits 1 when a step of the derivation is not applied.
//
//===----------------------------------------------------------------------===//

#include "analysis/Derivations.h"
#include "descriptions/Descriptions.h"
#include "isdl/Printer.h"

#include <cstdio>

using namespace extra;
using namespace extra::analysis;

namespace {

/// Splits the scasb script at the augment phase (the zf prologue fix).
size_t augmentPhaseStart(const transform::Script &S) {
  for (size_t I = 0; I < S.size(); ++I)
    if (S[I].Rule == "fix-operand-value" &&
        S[I].Args.count("operand") && S[I].Args.at("operand") == "zf")
      return I;
  return S.size();
}

/// Prints the figures; false when a derivation step is not applied.
bool printFigures() {
  const AnalysisCase *Case = findCase("i8086.scasb/rigel.index");
  std::printf("==== Figure 2: Rigel Index Operator (library source) "
              "====\n%s\n",
              descriptions::sourceFor("rigel.index"));
  std::printf("==== Figure 3: Intel 8086 Scasb Instruction (library "
              "source) ====\n%s\n",
              descriptions::sourceFor("i8086.scasb"));

  auto Scasb = descriptions::load("i8086.scasb");
  transform::Engine E(std::move(*Scasb));
  size_t Split = augmentPhaseStart(Case->InstructionScript);
  for (size_t I = 0; I < Split; ++I)
    if (!E.apply(Case->InstructionScript[I]).Applied) {
      std::fprintf(stderr, "derivation failed\n");
      return false;
    }
  std::printf("==== Figure 4: Simplified Intel 8086 Scasb (regenerated, "
              "%zu steps) ====\n%s\n",
              E.stepsApplied(), isdl::printDescription(E.current()).c_str());
  for (size_t I = Split; I < Case->InstructionScript.size(); ++I)
    if (!E.apply(Case->InstructionScript[I]).Applied) {
      std::fprintf(stderr, "derivation failed\n");
      return false;
    }
  std::printf("==== Figure 5: Augmented Intel 8086 Scasb (regenerated, "
              "%zu steps) ====\n%s\n",
              E.stepsApplied(), isdl::printDescription(E.current()).c_str());
  std::printf("constraints uncovered along the way:\n%s\n",
              E.constraints().str().c_str());
  return true;
}

} // namespace

int main() { return printFigures() ? 0 : 1; }
