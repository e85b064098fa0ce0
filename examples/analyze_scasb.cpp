//===- analyze_scasb.cpp - The §4.1 walkthrough ----------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// Replays the paper's flagship example end to end: proving the Intel 8086
// scasb instruction implements the Rigel index operator. Prints the
// intermediate forms corresponding to Figures 2-5, the binding, and the
// constraint set, then shows the real 8086 code the binding lowers to.
//
// Build and run:   ./build/examples/analyze_scasb
//
//===----------------------------------------------------------------------===//

#include "analysis/Derivations.h"
#include "descriptions/Descriptions.h"
#include "isdl/Printer.h"
#include "registry/Harness.h"
#include "sim/Sim8086.h"

#include <cstdio>

using namespace extra;
using namespace extra::analysis;

int main() {
  const AnalysisCase *Case = findCase("i8086.scasb/rigel.index");
  if (!Case) {
    std::fprintf(stderr, "case not found\n");
    return 1;
  }

  std::printf("==== Figure 2: the Rigel index operator ====\n%s\n",
              descriptions::sourceFor("rigel.index"));
  std::printf("==== Figure 3: the 8086 scasb instruction ====\n%s\n",
              descriptions::sourceFor("i8086.scasb"));

  // Replay the instruction-side derivation in two halves so the
  // intermediate (Figure 4) form is visible.
  auto Instruction = descriptions::load(Case->InstructionId);
  transform::Engine Session(std::move(*Instruction));
  size_t SimplificationSteps = 0;
  for (const transform::Step &S : Case->InstructionScript) {
    // The augment phase starts at the zf prologue fix.
    bool AugmentPhase =
        S.Rule == "fix-operand-value" && S.Args.count("operand") &&
        S.Args.at("operand") == "zf";
    if (AugmentPhase && SimplificationSteps == 0) {
      SimplificationSteps = Session.stepsApplied();
      std::printf("==== Figure 4: scasb simplified (%zu steps: rf=1, "
                  "rfz=0, df=0) ====\n%s\n",
                  SimplificationSteps,
                  isdl::printDescription(Session.current()).c_str());
    }
    transform::ApplyResult R = Session.apply(S);
    if (!R.Applied) {
      std::fprintf(stderr, "step '%s' failed: %s\n", S.str().c_str(),
                   R.Reason.c_str());
      return 1;
    }
  }
  std::printf("==== Figure 5: scasb augmented (pointer save, zf zeroing, "
              "index epilogue) ====\n%s\n",
              isdl::printDescription(Session.current()).c_str());

  // The full analysis (both sides, differential checks, common form).
  AnalysisResult R = runAnalysis(*Case, Mode::Base);
  if (!R.Succeeded) {
    std::fprintf(stderr, "analysis failed: %s\n", R.FailureReason.c_str());
    return 1;
  }
  std::printf("==== analysis summary ====\n");
  std::printf("total steps: %u (operator %u + instruction %u); the paper "
              "reports %u with its finer-grained rules\n\n",
              R.StepsApplied, R.OperatorSteps, R.InstructionSteps,
              Case->PaperSteps);
  std::printf("binding (operator <-> instruction):\n%s\n",
              R.Binding.str().c_str());
  std::printf("constraints:\n%s\n", R.Constraints.str().c_str());

  // And the §4.1 payoff: real 8086 code for `index`, lowered from the
  // recorded derivation and run on the simulator.
  auto Target = registry::corpusTarget(registry::MachineKind::I8086);
  codegen::Program P;
  P.Ops.push_back(codegen::strIndex("result",
                                    codegen::Value::symbol("string"),
                                    codegen::Value::symbol("length"),
                                    codegen::Value::symbol("char")));
  codegen::CodeGenResult Code = Target->generate(P);
  std::printf("==== generated 8086 code for index (cf. the §4.1 listing) "
              "====\n");
  for (const std::string &Line : Code.Asm)
    std::printf("%s\n", Line.c_str());

  interp::Memory M;
  interp::storeBytes(M, 100, "exotic");
  sim::SimResult S = sim::run8086(
      Code.Asm, M, {{"string", 100}, {"length", 6}, {"char", 't'}});
  std::printf("\nsimulated: index(\"exotic\", 't') = %lld (expected 4)\n",
              static_cast<long long>(S.reg("result")));
  return S.Ok && S.reg("result") == 4 ? 0 : 1;
}
