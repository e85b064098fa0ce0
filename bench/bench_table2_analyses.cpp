//===- bench_table2_analyses.cpp - Regenerates Table 2 ----------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// Table 2: "Exotic Instruction Analysis Summary" — the eleven successful
// analyses with their transformation step counts. Every row is re-derived
// live: the scripts replay, each step re-verifies its conditions and is
// differentially tested, the common form is checked, and the binding's
// register-size constraints are re-derived. Our step counts differ from
// the 1982 numbers (this engine's rules are coarser) but rank-correlate;
// both are printed.
//
// Exits 1 when a Table 2 row or an extended row is not verified.
//
//===----------------------------------------------------------------------===//

#include "analysis/Derivations.h"

#include <cstdio>

using namespace extra;
using namespace extra::analysis;

/// Prints the table and the rows beyond it; true when every row verified.
static bool printTable2() {
  std::printf("==== Table 2: Exotic Instruction Analysis Summary ====\n\n");
  std::printf("  %-12s %-12s %-8s %-16s %-6s %-6s %s\n", "Machine",
              "Instruction", "Language", "Operation", "Steps", "Paper",
              "Status");
  std::printf("  %-12s %-12s %-8s %-16s %-6s %-6s %s\n", "-------",
              "-----------", "--------", "---------", "-----", "-----",
              "------");
  unsigned Failures = 0;
  for (const AnalysisCase &Case : table2Cases()) {
    AnalysisResult R = runAnalysis(Case, Mode::Base);
    std::printf("  %-12s %-12s %-8s %-16s %-6u %-6u %s\n",
                Case.Machine.c_str(), Case.Instruction.c_str(),
                Case.Language.c_str(), Case.Operation.c_str(),
                R.StepsApplied, Case.PaperSteps,
                R.Succeeded ? "verified" : R.FailureReason.c_str());
    if (!R.Succeeded)
      ++Failures;
  }
  std::printf("\n  every row: scripted derivation replayed, each step "
              "condition-checked and\n  differentially tested, common form "
              "matched, end-to-end operator equivalence\n  verified on "
              "random inputs.%s\n\n",
              Failures ? "  SOME ROWS FAILED." : "");

  std::printf("beyond Table 2 (same machinery, new pairings):\n");
  unsigned ExtendedFailures = 0;
  for (const AnalysisCase &Case : extendedCases()) {
    AnalysisResult R = runAnalysis(Case, Mode::Base);
    std::printf("  %-12s %-12s %-8s %-16s %-6u %-6s %s\n",
                Case.Machine.c_str(), Case.Instruction.c_str(),
                Case.Language.c_str(), Case.Operation.c_str(),
                R.StepsApplied, "-",
                R.Succeeded ? "verified" : R.FailureReason.c_str());
    if (!R.Succeeded)
      ++ExtendedFailures;
  }
  std::printf("\n");

  // The §4.1 constraint exhibit.
  AnalysisResult Scasb = runAnalysis(*findCase("i8086.scasb/rigel.index"),
                                     Mode::Base);
  std::printf("constraints from the scasb/index row (§4.1):\n%s\n",
              Scasb.Constraints.str().c_str());
  return Failures == 0 && ExtendedFailures == 0;
}

int main() { return printTable2() ? 0 : 1; }
