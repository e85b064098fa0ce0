//===- bench_sec43_movc3.cpp - The §4.3 failure case ------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// §4.3: VAX movc3 vs Pascal string assignment. The analysis needs the
// no-overlap condition
//
//     (Src.Base + Src.Length <= Dst.Base) or
//     (Dst.Base + Dst.Length <= Src.Base)
//
// — a constraint over several operands, which the 1982 EXTRA could not
// represent. Base mode reproduces the failure; extension mode (the
// paper's first direction for future research) records the condition as
// a relational constraint backed by the Pascal no-overlap axiom and
// completes the analysis, differential checks included.
//
// Exits 1 when base mode succeeds or extension mode fails.
//
//===----------------------------------------------------------------------===//

#include "analysis/Derivations.h"

#include <cstdio>

using namespace extra;
using namespace extra::analysis;

/// Prints both modes; true when base mode fails and extension mode
/// succeeds, as the paper has it.
static bool printCase() {
  const AnalysisCase &Case = movc3SassignCase();

  std::printf("==== §4.3: movc3 / Pascal sassign ====\n\n");
  AnalysisResult Base = runAnalysis(Case, Mode::Base);
  std::printf("--- base mode (the 1982 system) ---\n");
  std::printf("succeeded: %s\nreason: %s\n\n",
              Base.Succeeded ? "yes (UNEXPECTED)" : "no",
              Base.FailureReason.c_str());

  AnalysisResult Ext = runAnalysis(Case, Mode::Extension);
  std::printf("--- extension mode (the paper's future work, "
              "implemented) ---\n");
  if (!Ext.Succeeded) {
    std::printf("FAILED: %s\n", Ext.FailureReason.c_str());
    return false;
  }
  std::printf("succeeded: yes, %u verified steps (operator %u + "
              "instruction %u)\n\n",
              Ext.StepsApplied, Ext.OperatorSteps, Ext.InstructionSteps);
  std::printf("binding:\n%s\n", Ext.Binding.str().c_str());
  std::printf("constraints (note the relational one):\n%s\n",
              Ext.Constraints.str().c_str());
  std::printf("The differential checks drew only operand sets satisfying "
              "the no-overlap\npredicate — the domain on which Pascal "
              "guarantees the equivalence.\n\n");
  return !Base.Succeeded;
}

int main() { return printCase() ? 0 : 1; }
