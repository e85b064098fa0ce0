//===- Derivations.h - The recorded derivation corpus -----------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recorded derivations for the eleven successful analyses of
/// Table 2, two pairings beyond it, and the §4.3 movc3/sassign case. Each
/// derivation plays the role of the 1982 user session: an ordered list of
/// transformation applications that the engine verifies and applies.
///
/// The steps live only in the scripts/ files, one per side of each case,
/// compiled into the library at build time; Derivations.cpp adds each
/// case's Table 2 columns and fixes the corpus order.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_ANALYSIS_DERIVATIONS_H
#define EXTRA_ANALYSIS_DERIVATIONS_H

#include "analysis/Analysis.h"
#include "support/Error.h"

#include <map>
#include <span>
#include <string_view>

namespace extra {
namespace analysis {

/// The recorded corpus, in order: Table 2 in table order, then 8086 stosb
/// and VAX skpc, then the §4.3 movc3/sassign case.
const std::vector<AnalysisCase> &corpus();

/// The eleven successful analyses of Table 2, in table order.
std::span<const AnalysisCase> table2Cases();

/// Analyses beyond the paper's Table 2 (PaperSteps = 0), demonstrating
/// that the machinery generalizes: 8086 stosb as PC2 block clear, and
/// VAX skpc as a Rigel span operator.
std::span<const AnalysisCase> extendedCases();

/// The §4.3 case: VAX movc3 against Pascal string assignment. Fails in
/// base mode (the no-overlap condition is a relational constraint);
/// succeeds in extension mode.
const AnalysisCase &movc3SassignCase();

/// Looks up a corpus case by Id ("<instruction>/<operator>"). Null when
/// unknown.
const AnalysisCase *findCase(const std::string &Id);

/// Derivation script files by name: `<case>.operator.script` and
/// `<case>.instruction.script`, the case id's '/' written as '_'.
using ScriptFiles = std::map<std::string, std::string>;

/// The scripts/ directory as it was at build time.
const ScriptFiles &shippedScripts();

/// Parses the script file \p Name. On failure, a Parse fault whose
/// message names the file and carries the parser's diagnostics.
Expected<transform::Script> parseScriptFile(const std::string &Name,
                                            std::string_view Text);

} // namespace analysis
} // namespace extra

#endif // EXTRA_ANALYSIS_DERIVATIONS_H
