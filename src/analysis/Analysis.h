//===- Analysis.h - The EXTRA analysis driver -------------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top of the system: proves a language operator equivalent to an
/// exotic instruction by replaying a derivation script on each side,
/// checking the common form, deriving register-size constraints from the
/// name binding, and differentially validating the whole derivation.
///
/// In the paper the scripts were interactive user sessions; here they are
/// recorded Step sequences (the scripts/ files behind
/// analysis/Derivations.h hold the eleven of Table 2, two more pairings
/// and the §4.3 movc3 case). The engine still *verifies* every step
/// exactly as EXTRA did.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_ANALYSIS_ANALYSIS_H
#define EXTRA_ANALYSIS_ANALYSIS_H

#include "analysis/DiffCheck.h"
#include "constraint/Constraint.h"
#include "isdl/Equiv.h"
#include "transform/Transform.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace extra {
namespace analysis {

/// Whether relational (multi-operand) constraints are accepted. Base
/// reproduces the 1982 system, which "can only deal with simple
/// constraints" (§4.3); Extension implements the paper's proposed
/// future-work support for source-language axioms like Pascal's
/// no-overlap rule.
enum class Mode { Base, Extension };

/// Stable spelled name of a mode ("base" / "extension") — the wire and
/// registry serialization of Mode.
const char *modeName(Mode M);

/// Parses a spelled mode name back; nullopt for unknown text.
std::optional<Mode> modeFromName(std::string_view Name);

/// One analysis to perform: the pairing of an operator and an
/// instruction, with the derivation scripts for both sides.
struct AnalysisCase {
  std::string Id;            ///< e.g. "i8086.scasb/rigel.index".
  std::string Machine;       ///< Table 2 column 1.
  std::string Instruction;   ///< Table 2 column 2.
  std::string Language;      ///< Table 2 column 3.
  std::string Operation;     ///< Table 2 column 4.
  unsigned PaperSteps = 0;   ///< Table 2 column 5.
  std::string OperatorId;    ///< Description library id.
  std::string InstructionId; ///< Description library id.
  transform::Script OperatorScript;
  transform::Script InstructionScript;
  /// True when the derivation needs relational constraints (§4.3).
  bool RequiresExtension = false;
};

/// The outcome of one analysis.
struct AnalysisResult {
  bool Succeeded = false;
  std::string FailureReason;
  /// Transformation steps applied (operator + instruction side), the
  /// analog of Table 2's "Steps" column.
  unsigned StepsApplied = 0;
  unsigned OperatorSteps = 0;
  unsigned InstructionSteps = 0;
  /// Operator-name to instruction-register binding from the common form.
  isdl::NameBinding Binding;
  /// All constraints: recorded by the scripts plus register-size ranges
  /// derived from the binding.
  constraint::ConstraintSet Constraints;
  /// The final (simplified + augmented) instruction description — what
  /// gets bound to the intermediate-language operator.
  std::string AugmentedInstruction;
  /// The transformed operator description (common form witness).
  std::string TransformedOperator;
};

/// Runs one analysis end to end.
///
/// Verification layers: (1) every script step checks its own
/// applicability conditions; (2) each non-augmenting step is
/// differentially tested; (3) the final forms must match modulo renaming;
/// (4) the *original* operator description is differentially compared
/// against the final augmented instruction, with inputs mapped through
/// the operator-side refinement adapters (this is what validates the
/// user-specified augments).
AnalysisResult runAnalysis(const AnalysisCase &Case, Mode M = Mode::Base,
                           const DiffOptions &Opts = {});

/// Derives register-size range constraints from a binding: an operator
/// operand bound to a narrower instruction register must fit in it (e.g.
/// a string length bound to cx acquires 0..65535 — §4.1).
void deriveBindingConstraints(const isdl::Description &OperatorDesc,
                              const isdl::Description &InstructionDesc,
                              const isdl::NameBinding &Binding,
                              constraint::ConstraintSet &Out);

/// True when \p S uses a rule only available in Extension mode.
bool isExtensionStep(const transform::Step &S);

} // namespace analysis
} // namespace extra

#endif // EXTRA_ANALYSIS_ANALYSIS_H
