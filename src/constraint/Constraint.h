//===- Constraint.h - Operand constraints from analysis ---------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constraints uncovered while proving a language operator equivalent to
/// an exotic instruction. The paper's EXTRA handles exactly three simple
/// forms (§4.3): an operand constrained to a value, to a range, or offset
/// by a value (the IBM 370 `mvc` length-minus-one *coding constraint*,
/// §4.2). Relational constraints over several operands — the `movc3`
/// no-overlap condition — are beyond the 1982 system and are implemented
/// here as the paper's proposed extension; the analysis driver accepts
/// them only in extension mode.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_CONSTRAINT_CONSTRAINT_H
#define EXTRA_CONSTRAINT_CONSTRAINT_H

#include "isdl/AST.h"

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace extra {
namespace constraint {

/// Constraint kinds. Value/Range/Offset are the paper's "simple"
/// constraints; Relational is the §7 future-work extension.
enum class ConstraintKind {
  Value,      ///< Operand must equal a specific value (fixed flag).
  Range,      ///< Operand must lie in [Lo, Hi] (register width bound).
  Offset,     ///< Coding constraint: encode operand as (operand + Delta).
  Relational, ///< Predicate over several operands (e.g. no-overlap).
};

/// One constraint attached to an operator/instruction binding.
class Constraint {
public:
  /// Operand \p Name must have value \p V at every use of the binding.
  static Constraint value(std::string Name, int64_t V, std::string Note = "");
  /// Operand \p Name must lie within [Lo, Hi].
  static Constraint range(std::string Name, int64_t Lo, int64_t Hi,
                          std::string Note = "");
  /// The compiler must encode \p Name as `Name + Delta` (a directive, not
  /// a run-time condition; `mvc` uses Delta = -1).
  static Constraint offset(std::string Name, int64_t Delta,
                           std::string Note = "");
  /// Predicate over several operands; \p Axiom names the source-language
  /// guarantee that discharges it (e.g. "pascal.no-overlap").
  static Constraint relational(isdl::ExprPtr Pred, std::string Axiom,
                               std::string Note = "");

  Constraint(const Constraint &O) { *this = O; }
  Constraint &operator=(const Constraint &O);
  Constraint(Constraint &&) = default;
  Constraint &operator=(Constraint &&) = default;

  ConstraintKind kind() const { return K; }
  const std::string &operand() const { return Operand; }
  int64_t valueOrDelta() const { return Value; }
  int64_t lo() const { return Lo; }
  int64_t hi() const { return Hi; }
  const isdl::Expr *pred() const { return Pred.get(); }
  const std::string &axiom() const { return Axiom; }
  const std::string &note() const { return Note; }

  /// True for the simple forms representable by the 1982 system.
  bool isSimple() const { return K != ConstraintKind::Relational; }

  /// Renders e.g. "value: df = 0", "range: 0 <= Src.Length <= 65535",
  /// "offset: encode Length as Length - 1", "relational: ... [axiom]".
  std::string str() const;

private:
  Constraint() = default;

  ConstraintKind K = ConstraintKind::Value;
  std::string Operand;
  int64_t Value = 0;
  int64_t Lo = 0, Hi = 0;
  isdl::ExprPtr Pred;
  std::string Axiom;
  std::string Note;
};

/// Compile-time knowledge the code generator holds when it considers
/// using a binding at a particular program point.
struct CompileTimeFacts {
  /// Operand names with known constant values (from constant propagation
  /// in the compiler front end).
  std::map<std::string, int64_t> KnownValues;
  /// Known inclusive ranges for operands (e.g. a declared string's
  /// maximum length).
  std::map<std::string, std::pair<int64_t, int64_t>> KnownRanges;
  /// Source-language axioms that hold at this point (e.g.
  /// "pascal.no-overlap": Pascal strings never alias).
  std::set<std::string> Axioms;
};

/// Outcome of checking one constraint against facts.
enum class SatResult {
  Satisfied,   ///< Provably holds; the instruction can be emitted as-is.
  Satisfiable, ///< Holds if the compiler emits setup/rewrite code.
  Violated,    ///< Provably fails; the binding cannot be used here.
  Unknown,     ///< Cannot be decided from the facts.
};

/// Checks \p C against \p Facts.
///
/// Value constraints on instruction flags are Satisfiable (the compiler
/// can set the flag); Range constraints are Satisfied when the known
/// range fits, Satisfiable when a rewriting rule (e.g. chunked moves) is
/// allowed, Violated when a known value falls outside; Offset constraints
/// are directives, Satisfiable when rewriting is allowed or the operand's
/// value is known and Unknown otherwise; Relational constraints are
/// Satisfied exactly when their axiom is among \p Facts.Axioms.
SatResult check(const Constraint &C, const CompileTimeFacts &Facts,
                bool AllowRewriting = true);

/// An ordered collection of constraints with set-like deduplication.
class ConstraintSet {
public:
  void add(Constraint C);
  const std::vector<Constraint> &items() const { return Items; }
  bool empty() const { return Items.empty(); }
  size_t size() const { return Items.size(); }

  /// True when any member is Relational (unrepresentable in base mode).
  bool hasRelational() const;

  /// Worst-case result over all members (Violated > Unknown > Satisfiable
  /// > Satisfied).
  SatResult checkAll(const CompileTimeFacts &Facts,
                     bool AllowRewriting = true) const;

  /// Drops constraints beyond the first \p N (supports engine undo).
  void truncate(size_t N);

  /// One constraint per line.
  std::string str() const;

private:
  std::vector<Constraint> Items;
};

} // namespace constraint
} // namespace extra

#endif // EXTRA_CONSTRAINT_CONSTRAINT_H
