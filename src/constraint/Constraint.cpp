//===- Constraint.cpp - Operand constraints from analysis -------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "constraint/Constraint.h"

#include "isdl/Equiv.h"
#include "isdl/Printer.h"

using namespace extra;
using namespace extra::constraint;

Constraint Constraint::value(std::string Name, int64_t V, std::string Note) {
  Constraint C;
  C.K = ConstraintKind::Value;
  C.Operand = std::move(Name);
  C.Value = V;
  C.Note = std::move(Note);
  return C;
}

Constraint Constraint::range(std::string Name, int64_t Lo, int64_t Hi,
                             std::string Note) {
  assert(Lo <= Hi && "empty range constraint");
  Constraint C;
  C.K = ConstraintKind::Range;
  C.Operand = std::move(Name);
  C.Lo = Lo;
  C.Hi = Hi;
  C.Note = std::move(Note);
  return C;
}

Constraint Constraint::offset(std::string Name, int64_t Delta,
                              std::string Note) {
  Constraint C;
  C.K = ConstraintKind::Offset;
  C.Operand = std::move(Name);
  C.Value = Delta;
  C.Note = std::move(Note);
  return C;
}

Constraint Constraint::relational(isdl::ExprPtr Pred, std::string Axiom,
                                  std::string Note) {
  assert(Pred && "relational constraint needs a predicate");
  Constraint C;
  C.K = ConstraintKind::Relational;
  C.Pred = std::move(Pred);
  C.Axiom = std::move(Axiom);
  C.Note = std::move(Note);
  return C;
}

Constraint &Constraint::operator=(const Constraint &O) {
  if (this == &O)
    return *this;
  K = O.K;
  Operand = O.Operand;
  Value = O.Value;
  Lo = O.Lo;
  Hi = O.Hi;
  Pred = O.Pred ? O.Pred->clone() : nullptr;
  Axiom = O.Axiom;
  Note = O.Note;
  return *this;
}

std::string Constraint::str() const {
  std::string Out;
  switch (K) {
  case ConstraintKind::Value:
    Out = "value: " + Operand + " = " + std::to_string(Value);
    break;
  case ConstraintKind::Range:
    Out = "range: " + std::to_string(Lo) + " <= " + Operand +
          " <= " + std::to_string(Hi);
    break;
  case ConstraintKind::Offset:
    Out = "offset: encode " + Operand + " as " + Operand +
          (Value >= 0 ? " + " + std::to_string(Value)
                      : " - " + std::to_string(-Value));
    break;
  case ConstraintKind::Relational:
    Out = "relational: " + isdl::printExpr(*Pred) + " [axiom: " + Axiom + "]";
    break;
  }
  if (!Note.empty())
    Out += "  ! " + Note;
  return Out;
}

SatResult constraint::check(const Constraint &C, const CompileTimeFacts &Facts,
                            bool AllowRewriting) {
  switch (C.kind()) {
  case ConstraintKind::Value: {
    auto It = Facts.KnownValues.find(C.operand());
    if (It != Facts.KnownValues.end())
      return It->second == C.valueOrDelta() ? SatResult::Satisfied
                                            : SatResult::Violated;
    // The compiler can materialize the value (e.g. `cld` to clear df).
    return SatResult::Satisfiable;
  }
  case ConstraintKind::Range: {
    auto ItV = Facts.KnownValues.find(C.operand());
    if (ItV != Facts.KnownValues.end()) {
      if (ItV->second >= C.lo() && ItV->second <= C.hi())
        return SatResult::Satisfied;
      return AllowRewriting ? SatResult::Satisfiable : SatResult::Violated;
    }
    auto ItR = Facts.KnownRanges.find(C.operand());
    if (ItR != Facts.KnownRanges.end()) {
      if (ItR->second.first >= C.lo() && ItR->second.second <= C.hi())
        return SatResult::Satisfied;
      if (ItR->second.first > C.hi() || ItR->second.second < C.lo())
        return AllowRewriting ? SatResult::Satisfiable : SatResult::Violated;
    }
    // Unknown operand range: a rewriting rule (e.g. chunked moves, §6) can
    // always force the range when permitted.
    return AllowRewriting ? SatResult::Satisfiable : SatResult::Unknown;
  }
  case ConstraintKind::Offset:
    // A directive to the compiler. Encoding `operand + delta` into the
    // instruction needs the operand's value; without it only a rewriting
    // rule can comply.
    if (AllowRewriting || Facts.KnownValues.count(C.operand()))
      return SatResult::Satisfiable;
    return SatResult::Unknown;
  case ConstraintKind::Relational:
    return Facts.Axioms.count(C.axiom()) ? SatResult::Satisfied
                                         : SatResult::Unknown;
  }
  return SatResult::Unknown;
}

void ConstraintSet::add(Constraint C) {
  for (const Constraint &Existing : Items)
    if (Existing.str() == C.str())
      return;
  Items.push_back(std::move(C));
}

void ConstraintSet::truncate(size_t N) {
  if (N < Items.size())
    Items.erase(Items.begin() + static_cast<long>(N), Items.end());
}

bool ConstraintSet::hasRelational() const {
  for (const Constraint &C : Items)
    if (C.kind() == ConstraintKind::Relational)
      return true;
  return false;
}

SatResult ConstraintSet::checkAll(const CompileTimeFacts &Facts,
                                  bool AllowRewriting) const {
  SatResult Worst = SatResult::Satisfied;
  auto Rank = [](SatResult R) {
    switch (R) {
    case SatResult::Satisfied:
      return 0;
    case SatResult::Satisfiable:
      return 1;
    case SatResult::Unknown:
      return 2;
    case SatResult::Violated:
      return 3;
    }
    return 3;
  };
  for (const Constraint &C : Items) {
    SatResult R = check(C, Facts, AllowRewriting);
    if (Rank(R) > Rank(Worst))
      Worst = R;
  }
  return Worst;
}

std::string ConstraintSet::str() const {
  std::string Out;
  for (const Constraint &C : Items) {
    Out += C.str();
    Out += '\n';
  }
  return Out;
}
