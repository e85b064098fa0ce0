//===- constraint_test.cpp - Constraint system unit tests -------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "constraint/Constraint.h"

#include "isdl/Parser.h"

#include <gtest/gtest.h>

using namespace extra;
using namespace extra::constraint;

namespace {

isdl::ExprPtr pred(const char *Src) {
  DiagnosticEngine Diags;
  auto E = isdl::parseExpr(Src, Diags);
  EXPECT_TRUE(E && !Diags.hasErrors());
  return E;
}

TEST(ConstraintTest, Printing) {
  EXPECT_EQ(Constraint::value("df", 0).str(), "value: df = 0");
  EXPECT_EQ(Constraint::range("len", 0, 65535).str(),
            "range: 0 <= len <= 65535");
  EXPECT_EQ(Constraint::offset("Len", -1).str(),
            "offset: encode Len as Len - 1");
  EXPECT_EQ(Constraint::offset("x", 2).str(), "offset: encode x as x + 2");
  std::string R =
      Constraint::relational(pred("a + n <= b"), "pascal.no-overlap").str();
  EXPECT_NE(R.find("relational: a + n <= b"), std::string::npos);
  EXPECT_NE(R.find("pascal.no-overlap"), std::string::npos);
}

TEST(ConstraintTest, NotesAppended) {
  EXPECT_NE(Constraint::value("rf", 1, "set by rep prefix").str().find(
                "! set by rep prefix"),
            std::string::npos);
}

TEST(ConstraintTest, SimplePredicate) {
  EXPECT_TRUE(Constraint::value("a", 1).isSimple());
  EXPECT_TRUE(Constraint::range("a", 0, 3).isSimple());
  EXPECT_TRUE(Constraint::offset("a", -1).isSimple());
  EXPECT_FALSE(Constraint::relational(pred("a = b"), "x").isSimple());
}

TEST(ConstraintTest, CopyPreservesPredicate) {
  Constraint A = Constraint::relational(pred("a < b"), "ax");
  Constraint B = A; // deep copy of the predicate
  EXPECT_EQ(A.str(), B.str());
}

TEST(CheckTest, ValueConstraint) {
  Constraint C = Constraint::value("df", 0);
  CompileTimeFacts Facts;
  // Unknown: the compiler can establish the value (cld).
  EXPECT_EQ(check(C, Facts), SatResult::Satisfiable);
  Facts.KnownValues["df"] = 0;
  EXPECT_EQ(check(C, Facts), SatResult::Satisfied);
  Facts.KnownValues["df"] = 1;
  EXPECT_EQ(check(C, Facts), SatResult::Violated);
}

TEST(CheckTest, RangeConstraintWithKnownValue) {
  Constraint C = Constraint::range("len", 1, 256);
  CompileTimeFacts Facts;
  Facts.KnownValues["len"] = 100;
  EXPECT_EQ(check(C, Facts), SatResult::Satisfied);
  Facts.KnownValues["len"] = 300;
  EXPECT_EQ(check(C, Facts, /*AllowRewriting=*/true),
            SatResult::Satisfiable);
  EXPECT_EQ(check(C, Facts, /*AllowRewriting=*/false), SatResult::Violated);
}

TEST(CheckTest, RangeConstraintWithKnownRange) {
  Constraint C = Constraint::range("len", 0, 65535);
  CompileTimeFacts Facts;
  Facts.KnownRanges["len"] = {0, 255};
  EXPECT_EQ(check(C, Facts), SatResult::Satisfied);
  Facts.KnownRanges["len"] = {0, 100000};
  EXPECT_EQ(check(C, Facts, /*AllowRewriting=*/false), SatResult::Unknown);
}

TEST(CheckTest, RangeConstraintUnknownOperand) {
  Constraint C = Constraint::range("len", 0, 255);
  CompileTimeFacts Facts;
  EXPECT_EQ(check(C, Facts, /*AllowRewriting=*/true),
            SatResult::Satisfiable);
  EXPECT_EQ(check(C, Facts, /*AllowRewriting=*/false), SatResult::Unknown);
}

TEST(CheckTest, OffsetIsAlwaysADirective) {
  CompileTimeFacts Facts;
  EXPECT_EQ(check(Constraint::offset("Len", -1), Facts),
            SatResult::Satisfiable);
  // Without rewriting, the length can be encoded only when it is known.
  EXPECT_EQ(check(Constraint::offset("Len", -1), Facts,
                  /*AllowRewriting=*/false),
            SatResult::Unknown);
  Facts.KnownRanges["Len"] = {1, 100};
  EXPECT_EQ(check(Constraint::offset("Len", -1), Facts,
                  /*AllowRewriting=*/false),
            SatResult::Unknown);
  Facts.KnownValues["Len"] = 12;
  EXPECT_EQ(check(Constraint::offset("Len", -1), Facts,
                  /*AllowRewriting=*/false),
            SatResult::Satisfiable);
}

TEST(CheckTest, RelationalNeedsAxiom) {
  Constraint C = Constraint::relational(pred("a + n <= b"),
                                        "pascal.no-overlap");
  CompileTimeFacts Facts;
  EXPECT_EQ(check(C, Facts), SatResult::Unknown);
  Facts.Axioms.insert("pascal.no-overlap");
  EXPECT_EQ(check(C, Facts), SatResult::Satisfied);
}

TEST(ConstraintSetTest, DeduplicatesByRendering) {
  ConstraintSet S;
  S.add(Constraint::value("df", 0));
  S.add(Constraint::value("df", 0));
  S.add(Constraint::value("df", 1));
  EXPECT_EQ(S.size(), 2u);
}

TEST(ConstraintSetTest, CheckAllTakesWorst) {
  ConstraintSet S;
  S.add(Constraint::value("rf", 1));
  CompileTimeFacts Facts;
  Facts.KnownValues["rf"] = 1;
  EXPECT_EQ(S.checkAll(Facts), SatResult::Satisfied);
  S.add(Constraint::value("df", 0)); // unknown -> satisfiable
  EXPECT_EQ(S.checkAll(Facts), SatResult::Satisfiable);
  S.add(Constraint::relational(pred("a < b"), "ax")); // no axiom -> unknown
  EXPECT_EQ(S.checkAll(Facts), SatResult::Unknown);
  Facts.KnownValues["df"] = 1; // violated dominates
  EXPECT_EQ(S.checkAll(Facts), SatResult::Violated);
}

TEST(ConstraintSetTest, HasRelational) {
  ConstraintSet S;
  S.add(Constraint::range("a", 0, 1));
  EXPECT_FALSE(S.hasRelational());
  S.add(Constraint::relational(pred("a = b"), "x"));
  EXPECT_TRUE(S.hasRelational());
}

TEST(ConstraintSetTest, EmptySetIsSatisfied) {
  ConstraintSet S;
  EXPECT_EQ(S.checkAll(CompileTimeFacts{}), SatResult::Satisfied);
  EXPECT_TRUE(S.empty());
}

} // namespace
