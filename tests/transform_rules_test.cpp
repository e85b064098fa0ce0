//===- transform_rules_test.cpp - Remaining rule coverage -------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Coverage for the rules the derivation scripts exercise only lightly
/// (routine structuring, textual constraint lifting, flag inversion,
/// permutation) plus negative cases for their applicability conditions.
///
//===----------------------------------------------------------------------===//

#include "transform/Transform.h"

#include "interp/Interp.h"
#include "isdl/Parser.h"
#include "isdl/Printer.h"

#include <gtest/gtest.h>

using namespace extra;
using namespace extra::transform;
using namespace extra::isdl;

namespace {

std::unique_ptr<Description> desc(std::string_view Src) {
  DiagnosticEngine Diags;
  auto D = parseDescription(Src, Diags);
  EXPECT_TRUE(D && !Diags.hasErrors()) << Diags.str();
  return D;
}

TEST(RoutineRuleTest, SplitRoutineRetargetsOneCallSite) {
  auto D = desc(R"(
t := begin
  ** S **
    p: integer, x: integer, y: integer,
    f(): integer := begin f <- Mb[p]; p <- p + 1; end
    t.execute := begin
      input (p);
      x <- f();
      y <- f();
      output (x, y);
    end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(E.apply({"split-routine", "",
                       {{"name", "f"}, {"new-name", "f2"},
                        {"occurrence", "1"}}})
                  .Applied);
  const Description &After = E.current();
  ASSERT_NE(After.findRoutine("f2"), nullptr);
  std::string Body = printStmts(After.entryRoutine()->Body);
  EXPECT_NE(Body.find("x <- f();"), std::string::npos);
  EXPECT_NE(Body.find("y <- f2();"), std::string::npos);

  interp::Memory M;
  M[5] = 10;
  M[6] = 20;
  auto Before = interp::run(*D, {5}, M);
  auto AfterRun = interp::run(After, {5}, M);
  EXPECT_EQ(Before.Outputs, AfterRun.Outputs);
}

TEST(RoutineRuleTest, MergeIdenticalRoutines) {
  auto D = desc(R"(
t := begin
  ** S **
    p: integer, x: integer, y: integer,
    f(): integer := begin f <- Mb[p]; p <- p + 1; end
    g(): integer := begin g <- Mb[p]; p <- p + 1; end
    t.execute := begin
      input (p);
      x <- f();
      y <- g();
      output (x, y);
    end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(E.apply({"merge-identical-routines", "",
                       {{"a", "f"}, {"b", "g"}}})
                  .Applied);
  EXPECT_EQ(E.current().findRoutine("g"), nullptr);
  EXPECT_NE(printStmts(E.current().entryRoutine()->Body).find("y <- f();"),
            std::string::npos);

  interp::Memory M;
  M[5] = 1;
  M[6] = 2;
  EXPECT_EQ(interp::run(*D, {5}, M).Outputs,
            interp::run(E.current(), {5}, M).Outputs);
}

TEST(RoutineRuleTest, MergeRefusesDifferentBodies) {
  auto D = desc(R"(
t := begin
  ** S **
    p: integer, x: integer,
    f(): integer := begin f <- Mb[p]; p <- p + 1; end
    g(): integer := begin g <- Mb[p]; p <- p - 1; end
    t.execute := begin input (p); x <- f() + g(); output (x); end
end
)");
  Engine E(D->clone());
  EXPECT_FALSE(E.apply({"merge-identical-routines", "",
                        {{"a", "f"}, {"b", "g"}}})
                   .Applied);
}

TEST(RoutineRuleTest, DeadRoutineElim) {
  auto D = desc(R"(
t := begin
  ** S **
    a: integer,
    unused(): integer := begin unused <- a + 1; end
    t.execute := begin input (a); output (a); end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(
      E.apply({"dead-routine-elim", "", {{"name", "unused"}}}).Applied);
  EXPECT_EQ(E.current().findRoutine("unused"), nullptr);
  // Cannot remove the entry routine or a live routine.
  EXPECT_FALSE(
      E.apply({"dead-routine-elim", "", {{"name", "t.execute"}}}).Applied);
}

TEST(ConstraintRuleTest, LiftConstrainValueAndRange) {
  auto D = desc(R"(
t := begin
  ** S **
    n: integer,
    t.execute := begin
      input (n);
      constrain value: n = 4;
      constrain range: n >= 1 and n <= 256;
      output (n);
    end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(E.apply({"lift-constrain", "", {}}).Applied);
  ASSERT_TRUE(E.apply({"lift-constrain", "", {}}).Applied);
  EXPECT_FALSE(E.apply({"lift-constrain", "", {}}).Applied);
  std::string C = E.constraints().str();
  EXPECT_NE(C.find("value: n = 4"), std::string::npos) << C;
  EXPECT_NE(C.find("range: 1 <= n <= 256"), std::string::npos) << C;
  EXPECT_EQ(printStmts(E.current().entryRoutine()->Body).find("constrain"),
            std::string::npos);
}

TEST(LocalRuleTest, InvertFlagRejectsOutputsAndInputs) {
  auto D = desc(R"(
t := begin
  ** S **
    f<>, a: integer,
    t.execute := begin
      input (a);
      if a = 0 then f <- 1; else f <- 0; end_if;
      output (f);
    end
end
)");
  Engine E(D->clone());
  ApplyResult R = E.apply({"invert-flag", "", {{"var", "f"}}});
  EXPECT_FALSE(R.Applied);
  EXPECT_NE(R.Reason.find("output"), std::string::npos);

  auto D2 = desc(R"(
t := begin
  ** S **
    f<>, a: integer,
    t.execute := begin
      input (f, a);
      if f then output (a); else output (0); end_if;
    end
end
)");
  Engine E2(D2->clone());
  EXPECT_FALSE(E2.apply({"invert-flag", "", {{"var", "f"}}}).Applied);
}

TEST(LocalRuleTest, InvertFlagPreservesSemantics) {
  auto D = desc(R"(
t := begin
  ** S **
    f<>, a: integer,
    t.execute := begin
      input (a);
      f <- 0;
      repeat
        exit_when (a = 0);
        if a = 3 then f <- 1; else f <- 0; end_if;
        exit_when (f);
        a <- a - 1;
      end_repeat;
      if f then output (1); else output (2); end_if;
    end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(E.apply({"invert-flag", "", {{"var", "f"}}}).Applied);
  for (int64_t A : {0, 1, 3, 7}) {
    auto X = interp::run(*D, {A});
    auto Y = interp::run(E.current(), {A});
    ASSERT_TRUE(X.Ok && Y.Ok);
    EXPECT_EQ(X.Outputs, Y.Outputs) << A;
  }
}

TEST(LocalRuleTest, InvertFlagRejectsAssertedFlag) {
  auto D = desc(R"(
t := begin
  ** S **
    f<>, a: integer,
    t.execute := begin
      input (a);
      if a = 0 then f <- 1; else f <- 0; end_if;
      assert f = 0 or f = 1;
      if f then a <- 1; end_if;
      output (a);
    end
end
)");
  Engine E(D->clone());
  ApplyResult R = E.apply({"invert-flag", "", {{"var", "f"}}});
  EXPECT_FALSE(R.Applied);
  EXPECT_NE(R.Reason.find("assertion"), std::string::npos);
}

TEST(RoutineRuleTest, RenameVariableReachesAssertions) {
  auto D = desc(R"(
t := begin
  ** S **
    n: integer,
    t.execute := begin
      input (n);
      assert n >= 0;
      output (n);
    end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(
      E.apply({"rename-variable", "", {{"from", "n"}, {"to", "m"}}}).Applied);
  std::string Out = printStmts(E.current().entryRoutine()->Body);
  EXPECT_NE(Out.find("assert m >= 0;"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("n >= 0"), std::string::npos);
}

TEST(ConstraintRuleTest, PermuteInputsValidation) {
  auto D = desc(R"(
t := begin
  ** S **
    a: integer, b: integer, c: integer,
    t.execute := begin input (a, b, c); output (a - b, c); end
end
)");
  Engine E(D->clone());
  // Bad permutations are rejected.
  EXPECT_FALSE(E.apply({"permute-inputs", "", {{"order", "0,1"}}}).Applied);
  EXPECT_FALSE(
      E.apply({"permute-inputs", "", {{"order", "0,0,1"}}}).Applied);
  EXPECT_FALSE(
      E.apply({"permute-inputs", "", {{"order", "0,1,5"}}}).Applied);
  // A good one reorders and supplies an adapter.
  ApplyResult R = E.apply({"permute-inputs", "", {{"order", "2,0,1"}}});
  ASSERT_TRUE(R.Applied);
  ASSERT_TRUE(R.Adapter);
  // New order is (c, a, b); new inputs (x,y,z) map to old (y,z,x).
  EXPECT_EQ(R.Adapter({10, 20, 30}), (std::vector<int64_t>{20, 30, 10}));
  auto Old = interp::run(*D, {20, 30, 10});
  auto New = interp::run(E.current(), {10, 20, 30});
  EXPECT_EQ(Old.Outputs, New.Outputs);
}

TEST(LocalRuleTest, FoldConstChain) {
  auto D = desc(R"(
t := begin
  ** S **
    a: integer, b: integer,
    t.execute := begin input (a); b <- a + 3 - 5; output (b); end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(E.apply({"fold-const-chain", "", {}}).Applied);
  EXPECT_NE(printStmts(E.current().entryRoutine()->Body).find("b <- a - 2;"),
            std::string::npos);
}

TEST(CodeMotionRuleTest, MoveDownAcrossExitChecksLiveness) {
  auto D = desc(R"(
t := begin
  ** S **
    n: integer, s: integer, f<>,
    t.execute := begin
      input (n, s);
      f <- 0;
      repeat
        exit_when (n = 0);
        s <- s + 1;
        if s = 5 then f <- 1; else f <- 0; end_if;
        exit_when (f);
        n <- n - 1;
      end_repeat;
      output (s);
    end
end
)");
  // `s` is live after the loop (output); moving its update down across
  // the flag exit would change the exit-path value: refused.
  Engine E(D->clone());
  ApplyResult R = E.apply({"move-down", "", {{"var", "s"}}});
  EXPECT_FALSE(R.Applied);
}

TEST(CodeMotionRuleTest, FuseLoadStoreConditions) {
  auto D = desc(R"(
t := begin
  ** S **
    p: integer, q: integer, v: integer,
    t.execute := begin
      input (p, q);
      v <- Mb[p];
      Mb[q] <- v;
      output (v);
    end
end
)");
  // v is output afterwards: live, refuse.
  Engine E(D->clone());
  EXPECT_FALSE(E.apply({"fuse-load-store", "", {{"var", "v"}}}).Applied);

  auto D2 = desc(R"(
t := begin
  ** S **
    p: integer, q: integer, v: integer,
    t.execute := begin
      input (p, q);
      v <- Mb[p];
      Mb[q] <- v;
      output (q);
    end
end
)");
  Engine E2(D2->clone());
  ASSERT_TRUE(E2.apply({"fuse-load-store", "", {{"var", "v"}}}).Applied);
  EXPECT_NE(printStmts(E2.current().entryRoutine()->Body)
                .find("Mb[q] <- Mb[p];"),
            std::string::npos);
}

TEST(LoopRuleTest, RecordExitCauseRejectsDisturbedPrimary) {
  // A statement between the exits writes the primary condition's
  // variable: the discriminator argument breaks, the rule must refuse.
  auto D = desc(R"(
t := begin
  ** S **
    n: integer, c: character, p: integer, f<>,
    t.execute := begin
      input (p, n, c);
      repeat
        exit_when (n = 0);
        n <- n + 0;
        exit_when (c = Mb[p]);
        p <- p + 1;
        n <- n - 1;
      end_repeat;
      if n = 0 then output (0); else output (p); end_if;
    end
end
)");
  // Note: two assignments to n exist; the one between the exits is the
  // problem. (countExits = 2, body[0] is the primary.)
  Engine E(D->clone());
  ApplyResult R = E.apply({"record-exit-cause", "", {{"flag", "f"}}});
  EXPECT_FALSE(R.Applied);
  EXPECT_NE(R.Reason.find("writes a variable"), std::string::npos);
}

TEST(LoopRuleTest, ShiftCounterRejectsExtraReads) {
  auto D = desc(R"(
t := begin
  ** S **
    v: integer, w: integer, p: integer,
    t.execute := begin
      input (p, w);
      v <- w + 1;
      repeat
        Mb[p] <- v;
        p <- p + 1;
        v <- v - 1;
        exit_when (v = 0);
      end_repeat;
      output (p);
    end
end
)");
  // v is read by the loop body (stored to memory): cannot shift.
  Engine E(D->clone());
  ApplyResult R = E.apply({"shift-counter", "",
                           {{"old-var", "v"}, {"new-var", "w"}}});
  EXPECT_FALSE(R.Applied);
}

TEST(GlobalRuleTest, CopyPropagateRefusesLoopCarriedCopies) {
  // The copy's source is rewritten each iteration; propagating the copy
  // past the redefinition would be wrong, and the rule's unique-write
  // condition on the source must reject it.
  auto D = desc(R"(
t := begin
  ** S **
    a: integer, b: integer, n: integer,
    t.execute := begin
      input (n);
      a <- 0;
      repeat
        exit_when (n = 0);
        b <- a;
        a <- a + 1;
        n <- n - 1;
      end_repeat;
      output (b);
    end
end
)");
  Engine E(D->clone());
  EXPECT_FALSE(E.apply({"copy-propagate", "", {{"var", "b"}}}).Applied);
}

TEST(SwapCommutativeTest, OpFilterLimitsMatches) {
  auto D = desc(R"(
t := begin
  ** S **
    a: integer, b: integer, c: integer,
    t.execute := begin
      input (a, b);
      c <- a + b;
      c <- c * a;
      output (c);
    end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(E.apply({"swap-commutative", "", {{"op", "*"}}}).Applied);
  std::string Out = printStmts(E.current().entryRoutine()->Body);
  EXPECT_NE(Out.find("c <- a + b;"), std::string::npos); // untouched
  EXPECT_NE(Out.find("c <- a * c;"), std::string::npos); // swapped
}

//===----------------------------------------------------------------------===//
// First-match order and refusal reasons of the rules the searcher never
// proposes (so the frozen candidate table does not cover them)
//===----------------------------------------------------------------------===//

/// \p Text on one line: newlines and indentation become single spaces.
std::string flat(const std::string &Text) {
  std::string Out;
  for (char C : Text)
    if (C != ' ' && C != '\n')
      Out += C;
    else if (!Out.empty() && Out.back() != ' ')
      Out += ' ';
  while (!Out.empty() && Out.back() == ' ')
    Out.pop_back();
  return Out;
}

/// Applies \p S to \p D on a fresh engine: the entry body on one line
/// when the step applies, "refused: <reason>" when it does not.
std::string outcome(const Description &D, const Step &S,
                    const std::string &Pred = "") {
  Engine E(D.clone());
  if (!Pred.empty()) {
    EXPECT_TRUE(E.apply({"note-relational-constraint",
                         "",
                         {{"pred", Pred}, {"axiom", "test.axiom"}}})
                    .Applied);
  }
  ApplyResult R = E.apply(S);
  if (!R.Applied)
    return "refused: " + R.Reason;
  return flat(printStmts(E.current().entryRoutine()->Body));
}

const char *NestedIfs = R"(
t := begin
  ** S **
    a: integer, b: integer, x: integer,
    t.execute := begin
      input (a, b);
      if a = 0 then
        if b = 0 then x <- 1; else x <- 2; end_if;
      else
        if b = 1 then x <- 3; else x <- 4; end_if;
      end_if;
      repeat
        exit_when (b = 0);
        if a = b then x <- 5; else x <- 6; end_if;
        b <- b - 1;
      end_repeat;
      output (x);
    end
end
)";

TEST(ConstraintRuleTest, ResolveIfCountsIfsInPreOrder) {
  auto D = desc(NestedIfs);
  const std::string Ax = "a <> b";
  auto Resolve = [&](const char *Arm, const char *Occ) {
    return outcome(*D,
                   {"resolve-if-by-constraint", "",
                    {{"arm", Arm}, {"occurrence", Occ}}},
                   Ax);
  };
  // #0 is the outer if; #1 and #2 are its then- and else-arm ifs (then
  // before else); #3 is inside the loop.
  EXPECT_EQ(Resolve("else", "0"),
            "input (a, b); if b = 1 then x <- 3; else x <- 4; end_if; repeat "
            "exit_when (b = 0); if a = b then x <- 5; else x <- 6; end_if; b "
            "<- b - 1; end_repeat; output (x);");
  EXPECT_EQ(Resolve("then", "1"),
            "input (a, b); if a = 0 then x <- 1; else if b = 1 then x <- 3; "
            "else x <- 4; end_if; end_if; repeat exit_when (b = 0); if a = b "
            "then x <- 5; else x <- 6; end_if; b <- b - 1; end_repeat; "
            "output (x);");
  EXPECT_EQ(Resolve("else", "2"),
            "input (a, b); if a = 0 then if b = 0 then x <- 1; else x <- 2; "
            "end_if; else x <- 4; end_if; repeat exit_when (b = 0); if a = b "
            "then x <- 5; else x <- 6; end_if; b <- b - 1; end_repeat; "
            "output (x);");
  EXPECT_EQ(Resolve("then", "3"),
            "input (a, b); if a = 0 then if b = 0 then x <- 1; else x <- 2; "
            "end_if; else if b = 1 then x <- 3; else x <- 4; end_if; end_if; "
            "repeat exit_when (b = 0); x <- 5; b <- b - 1; end_repeat; "
            "output (x);");
  // Without an occurrence the first if is resolved.
  EXPECT_EQ(outcome(*D, {"resolve-if-by-constraint", "", {{"arm", "then"}}},
                    Ax),
            "input (a, b); if b = 0 then x <- 1; else x <- 2; end_if; repeat "
            "exit_when (b = 0); if a = b then x <- 5; else x <- 6; end_if; b "
            "<- b - 1; end_repeat; output (x);");
}

TEST(ConstraintRuleTest, ResolveIfRefusalReasons) {
  auto D = desc(NestedIfs);
  const std::string Ax = "a <> b";
  EXPECT_EQ(outcome(*D, {"resolve-if-by-constraint", "", {}}, Ax),
            "refused: missing required argument 'arm'");
  EXPECT_EQ(
      outcome(*D, {"resolve-if-by-constraint", "", {{"arm", "both"}}}, Ax),
      "refused: arm must be 'then' or 'else'");
  EXPECT_EQ(outcome(*D, {"resolve-if-by-constraint", "", {{"arm", "then"}}}),
            "refused: no relational constraint recorded; this rule is only "
            "justified by a source-language axiom (record one with "
            "note-relational-constraint first)");
  EXPECT_EQ(outcome(*D,
                    {"resolve-if-by-constraint", "",
                     {{"arm", "then"}, {"occurrence", "4"}}},
                    Ax),
            "refused: no if statement #4");
  EXPECT_EQ(outcome(*D,
                    {"resolve-if-by-constraint", "",
                     {{"arm", "then"}, {"occurrence", "one"}}},
                    Ax),
            "refused: argument 'occurrence' is not an integer: 'one'");
  EXPECT_EQ(outcome(*D,
                    {"resolve-if-by-constraint", "",
                     {{"arm", "then"}, {"occurrence", ""}}},
                    Ax),
            "refused: missing required argument 'occurrence'");
  EXPECT_EQ(outcome(*D,
                    {"resolve-if-by-constraint", "nowhere",
                     {{"arm", "then"}}},
                    Ax),
            "refused: no routine named 'nowhere' in description 't'");
}

TEST(ConstraintRuleTest, LiftConstrainTakesTheFirstInPreOrder) {
  auto D = desc(R"(
t := begin
  ** S **
    n: integer, m: integer,
    t.execute := begin
      input (n, m);
      if n = 0 then
        constrain value: m = 1;
      else
        constrain range: m >= 2 and m <= 9;
      end_if;
      constrain value: n = 4;
      repeat
        exit_when (m = 0);
        constrain nonzero: m <> 0;
        m <- m - 1;
      end_repeat;
      output (n);
    end
end
)");
  Engine E(D->clone());
  std::vector<std::string> Lifted;
  for (int I = 0; I < 4; ++I) {
    ASSERT_TRUE(E.apply({"lift-constrain", "", {}}).Applied) << I;
    Lifted.push_back(E.constraints().str());
  }
  ApplyResult Last = E.apply({"lift-constrain", "", {}});
  EXPECT_FALSE(Last.Applied);
  EXPECT_EQ(Last.Reason, "no liftable constrain statement");
  EXPECT_EQ(Lifted[0], "value: m = 1  ! from text\n");
  EXPECT_EQ(Lifted[1], "value: m = 1  ! from text\n"
                        "range: 2 <= m <= 9  ! from text\n");
  EXPECT_EQ(Lifted[2], "value: m = 1  ! from text\n"
                        "range: 2 <= m <= 9  ! from text\n"
                        "value: n = 4  ! from text\n");
  EXPECT_EQ(Lifted[3], "value: m = 1  ! from text\n"
                        "range: 2 <= m <= 9  ! from text\n"
                        "value: n = 4  ! from text\n"
                        "relational: m <> 0 [axiom: nonzero]  ! from text\n");
  EXPECT_EQ(flat(printStmts(E.current().entryRoutine()->Body)),
            "input (n, m); if n = 0 then end_if; repeat exit_when (m = 0); m "
            "<- m - 1; end_repeat; output (n);");
}

TEST(ConstraintRuleTest, LiftConstrainRefusesMalformedAnnotations) {
  auto D = desc(R"(
t := begin
  ** S **
    n: integer,
    t.execute := begin
      input (n);
      constrain value: n > 4;
      output (n);
    end
end
)");
  EXPECT_EQ(outcome(*D, {"lift-constrain", "", {}}),
            "refused: no liftable constrain statement");
  auto R = desc(R"(
t := begin
  ** S **
    n: integer,
    t.execute := begin
      input (n);
      constrain range: n >= 1 or n <= 4;
      output (n);
    end
end
)");
  EXPECT_EQ(outcome(*R, {"lift-constrain", "", {}}),
            "refused: no liftable constrain statement");
  EXPECT_EQ(outcome(*R, {"lift-constrain", "nowhere", {}}),
            "refused: no routine named 'nowhere' in description 't'");
}

TEST(ConstraintRuleTest, LiftConstrainPassesOverAnAnnotationItCannotRead) {
  // A malformed annotation stays where it is and the walk goes on to the
  // next constrain statement.
  auto D = desc(R"(
t := begin
  ** S **
    n: integer,
    t.execute := begin
      input (n);
      constrain value: n > 4;
      constrain value: n = 4;
      output (n);
    end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(E.apply({"lift-constrain", "", {}}).Applied);
  EXPECT_EQ(E.constraints().str(), "value: n = 4  ! from text\n");
  EXPECT_EQ(flat(printStmts(E.current().entryRoutine()->Body)),
            "input (n); constrain value: n > 4; output (n);");
  ApplyResult Again = E.apply({"lift-constrain", "", {}});
  EXPECT_FALSE(Again.Applied);
  EXPECT_EQ(Again.Reason, "no liftable constrain statement");
}

const char *TwoRoutineCalls = R"(
t := begin
  ** S **
    p: integer, x: integer, y: integer,
    f(): integer := begin f <- Mb[p]; p <- p + 1; end
    g(): integer := begin g <- f() + f(); end
    t.execute := begin
      input (p);
      x <- f() + g();
      if x = 0 then y <- f(); else y <- 0; end_if;
      output (x, y);
    end
end
)";

TEST(RoutineRuleTest, SplitRoutineCountsCallSitesInOrder) {
  auto D = desc(TwoRoutineCalls);
  auto Split = [&](const char *Occ) {
    Engine E(D->clone());
    std::map<std::string, std::string> Args = {{"name", "f"},
                                               {"new-name", "f2"}};
    if (*Occ)
      Args["occurrence"] = Occ;
    ApplyResult R = E.apply({"split-routine", "", Args});
    if (!R.Applied)
      return "refused: " + R.Reason;
    std::string Calls;
    for (const char *Name : {"g", "t.execute"})
      Calls += (Calls.empty() ? "" : " | ") +
               flat(printStmts(E.current().findRoutine(Name)->Body));
    return Calls;
  };
  // Call sites are counted routine by routine in declaration order, and
  // within a statement bottom-up, left operand first.
  EXPECT_EQ(Split(""),
            "g <- f2() + f(); | input (p); x <- f() + g(); if x = 0 then y "
            "<- f(); else y <- 0; end_if; output (x, y);");
  EXPECT_EQ(Split("0"),
            "g <- f2() + f(); | input (p); x <- f() + g(); if x = 0 then y "
            "<- f(); else y <- 0; end_if; output (x, y);");
  EXPECT_EQ(Split("1"),
            "g <- f() + f2(); | input (p); x <- f() + g(); if x = 0 then y "
            "<- f(); else y <- 0; end_if; output (x, y);");
  EXPECT_EQ(Split("2"),
            "g <- f() + f(); | input (p); x <- f2() + g(); if x = 0 then y "
            "<- f(); else y <- 0; end_if; output (x, y);");
  EXPECT_EQ(Split("3"),
            "g <- f() + f(); | input (p); x <- f() + g(); if x = 0 then y <- "
            "f2(); else y <- 0; end_if; output (x, y);");
}

TEST(RoutineRuleTest, SplitRoutineRefusalReasons) {
  auto D = desc(TwoRoutineCalls);
  auto Split = [&](std::map<std::string, std::string> Args) {
    Engine E(D->clone());
    ApplyResult R = E.apply({"split-routine", "", Args});
    return R.Applied ? std::string("applied") : R.Reason;
  };
  EXPECT_EQ(Split({{"new-name", "f2"}}), "missing required argument 'name'");
  EXPECT_EQ(Split({{"name", "f"}}), "missing required argument 'new-name'");
  EXPECT_EQ(Split({{"name", "h"}, {"new-name", "h2"}}), "no routine named 'h'");
  EXPECT_EQ(Split({{"name", "f"}, {"new-name", "g"}}), "'g' is not fresh");
  EXPECT_EQ(Split({{"name", "f"}, {"new-name", "x"}}), "'x' is not fresh");
  EXPECT_EQ(Split({{"name", "f"}, {"new-name", "f2"}, {"occurrence", "4"}}),
            "no call site #4 of 'f'");
  EXPECT_EQ(Split({{"name", "f"}, {"new-name", "f2"}, {"occurrence", "-1"}}),
            "no call site #-1 of 'f'");
  EXPECT_EQ(Split({{"name", "f"}, {"new-name", "f2"}, {"occurrence", "1x"}}),
            "argument 'occurrence' is not an integer: '1x'");
}

TEST(GlobalRuleTest, FoldConstantsFoldsChildrenBeforeParents) {
  // One walk per round folds a node's operands before the node, so
  // `'a' + (1 - 1)` meets fold-add with two literals and becomes 97.
  auto D = desc(R"(
t := begin
  ** S **
    x: character,
    t.execute := begin
      x <- 'a' + (1 - 1);
      if 2 > 1 then x <- x * (3 - 2); end_if;
      output (x);
    end
end
)");
  Engine E(D->clone());
  ApplyResult R = E.apply({"fold-constants", "", {}});
  ASSERT_TRUE(R.Applied);
  EXPECT_EQ(R.Note, "constant folding reached a fixed point");
  EXPECT_EQ(flat(printStmts(E.current().entryRoutine()->Body)),
            "x <- 97; x <- x; output (x);");
  ApplyResult Again = E.apply({"fold-constants", "", {}});
  EXPECT_FALSE(Again.Applied);
  EXPECT_EQ(Again.Reason, "nothing to fold");
}

TEST(GlobalRuleTest, DeadVarElimRefusalLeavesTheWorkingCopyClean) {
  // A refused step must leave the engine's reused working copy as it
  // found it: the next step on the same version starts from it.
  auto D = desc(R"(
t := begin
  ** S **
    a: integer, b: integer, c: integer,
    t.execute := begin
      input (b);
      a <- 1;
      a <- Mb[b];
      c <- b + 0;
      output (c);
    end
end
)");
  DescHandle Shared(D->clone());
  Engine Reused(Shared);
  ApplyResult Refused = Reused.apply({"dead-var-elim", "", {{"var", "a"}}});
  EXPECT_FALSE(Refused.Applied);
  EXPECT_EQ(Refused.Reason,
            "an assignment to 'a' has an impure right-hand side");
  ASSERT_TRUE(Reused.apply({"add-zero", "", {}}).Applied);
  Engine Fresh(D->clone());
  ASSERT_TRUE(Fresh.apply({"add-zero", "", {}}).Applied);
  EXPECT_EQ(printDescription(Reused.current()),
            printDescription(Fresh.current()));
}

} // namespace
