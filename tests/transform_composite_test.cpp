//===- transform_composite_test.cpp - Motion/loop/global rules --*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
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

/// A searcher in the shape of Rigel `index` (Figure 2), minus the access
/// routine (memory inline) so the loop rules can be tested in isolation.
constexpr const char *SearchSource = R"(
t := begin
  ** S **
    base: integer,
    idx: integer,
    len: integer,
    ch: character,
    found<>,
    t.execute := begin
      input (base, len, ch);
      idx <- 0;
      repeat
        exit_when (len = 0);
        exit_when (ch = Mb[base + idx]);
        idx <- idx + 1;
        len <- len - 1;
      end_repeat;
      if len = 0 then
        output (0);
      else
        output (idx);
      end_if;
    end
end
)";

//===----------------------------------------------------------------------===//
// Code motion
//===----------------------------------------------------------------------===//

TEST(CodeMotionTest, MoveUpAcrossIndependent) {
  auto D = desc(R"(
t := begin
  ** S **
    a: integer, b: integer, c: integer, d: integer,
    t.execute := begin
      input (a, b);
      c <- a + 1;
      d <- b + 1;
      output (c, d);
    end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(E.apply({"move-up", "", {{"var", "d"}}}).Applied);
  std::string Out = printStmts(E.current().entryRoutine()->Body);
  EXPECT_LT(Out.find("d <- b + 1;"), Out.find("c <- a + 1;"));
}

TEST(CodeMotionTest, MoveUpRefusesDependent) {
  auto D = desc(R"(
t := begin
  ** S **
    a: integer, b: integer,
    t.execute := begin
      input (a);
      b <- a + 1;
      a <- 7;
      output (a, b);
    end
end
)");
  Engine E(D->clone());
  ApplyResult R = E.apply({"move-up", "", {{"var", "a"}}});
  EXPECT_FALSE(R.Applied);
  EXPECT_NE(R.Reason.find("not independent"), std::string::npos);
}

TEST(CodeMotionTest, MoveAcrossExitRequiresDeadness) {
  // `n` is dead after the loop (the discriminator uses `found` only), so
  // the decrement may cross the second exit.
  auto D = desc(R"(
t := begin
  ** S **
    n: integer, found<>, s: integer,
    t.execute := begin
      input (n, s);
      repeat
        exit_when (n = 0);
        found <- s = n;
        exit_when (found);
        n <- n - 1;
      end_repeat;
      if found then output (1); else output (0); end_if;
    end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(E.apply({"move-up", "", {{"var", "n"}}}).Applied)
      << printStmts(E.current().entryRoutine()->Body);
  std::string Out = printStmts(E.current().entryRoutine()->Body);
  EXPECT_LT(Out.find("n <- n - 1;"), Out.find("exit_when (found);"));
}

TEST(CodeMotionTest, MoveAcrossExitRefusedWhenLive) {
  // Here `n` is output after the loop, so it is live on the exit path
  // and the decrement must not cross the exit.
  auto D = desc(R"(
t := begin
  ** S **
    n: integer, found<>, s: integer,
    t.execute := begin
      input (n, s);
      repeat
        exit_when (n = 0);
        found <- s = n;
        exit_when (found);
        n <- n - 1;
      end_repeat;
      output (n);
    end
end
)");
  Engine E(D->clone());
  ApplyResult R = E.apply({"move-up", "", {{"var", "n"}}});
  EXPECT_FALSE(R.Applied);
  EXPECT_NE(R.Reason.find("live on the loop-exit path"), std::string::npos);
}

TEST(CodeMotionTest, SinkCommonTail) {
  auto D = desc(R"(
t := begin
  ** S **
    a: integer, x: integer,
    t.execute := begin
      input (a);
      if a = 0 then
        x <- 1;
        a <- a + 1;
      else
        x <- 2;
        a <- a + 1;
      end_if;
      output (a, x);
    end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(E.apply({"sink-common-tail", "", {}}).Applied);
  std::string Out = printStmts(E.current().entryRoutine()->Body);
  // Exactly one copy of the tail remains, after the if.
  EXPECT_LT(Out.find("end_if;"), Out.find("a <- a + 1;"));
}

TEST(CodeMotionTest, HoistFromIfRefusesCondDependence) {
  auto D = desc(R"(
t := begin
  ** S **
    a: integer, x: integer,
    t.execute := begin
      input (a);
      if a = 0 then
        a <- a + 1;
        x <- 1;
      else
        a <- a + 1;
        x <- 2;
      end_if;
      output (a, x);
    end
end
)");
  // The common head writes `a`, which the condition reads: refuse.
  Engine E(D->clone());
  EXPECT_FALSE(E.apply({"hoist-from-if", "", {}}).Applied);
}

//===----------------------------------------------------------------------===//
// Loop rules
//===----------------------------------------------------------------------===//

TEST(LoopRuleTest, RecordExitCauseRewritesDiscriminator) {
  auto D = desc(SearchSource);
  Engine E(D->clone());
  ASSERT_TRUE(E.apply({"record-exit-cause", "", {{"flag", "found"}}}).Applied);
  std::string Out = printStmts(E.current().entryRoutine()->Body);
  EXPECT_NE(Out.find("found <- 0;"), std::string::npos);
  EXPECT_NE(Out.find("exit_when (found);"), std::string::npos);
  EXPECT_NE(Out.find("if found then"), std::string::npos);
  // Arms swapped: found -> output(idx).
  size_t IfPos = Out.find("if found then");
  EXPECT_LT(IfPos, Out.find("output (idx);"));
  EXPECT_LT(Out.find("output (idx);"), Out.find("output (0);"));

  // Semantics preserved: run both on a concrete scenario.
  interp::Memory M;
  interp::storeBytes(M, 100, "hello");
  auto Before = interp::run(*D, {100, 5, 'l'}, M);
  auto After = interp::run(E.current(), {100, 5, 'l'}, M);
  ASSERT_TRUE(Before.Ok && After.Ok) << Before.Error << After.Error;
  EXPECT_EQ(Before.Outputs, After.Outputs);
}

TEST(LoopRuleTest, RecordExitCauseNeedsFreshFlag) {
  auto D = desc(SearchSource);
  Engine E(D->clone());
  // `len` is not a flag; `ch` is not a flag either.
  EXPECT_FALSE(E.apply({"record-exit-cause", "", {{"flag", "len"}}}).Applied);
  // A used flag is rejected too.
  auto D2 = desc(SearchSource);
  Engine E2(D2->clone());
  ASSERT_TRUE(
      E2.apply({"record-exit-cause", "", {{"flag", "found"}}}).Applied);
  EXPECT_FALSE(
      E2.apply({"record-exit-cause", "", {{"flag", "found"}}}).Applied);
}

TEST(LoopRuleTest, IndexToPointer) {
  auto D = desc(SearchSource);
  Engine E(D->clone());
  ASSERT_TRUE(E.apply({"index-to-pointer",
                       "",
                       {{"index-var", "idx"},
                        {"base-var", "base"},
                        {"pointer-var", "p"}}})
                  .Applied);
  std::string Out = printStmts(E.current().entryRoutine()->Body);
  EXPECT_NE(Out.find("input (p, len, ch);"), std::string::npos) << Out;
  EXPECT_NE(Out.find("base <- p;"), std::string::npos);
  EXPECT_NE(Out.find("Mb[p]"), std::string::npos);
  EXPECT_NE(Out.find("p <- p + 1;"), std::string::npos);
  EXPECT_NE(Out.find("output (p - base);"), std::string::npos);
  EXPECT_EQ(Out.find("idx"), std::string::npos);

  // Same observable behavior.
  interp::Memory M;
  interp::storeBytes(M, 100, "hello");
  for (int64_t Ch : {'l', 'z', 'h', 'o'}) {
    auto Before = interp::run(*D, {100, 5, Ch}, M);
    auto After = interp::run(E.current(), {100, 5, Ch}, M);
    ASSERT_TRUE(Before.Ok && After.Ok);
    EXPECT_EQ(Before.Outputs, After.Outputs) << "ch=" << Ch;
  }
}

TEST(LoopRuleTest, IndexToPointerRefusesWrittenBase) {
  auto D = desc(R"(
t := begin
  ** S **
    base: integer, idx: integer, n: integer,
    t.execute := begin
      input (base, n);
      idx <- 0;
      repeat
        exit_when (n = 0);
        Mb[base + idx] <- 0;
        idx <- idx + 1;
        base <- base + 1;
        n <- n - 1;
      end_repeat;
      output (idx);
    end
end
)");
  Engine E(D->clone());
  EXPECT_FALSE(E.apply({"index-to-pointer",
                        "",
                        {{"index-var", "idx"},
                         {"base-var", "base"},
                         {"pointer-var", "p"}}})
                   .Applied);
}

TEST(LoopRuleTest, SplitAndMergeExits) {
  auto D = desc(R"(
t := begin
  ** S **
    a: integer, b: integer,
    t.execute := begin
      input (a, b);
      repeat
        exit_when (a = 0 or b = 0);
        a <- a - 1;
        b <- b - 1;
      end_repeat;
      output (a, b);
    end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(E.apply({"split-exit-disjunction", "", {}}).Applied);
  std::string Out = printStmts(E.current().entryRoutine()->Body);
  EXPECT_NE(Out.find("exit_when (a = 0);"), std::string::npos);
  EXPECT_NE(Out.find("exit_when (b = 0);"), std::string::npos);
  ASSERT_TRUE(E.apply({"merge-exits", "", {}}).Applied);
  Out = printStmts(E.current().entryRoutine()->Body);
  EXPECT_NE(Out.find("exit_when (a = 0 or b = 0);"), std::string::npos);
}

TEST(LoopRuleTest, RotateWhileToDoWhileNeedsAssert) {
  const char *Src = R"(
t := begin
  ** S **
    n: integer, p: integer,
    t.execute := begin
      input (p, n);
      repeat
        exit_when (n = 0);
        Mb[p] <- 0;
        p <- p + 1;
        n <- n - 1;
      end_repeat;
      output (p);
    end
end
)";
  auto D = desc(Src);
  Engine E(D->clone());
  // Without the assert: refused.
  EXPECT_FALSE(E.apply({"rotate-while-to-dowhile", "", {}}).Applied);
  // With a range assert placed before the loop: accepted.
  ASSERT_TRUE(E.apply({"introduce-range-assert",
                       "",
                       {{"operand", "n"},
                        {"lo", "1"},
                        {"hi", "256"},
                        {"before-loop", "1"}}})
                  .Applied);
  ASSERT_TRUE(E.apply({"rotate-while-to-dowhile", "", {}}).Applied);
  std::string Out = printStmts(E.current().entryRoutine()->Body);
  // The exit is now the last statement of the loop.
  EXPECT_LT(Out.find("n <- n - 1;"), Out.find("exit_when (n = 0);"));

  // Semantics on the restricted domain (n >= 1).
  for (int64_t N : {1, 2, 5}) {
    auto Before = interp::run(*D, {50, N});
    auto After = interp::run(E.current(), {50, N});
    ASSERT_TRUE(Before.Ok && After.Ok) << After.Error;
    EXPECT_EQ(Before.Outputs, After.Outputs);
    EXPECT_EQ(Before.FinalMemory, After.FinalMemory);
  }
}

TEST(LoopRuleTest, ShiftCounterProducesMvcShape) {
  auto D = desc(R"(
t := begin
  ** S **
    n: integer, m: integer, p: integer,
    t.execute := begin
      input (p, m);
      n <- m + 1;
      repeat
        Mb[p] <- 7;
        p <- p + 1;
        n <- n - 1;
        exit_when (n = 0);
      end_repeat;
      output (p);
    end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(
      E.apply({"shift-counter", "", {{"old-var", "n"}, {"new-var", "m"}}})
          .Applied);
  std::string Out = printStmts(E.current().entryRoutine()->Body);
  EXPECT_EQ(Out.find("n <-"), std::string::npos);
  EXPECT_NE(Out.find("exit_when (m = 0);"), std::string::npos);
  EXPECT_LT(Out.find("exit_when (m = 0);"), Out.find("m <- m - 1;"));

  // Writes m+1 bytes, like mvc's length encoding.
  for (int64_t M : {0, 1, 3}) {
    auto Before = interp::run(*D, {20, M});
    auto After = interp::run(E.current(), {20, M});
    ASSERT_TRUE(Before.Ok && After.Ok) << After.Error;
    EXPECT_EQ(Before.Outputs, After.Outputs);
    EXPECT_EQ(Before.FinalMemory, After.FinalMemory);
    EXPECT_EQ(std::distance(After.FinalMemory.begin(), After.FinalMemory.end()),
              M + 1);
  }
}

TEST(LoopRuleTest, CountUpToDown) {
  auto D = desc(R"(
t := begin
  ** S **
    i: integer, n: integer, p: integer,
    t.execute := begin
      input (p, n);
      i <- 0;
      repeat
        exit_when (i = n);
        Mb[p] <- 9;
        p <- p + 1;
        i <- i + 1;
      end_repeat;
      output (p);
    end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(E.apply({"count-up-to-down",
                       "",
                       {{"index-var", "i"},
                        {"bound-var", "n"},
                        {"counter-var", "c"}}})
                  .Applied);
  std::string Out = printStmts(E.current().entryRoutine()->Body);
  EXPECT_NE(Out.find("c <- n;"), std::string::npos);
  EXPECT_NE(Out.find("exit_when (c = 0);"), std::string::npos);
  EXPECT_NE(Out.find("c <- c - 1;"), std::string::npos);

  for (int64_t N : {0, 1, 4}) {
    auto Before = interp::run(*D, {30, N});
    auto After = interp::run(E.current(), {30, N});
    ASSERT_TRUE(Before.Ok && After.Ok) << After.Error;
    EXPECT_EQ(Before.Outputs, After.Outputs);
    EXPECT_EQ(Before.FinalMemory, After.FinalMemory);
  }
}

//===----------------------------------------------------------------------===//
// Global rules
//===----------------------------------------------------------------------===//

TEST(GlobalRuleTest, FixThenPropagateThenEliminate) {
  // The scasb flag-simplification pipeline in miniature (§4.1).
  auto D = desc(R"(
t := begin
  ** S **
    df<>, p: integer,
    f()<7:0> := begin
      f <- Mb[p];
      if df then p <- p - 1; else p <- p + 1; end_if;
    end
    t.execute := begin
      input (df, p);
      p <- p + 0;
      output (f(), p);
    end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(
      E.apply({"fix-operand-value", "", {{"operand", "df"}, {"value", "0"}}})
          .Applied);
  ASSERT_TRUE(
      E.apply({"global-constant-propagate", "", {{"var", "df"}}}).Applied);
  ASSERT_TRUE(E.apply({"if-false-elim", "f", {}}).Applied);
  ASSERT_TRUE(E.apply({"dead-assign-elim", "", {{"var", "df"}}}).Applied);
  ASSERT_TRUE(E.apply({"dead-decl-elim", "", {{"var", "df"}}}).Applied);

  const Description &After = E.current();
  EXPECT_EQ(After.findDecl("df"), nullptr);
  std::string FBody = printStmts(After.findRoutine("f")->Body);
  EXPECT_EQ(FBody.find("if"), std::string::npos);
  EXPECT_NE(FBody.find("p <- p + 1;"), std::string::npos);

  // One value constraint recorded.
  ASSERT_EQ(E.constraints().size(), 1u);
  EXPECT_NE(E.constraints().str().find("value: df = 0"), std::string::npos);

  // Equivalent to the original with df pinned to 0.
  interp::Memory M;
  interp::storeBytes(M, 10, "q");
  auto Before = interp::run(*D, {0, 10}, M);
  auto AfterRun = interp::run(After, {10}, M);
  ASSERT_TRUE(Before.Ok && AfterRun.Ok);
  EXPECT_EQ(Before.Outputs, AfterRun.Outputs);
}

TEST(GlobalRuleTest, GlobalConstantPropagateRefusesTwoWrites) {
  auto D = desc(R"(
t := begin
  ** S **
    a: integer,
    t.execute := begin
      a <- 1;
      a <- 2;
      output (a);
    end
end
)");
  Engine E(D->clone());
  EXPECT_FALSE(
      E.apply({"global-constant-propagate", "", {{"var", "a"}}}).Applied);
}

TEST(GlobalRuleTest, DeadAssignElimRespectsLiveness) {
  auto D = desc(R"(
t := begin
  ** S **
    a: integer, b: integer,
    t.execute := begin
      input (b);
      a <- b + 1;
      output (a);
    end
end
)");
  Engine E(D->clone());
  // `a` is output: not dead.
  EXPECT_FALSE(E.apply({"dead-assign-elim", "", {{"var", "a"}}}).Applied);
}

TEST(GlobalRuleTest, DeadVarElim) {
  auto D = desc(R"(
t := begin
  ** S **
    a: integer, b: integer,
    t.execute := begin
      input (b);
      a <- b + 1;
      a <- 0;
      output (b);
    end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(E.apply({"dead-var-elim", "", {{"var", "a"}}}).Applied);
  EXPECT_EQ(E.current().findDecl("a"), nullptr);
  EXPECT_EQ(printStmts(E.current().entryRoutine()->Body).find("a <-"),
            std::string::npos);
}

TEST(GlobalRuleTest, CopyPropagate) {
  auto D = desc(R"(
t := begin
  ** S **
    a: integer, b: integer, c: integer,
    t.execute := begin
      input (a);
      b <- a;
      c <- b + 1;
      output (c, b);
    end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(E.apply({"copy-propagate", "", {{"var", "b"}}}).Applied);
  std::string Out = printStmts(E.current().entryRoutine()->Body);
  EXPECT_NE(Out.find("c <- a + 1;"), std::string::npos);
  EXPECT_NE(Out.find("output (c, a);"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Routine structuring
//===----------------------------------------------------------------------===//

TEST(RoutineRuleTest, ExtractCallToTemp) {
  auto D = desc(R"(
t := begin
  ** S **
    al<7:0>, zf<>, p: integer,
    fetch()<7:0> := begin fetch <- Mb[p]; p <- p + 1; end
    t.execute := begin
      input (al, p);
      zf <- (al - fetch()) = 0;
      output (zf, p);
    end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(E.apply({"extract-call-to-temp",
                       "",
                       {{"callee", "fetch"}, {"temp", "t1"}}})
                  .Applied)
      << printStmts(E.current().entryRoutine()->Body);
  std::string Out = printStmts(E.current().entryRoutine()->Body);
  EXPECT_NE(Out.find("t1 <- fetch();"), std::string::npos);
  EXPECT_NE(Out.find("zf <- al - t1 = 0;"), std::string::npos);

  interp::Memory M;
  M[9] = 'x';
  auto Before = interp::run(*D, {'x', 9}, M);
  auto After = interp::run(E.current(), {'x', 9}, M);
  ASSERT_TRUE(Before.Ok && After.Ok);
  EXPECT_EQ(Before.Outputs, After.Outputs);
}

TEST(RoutineRuleTest, InlineRoutine) {
  auto D = desc(R"(
t := begin
  ** S **
    p: integer, x: integer,
    f(): integer := begin f <- Mb[p]; p <- p + 1; end
    t.execute := begin
      input (p);
      x <- f();
      output (x, p);
    end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(
      E.apply({"inline-routine", "", {{"callee", "f"}, {"temp", "fr"}}})
          .Applied);
  std::string Out = printStmts(E.current().entryRoutine()->Body);
  EXPECT_NE(Out.find("fr <- Mb[p];"), std::string::npos);
  EXPECT_NE(Out.find("x <- fr;"), std::string::npos);

  interp::Memory M;
  M[5] = 42;
  auto Before = interp::run(*D, {5}, M);
  auto After = interp::run(E.current(), {5}, M);
  ASSERT_TRUE(Before.Ok && After.Ok);
  EXPECT_EQ(Before.Outputs, After.Outputs);
}

TEST(RoutineRuleTest, RenameVariableAndRoutine) {
  auto D = desc(R"(
t := begin
  ** S **
    a: integer,
    f(): integer := begin f <- a + 1; end
    t.execute := begin input (a); a <- f(); output (a); end
end
)");
  Engine E(D->clone());
  ASSERT_TRUE(
      E.apply({"rename-variable", "", {{"from", "a"}, {"to", "x"}}}).Applied);
  ASSERT_TRUE(
      E.apply({"rename-routine", "", {{"from", "f"}, {"to", "g"}}}).Applied);
  const Description &After = E.current();
  EXPECT_NE(After.findDecl("x"), nullptr);
  EXPECT_EQ(After.findDecl("a"), nullptr);
  EXPECT_NE(After.findRoutine("g"), nullptr);
  auto R1 = interp::run(*D, {3});
  auto R2 = interp::run(After, {3});
  EXPECT_EQ(R1.Outputs, R2.Outputs);
}

//===----------------------------------------------------------------------===//
// Constraint and augment rules
//===----------------------------------------------------------------------===//

TEST(ConstraintRuleTest, IntroduceOffsetInput) {
  auto D = desc(R"(
t := begin
  ** S **
    len: integer, p: integer,
    t.execute := begin
      input (p, len);
      repeat
        Mb[p] <- 1;
        p <- p + 1;
        exit_when (len = 0);
        len <- len - 1;
      end_repeat;
      output (p);
    end
end
)");
  Engine E(D->clone());
  ApplyResult R = E.apply({"introduce-offset-input",
                           "",
                           {{"operand", "len"},
                            {"delta", "-1"},
                            {"new-name", "lenp"}}});
  ASSERT_TRUE(R.Applied) << R.Reason;
  std::string Out = printStmts(E.current().entryRoutine()->Body);
  EXPECT_NE(Out.find("input (p, lenp);"), std::string::npos);
  EXPECT_NE(Out.find("len <- lenp + 1;"), std::string::npos);
  EXPECT_NE(E.constraints().str().find("offset: encode len as len - 1"),
            std::string::npos);

  // Adapter maps new inputs to old: lenp = 3 corresponds to len = 4.
  ASSERT_TRUE(R.Adapter);
  std::vector<int64_t> Old = R.Adapter({10, 3});
  EXPECT_EQ(Old, (std::vector<int64_t>{10, 4}));
  auto Orig = interp::run(*D, Old);
  auto New = interp::run(E.current(), {10, 3});
  ASSERT_TRUE(Orig.Ok && New.Ok);
  EXPECT_EQ(Orig.Outputs, New.Outputs);
  EXPECT_EQ(Orig.FinalMemory, New.FinalMemory);
}

TEST(ConstraintRuleTest, FixOperandValueAdapter) {
  auto D = desc(R"(
t := begin
  ** S **
    f<>, a: integer,
    t.execute := begin
      input (f, a);
      if f then output (a + 1); else output (a); end_if;
    end
end
)");
  Engine E(D->clone());
  ApplyResult R =
      E.apply({"fix-operand-value", "", {{"operand", "f"}, {"value", "1"}}});
  ASSERT_TRUE(R.Applied);
  ASSERT_TRUE(R.Adapter);
  EXPECT_EQ(R.Adapter({5}), (std::vector<int64_t>{1, 5}));
  auto Orig = interp::run(*D, {1, 5});
  auto New = interp::run(E.current(), {5});
  ASSERT_TRUE(Orig.Ok && New.Ok);
  EXPECT_EQ(Orig.Outputs, New.Outputs);
}

TEST(ConstraintRuleTest, RelationalNeedsAxiomAndGatesResolve) {
  auto D = desc(R"(
t := begin
  ** S **
    s: integer, d: integer, n: integer,
    t.execute := begin
      input (s, d, n);
      if d > s and d < s + n then
        output (1);
      else
        output (2);
      end_if;
    end
end
)");
  Engine E(D->clone());
  // resolve-if-by-constraint refuses without a recorded axiom.
  EXPECT_FALSE(
      E.apply({"resolve-if-by-constraint", "", {{"arm", "else"}}}).Applied);
  ASSERT_TRUE(E.apply({"note-relational-constraint",
                       "",
                       {{"pred", "(s + n <= d) or (d + n <= s)"},
                        {"axiom", "pascal.no-overlap"}}})
                  .Applied);
  EXPECT_TRUE(E.constraints().hasRelational());
  ASSERT_TRUE(
      E.apply({"resolve-if-by-constraint", "", {{"arm", "else"}}}).Applied);
  std::string Out = printStmts(E.current().entryRoutine()->Body);
  EXPECT_EQ(Out.find("if"), std::string::npos);
  EXPECT_NE(Out.find("output (2);"), std::string::npos);
}

TEST(AugmentRuleTest, PrologueEpilogueAndInterfaceCheck) {
  auto D = desc(R"(
t := begin
  ** S **
    p: integer, zf<>,
    t.execute := begin
      input (p);
      zf <- p = 0;
      output (zf, p);
    end
end
)");
  Engine E(D->clone());
  // Undeclared temp: the interface guarantee must refuse.
  ApplyResult Bad =
      E.apply({"add-prologue", "", {{"code", "temp <- p;"}}});
  EXPECT_FALSE(Bad.Applied);
  EXPECT_NE(Bad.Reason.find("undeclared"), std::string::npos);

  ASSERT_TRUE(E.apply({"allocate-temp",
                       "",
                       {{"name", "temp"}, {"type", "integer"}}})
                  .Applied);
  ASSERT_TRUE(
      E.apply({"add-prologue", "", {{"code", "temp <- p;"}}}).Applied);
  ASSERT_TRUE(E.apply({"replace-output",
                       "",
                       {{"code", "if zf then output (p - temp); else "
                                 "output (0); end_if;"}}})
                  .Applied);
  std::string Out = printStmts(E.current().entryRoutine()->Body);
  EXPECT_NE(Out.find("temp <- p;"), std::string::npos);
  EXPECT_NE(Out.find("output (p - temp);"), std::string::npos);
  EXPECT_EQ(Out.find("output (zf, p);"), std::string::npos);
}

TEST(AugmentRuleTest, ReplaceOutputRequiresOutput) {
  auto D = desc(R"(
t := begin
  ** S **
    p: integer,
    t.execute := begin input (p); output (p); end
end
)");
  Engine E(D->clone());
  EXPECT_FALSE(
      E.apply({"replace-output", "", {{"code", "p <- p + 1;"}}}).Applied);
}

} // namespace
