//===- frontend_test.cpp - Mini front end + engine undo tests ---*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "codegen/Frontend.h"

#include "codegen/Target.h"
#include "isdl/Parser.h"
#include "isdl/Printer.h"
#include "registry/Harness.h"
#include "sim/Sim8086.h"
#include "transform/Transform.h"

#include <gtest/gtest.h>

using namespace extra;
using namespace extra::codegen;

namespace {

TEST(FrontendTest, ParsesAllStatementForms) {
  DiagnosticEngine Diags;
  auto P = parseProgram(R"(
    ! a comment
    const n = 12;
    range len 0 255;
    assume pascal.no-overlap;
    move(300, 100, n);
    copy(dst, src, len);
    clear(buf, 64);
    i := index(s, len, 'c');
    eq := equal(a, b, n);
  )",
                        Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ASSERT_EQ(P->Ops.size(), 5u);
  EXPECT_EQ(P->Ops[0].K, OpKind::StrMove);
  EXPECT_EQ(P->Ops[1].K, OpKind::BlockCopy);
  EXPECT_EQ(P->Ops[2].K, OpKind::BlockClear);
  EXPECT_EQ(P->Ops[3].K, OpKind::StrIndex);
  EXPECT_EQ(P->Ops[3].Result, "i");
  EXPECT_EQ(P->Ops[3].Args[2].Lit, 'c');
  EXPECT_EQ(P->Ops[4].K, OpKind::StrEqual);
  EXPECT_EQ(P->Facts.KnownValues.at("n"), 12);
  EXPECT_EQ(P->Facts.KnownRanges.at("len"),
            (std::pair<int64_t, int64_t>{0, 255}));
  EXPECT_TRUE(P->Facts.Axioms.count("pascal.no-overlap"));
}

TEST(FrontendTest, ErrorsAreReportedWithPositions) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(parseProgram("move(1, 2);", Diags).has_value()); // arity
  EXPECT_TRUE(Diags.hasErrors());
  DiagnosticEngine D2;
  EXPECT_FALSE(parseProgram("x := frobnicate(1, 2, 3);", D2).has_value());
  DiagnosticEngine D3;
  EXPECT_FALSE(parseProgram("const x;", D3).has_value());
  DiagnosticEngine D4;
  EXPECT_TRUE(parseProgram("", D4).has_value()); // empty program is fine
}

TEST(FrontendTest, EndToEndThroughCodegenAndSimulator) {
  DiagnosticEngine Diags;
  auto P = parseProgram(R"(
    const n = 5;
    move(200, 100, n);
    eq := equal(100, 200, n);
    pos := index(200, n, 'v');
  )",
                        Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  auto T = registry::corpusTarget(registry::MachineKind::I8086);
  CodeGenResult Code = T->generate(*P);
  interp::Memory M;
  interp::storeBytes(M, 100, "mover");
  sim::SimResult S = sim::run8086(Code.Asm, M);
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_EQ(interp::loadBytes(S.Mem, 200, 5), "mover");
  EXPECT_EQ(S.reg("eq"), 1);
  EXPECT_EQ(S.reg("pos"), 3);
}

TEST(EngineUndoTest, UndoRestoresDescriptionAndConstraints) {
  DiagnosticEngine Diags;
  auto D = isdl::parseDescription(R"(
t := begin
  ** S **
    f<>, a: integer,
    t.execute := begin
      input (f, a);
      if f then a <- a + 1; end_if;
      output (a);
    end
end
)",
                                  Diags);
  ASSERT_TRUE(D && !Diags.hasErrors());

  transform::Engine E(D->clone());
  std::string Original = isdl::printDescription(E.current());
  ASSERT_TRUE(
      E.apply({"fix-operand-value", "", {{"operand", "f"}, {"value", "1"}}})
          .Applied);
  ASSERT_TRUE(
      E.apply({"global-constant-propagate", "", {{"var", "f"}}}).Applied);
  EXPECT_EQ(E.constraints().size(), 1u);
  EXPECT_EQ(E.stepsApplied(), 2u);

  // Undo both steps: description and constraint set revert.
  EXPECT_TRUE(E.undo());
  EXPECT_EQ(E.stepsApplied(), 1u);
  EXPECT_EQ(E.constraints().size(), 1u); // constraint came from step 1
  EXPECT_TRUE(E.undo());
  EXPECT_EQ(E.stepsApplied(), 0u);
  EXPECT_EQ(E.constraints().size(), 0u);
  EXPECT_EQ(isdl::printDescription(E.current()), Original);
  EXPECT_FALSE(E.undo()); // nothing left
}

TEST(EngineUndoTest, UndoThenRedoByReapplying) {
  DiagnosticEngine Diags;
  auto D = isdl::parseDescription(R"(
t := begin
  ** S **
    a: integer,
    t.execute := begin input (a); a <- a + 0; output (a); end
end
)",
                                  Diags);
  ASSERT_TRUE(D);
  transform::Engine E(D->clone());
  ASSERT_TRUE(E.apply({"add-zero", "", {}}).Applied);
  std::string After = isdl::printDescription(E.current());
  ASSERT_TRUE(E.undo());
  ASSERT_TRUE(E.apply({"add-zero", "", {}}).Applied);
  EXPECT_EQ(isdl::printDescription(E.current()), After);
}

} // namespace
