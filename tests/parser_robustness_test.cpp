//===- parser_robustness_test.cpp - Mutation robustness ---------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic mutation fuzzing of the front end: every library source
/// is subjected to truncations, character flips, deletions, and token
/// duplications, and the parser/validator must never crash or hang —
/// only return errors. Successfully parsed mutants must survive printing
/// and re-parsing, and interpretation under a step limit.
///
//===----------------------------------------------------------------------===//

#include "descriptions/Descriptions.h"
#include "interp/Interp.h"
#include "isdl/Parser.h"
#include "isdl/Printer.h"
#include "isdl/Validate.h"

#include <gtest/gtest.h>
#include <random>

using namespace extra;

namespace {

std::string mutate(const std::string &Src, std::mt19937_64 &Rng) {
  std::string Out = Src;
  std::uniform_int_distribution<int> Kind(0, 3);
  std::uniform_int_distribution<size_t> Pos(0, Out.empty() ? 0
                                                           : Out.size() - 1);
  switch (Kind(Rng)) {
  case 0: // truncate
    Out.resize(Pos(Rng));
    break;
  case 1: { // flip one character to printable ASCII
    if (!Out.empty()) {
      std::uniform_int_distribution<int> Ch(32, 126);
      Out[Pos(Rng)] = static_cast<char>(Ch(Rng));
    }
    break;
  }
  case 2: { // delete a span
    if (!Out.empty()) {
      size_t A = Pos(Rng), B = Pos(Rng);
      if (A > B)
        std::swap(A, B);
      Out.erase(A, B - A);
    }
    break;
  }
  case 3: { // duplicate a span
    if (!Out.empty()) {
      size_t A = Pos(Rng), B = Pos(Rng);
      if (A > B)
        std::swap(A, B);
      Out.insert(A, Out.substr(A, std::min<size_t>(B - A, 64)));
    }
    break;
  }
  }
  return Out;
}

TEST(ParserRobustnessTest, MutatedLibrarySourcesNeverCrash) {
  std::mt19937_64 Rng(0xF0CC1A);
  unsigned ParsedOk = 0, Rejected = 0;
  for (const descriptions::Entry &E : descriptions::allEntries()) {
    std::string Base = E.Source;
    for (int I = 0; I < 60; ++I) {
      std::string Mutant = mutate(Base, Rng);
      DiagnosticEngine Diags;
      auto D = isdl::parseDescription(Mutant, Diags);
      if (!D) {
        EXPECT_TRUE(Diags.hasErrors()) << "silent parse failure";
        ++Rejected;
        continue;
      }
      ++ParsedOk;
      // Parsed mutants must print, re-parse, and interpret boundedly.
      std::string Printed = isdl::printDescription(*D);
      DiagnosticEngine Diags2;
      auto Again = isdl::parseDescription(Printed, Diags2);
      EXPECT_TRUE(Again != nullptr)
          << "printer produced unparseable text:\n" << Printed;
      DiagnosticEngine VDiags;
      if (isdl::validate(*D, VDiags)) {
        interp::ExecOptions Opts;
        Opts.MaxSteps = 20000;
        interp::run(*D, {3, 5, 7, 2, 1, 4, 9, 8}, {}, Opts);
      }
    }
  }
  // Sanity: the mutation mix produces both outcomes.
  EXPECT_GT(ParsedOk, 0u);
  EXPECT_GT(Rejected, 0u);
}

TEST(ParserRobustnessTest, PathologicalInputs) {
  for (const char *Src : {
           "", "x", "x :=", "x := begin", "x := begin end end end",
           "x := begin ** ** end", ":= begin end", "x := begin ** S **",
           "x := begin ** S ** y<1:2>, end", // inverted bit range
           "x := begin ** S ** f() := begin end end",
           "x := begin ** S ** a: integer, x.execute := begin repeat "
           "end_repeat; end end",
           "((((((((((", "1 + + 2", "not not not",
       }) {
    DiagnosticEngine Diags;
    auto D = isdl::parseDescription(Src, Diags);
    if (D) {
      isdl::validate(*D, Diags);
      isdl::printDescription(*D);
    }
  }
  SUCCEED();
}

TEST(ParserRobustnessTest, MalformedInputCorpus) {
  // A corpus of shapes a killed editor session or a truncated download
  // leaves behind. Each must be rejected with a diagnostic (or parsed
  // cleanly) — never a crash, a hang, or a silent nullptr.
  const char *Corpus[] = {
      // Empty and whitespace-only files.
      "", " ", "\n\n\n", "\t \n \t",
      // Truncated scripts: a valid description cut at every interesting
      // boundary.
      "x",
      "x :=",
      "x := begin",
      "x := begin ** S",
      "x := begin ** S **",
      "x := begin ** S ** a: integer",
      "x := begin ** S ** a: integer, x.execute",
      "x := begin ** S ** a: integer, x.execute := begin",
      "x := begin ** S ** a: integer, x.execute := begin input (a)",
      "x := begin ** S ** a: integer, x.execute := begin input (a); "
      "a <- a +",
      "x := begin ** S ** a: integer, x.execute := begin input (a); "
      "a <- a + 1; output (a); end",
      // Unterminated character literals, including at end of input and
      // with an embedded newline.
      "x := begin ** S ** a: integer, x.execute := begin a <- 'q",
      "x := begin ** S ** a: integer, x.execute := begin a <- '",
      "x := begin ** S ** a: integer, x.execute := begin a <- '\n'; "
      "end end",
      // Stray bytes the lexer has no token for.
      "x := begin ** S ** \x01\x02 end", "@#$%^&", "x := begin ** \\ ** end",
  };
  for (const char *Src : Corpus) {
    DiagnosticEngine Diags;
    auto D = isdl::parseDescription(Src, Diags);
    if (!D) {
      EXPECT_TRUE(Diags.hasErrors()) << "silent failure on: " << Src;
    }
    // The checked wrapper is stricter: any diagnosed error is a typed
    // Parse fault, even when recovery produced a tree.
    auto E = isdl::parseDescriptionChecked(Src);
    EXPECT_EQ(static_cast<bool>(E), D != nullptr && !Diags.hasErrors())
        << Src;
    if (!E) {
      EXPECT_EQ(E.fault().Category, FaultCategory::Parse) << Src;
      EXPECT_FALSE(E.fault().Message.empty()) << Src;
    }
  }
}

TEST(ParserRobustnessTest, ExcessiveNestingRejectedNotOverflowed) {
  // 600 levels of parenthesized expression — past the parser's recursion
  // guard (512) — must produce a nesting diagnostic, not a stack
  // overflow.
  std::string Expr(600, '(');
  Expr += "1";
  Expr += std::string(600, ')');
  std::string Src = "x := begin ** S ** a: integer, x.execute := begin "
                    "a <- " + Expr + "; output (a); end end";
  DiagnosticEngine Diags;
  auto D = isdl::parseDescription(Src, Diags);
  EXPECT_EQ(D, nullptr);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("nesting"), std::string::npos) << Diags.str();

  // Statement nesting hits the same guard.
  std::string Body;
  for (int I = 0; I < 600; ++I)
    Body += "if a > 0 then ";
  Body += "a <- 1;";
  for (int I = 0; I < 600; ++I)
    Body += " end_if;";
  std::string Src2 = "x := begin ** S ** a: integer, x.execute := begin "
                     "input (a); " + Body + " output (a); end end";
  DiagnosticEngine Diags2;
  auto D2 = isdl::parseDescription(Src2, Diags2);
  EXPECT_EQ(D2, nullptr);
  EXPECT_TRUE(Diags2.hasErrors());
}

TEST(ParserRobustnessTest, DeepNestingDoesNotOverflowQuickly) {
  // 200 nested conditionals: parser, validator, printer, and interpreter
  // recursion depth stays manageable.
  std::string Body;
  for (int I = 0; I < 200; ++I)
    Body += "if a > " + std::to_string(I) + " then ";
  Body += "a <- a + 1;";
  for (int I = 0; I < 200; ++I)
    Body += " end_if;";
  std::string Src = "x := begin ** S ** a: integer, x.execute := begin "
                    "input (a); " + Body + " output (a); end end";
  DiagnosticEngine Diags;
  auto D = isdl::parseDescription(Src, Diags);
  ASSERT_TRUE(D && !Diags.hasErrors()) << Diags.str();
  EXPECT_TRUE(isdl::validate(*D, Diags));
  isdl::printDescription(*D);
  auto Taken = interp::run(*D, {500});
  ASSERT_TRUE(Taken.Ok) << Taken.Error;
  EXPECT_EQ(Taken.Outputs, std::vector<int64_t>{501});
  auto NotTaken = interp::run(*D, {0});
  ASSERT_TRUE(NotTaken.Ok);
  EXPECT_EQ(NotTaken.Outputs, std::vector<int64_t>{0});
}

} // namespace
