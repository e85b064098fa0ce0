//===- property_test.cpp - Property-based sweeps ----------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterized property sweeps across the whole pipeline:
///
///  * every Table 2 derivation holds under several independent random
///    seeds (different inputs, memories, and constraint-respecting draws);
///  * printing any intermediate or final description and re-parsing it
///    yields a structurally identical description;
///  * inverse rule pairs compose to the identity;
///  * generated code for every (target, operator) pair agrees with the
///    reference interpretation of the corresponding library operator
///    description across a grid of scenarios.
///
//===----------------------------------------------------------------------===//

#include "analysis/Derivations.h"
#include "codegen/Target.h"
#include "descriptions/Descriptions.h"
#include "isdl/Equiv.h"
#include "isdl/Parser.h"
#include "isdl/Printer.h"
#include "registry/Harness.h"
#include "sim/Sim370.h"
#include "sim/Sim8086.h"
#include "sim/SimVax.h"

#include <gtest/gtest.h>

using namespace extra;
using namespace extra::analysis;

namespace {

std::string sanitize(std::string S) {
  for (char &C : S)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return S;
}

//===----------------------------------------------------------------------===//
// Derivations hold under independent seeds
//===----------------------------------------------------------------------===//

const AnalysisCase &caseByIndex(size_t I) {
  if (I < table2Cases().size())
    return table2Cases()[I];
  return extendedCases()[I - table2Cases().size()];
}

class SeededDerivationTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(SeededDerivationTest, HoldsUnderSeed) {
  const AnalysisCase &Case = caseByIndex(std::get<0>(GetParam()));
  DiffOptions Opts;
  Opts.Seed = std::get<1>(GetParam());
  Opts.Trials = 24;
  AnalysisResult R = runAnalysis(Case, Mode::Base, Opts);
  EXPECT_TRUE(R.Succeeded) << Case.Id << " seed=" << Opts.Seed << ": "
                           << R.FailureReason;
}

INSTANTIATE_TEST_SUITE_P(
    AllCasesThreeSeeds, SeededDerivationTest,
    ::testing::Combine(::testing::Range<size_t>(0, 13),
                       ::testing::Values(1u, 424242u, 0xDEADBEEFu)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, uint64_t>> &Info) {
      return sanitize(caseByIndex(std::get<0>(Info.param)).Id) + "_s" +
             std::to_string(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Printer/parser round trip over every derivation's final forms
//===----------------------------------------------------------------------===//

class RoundTripFinalFormsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RoundTripFinalFormsTest, PrintedFormsReparse) {
  const AnalysisCase &Case = table2Cases()[GetParam()];
  AnalysisResult R = runAnalysis(Case, Mode::Base);
  ASSERT_TRUE(R.Succeeded) << R.FailureReason;
  for (const std::string &Text :
       {R.AugmentedInstruction, R.TransformedOperator}) {
    DiagnosticEngine Diags;
    auto Once = isdl::parseDescription(Text, Diags);
    ASSERT_TRUE(Once && !Diags.hasErrors()) << Case.Id << "\n" << Text;
    std::string Again = isdl::printDescription(*Once);
    auto Twice = isdl::parseDescription(Again, Diags);
    ASSERT_TRUE(Twice && !Diags.hasErrors());
    isdl::MatchResult M = isdl::matchDescriptions(*Once, *Twice);
    EXPECT_TRUE(M.Matched) << M.Mismatch;
    for (const auto &[A, B] : M.Binding.pairs())
      EXPECT_EQ(A, B);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCases, RoundTripFinalFormsTest,
                         ::testing::Range<size_t>(0, 11),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           return sanitize(table2Cases()[Info.param].Id);
                         });

//===----------------------------------------------------------------------===//
// Inverse rule pairs compose to the identity
//===----------------------------------------------------------------------===//

struct InversePair {
  const char *Forward;
  const char *Backward;
  const char *Fixture; // statement text inside a two-variable routine
};

// The test name already carries the forward rule; print the inverse. Without
// a printer gtest dumps the struct's pointer bytes, which change with every
// load address and so made the discovered ctest names differ per build.
void PrintTo(const InversePair &P, std::ostream *OS) { *OS << P.Backward; }

class InverseRuleTest : public ::testing::TestWithParam<InversePair> {};

TEST_P(InverseRuleTest, RoundTripsToIdentity) {
  const InversePair &P = GetParam();
  std::string Src = std::string("t := begin\n  ** S **\n    a: integer,\n"
                                "    b: integer,\n    f<>,\n"
                                "    t.execute := begin\n") +
                    P.Fixture + "\n    end\nend\n";
  DiagnosticEngine Diags;
  auto D = isdl::parseDescription(Src, Diags);
  ASSERT_TRUE(D && !Diags.hasErrors()) << Diags.str();
  std::string Before = isdl::printDescription(*D);

  transform::Engine E(D->clone());
  ASSERT_TRUE(E.apply({P.Forward, "", {}}).Applied) << P.Forward;
  std::string Middle = isdl::printDescription(E.current());
  EXPECT_NE(Middle, Before) << "forward rule was a no-op";
  ASSERT_TRUE(E.apply({P.Backward, "", {}}).Applied) << P.Backward;
  EXPECT_EQ(isdl::printDescription(E.current()), Before);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, InverseRuleTest,
    ::testing::Values(
        InversePair{"reverse-conditional", "if-not-elim",
                    "      input (a);\n"
                    "      if a = 0 then b <- 1; else b <- 2; end_if;\n"
                    "      output (b);"},
        InversePair{"eq-to-diff-zero", "diff-zero-to-eq",
                    "      input (a, b);\n"
                    "      f <- a = b;\n"
                    "      output (f);"},
        InversePair{"if-to-flag-assign", "flag-assign-to-if",
                    "      input (a);\n"
                    "      if a = 0 then f <- 1; else f <- 0; end_if;\n"
                    "      output (f);"},
        InversePair{"split-exit-disjunction", "merge-exits",
                    "      input (a, b);\n"
                    "      repeat\n"
                    "        exit_when (a = 0 or b = 0);\n"
                    "        a <- a - 1;\n"
                    "        b <- b - 1;\n"
                    "      end_repeat;\n"
                    "      output (a, b);"}),
    [](const ::testing::TestParamInfo<InversePair> &Info) {
      return sanitize(Info.param.Forward);
    });

//===----------------------------------------------------------------------===//
// Generated code vs. reference interpretation, across a scenario grid
//===----------------------------------------------------------------------===//

struct CodegenGridCase {
  const char *TargetName;
  sim::SimResult (*Run)(const std::vector<std::string> &,
                        const interp::Memory &,
                        const std::map<std::string, int64_t> &, uint64_t);
  registry::MachineKind Machine;
};

// Keeps the discovered ctest names free of pointer bytes (see InversePair).
void PrintTo(const CodegenGridCase &G, std::ostream *OS) {
  *OS << G.TargetName;
}

class IndexGridTest : public ::testing::TestWithParam<CodegenGridCase> {};

TEST_P(IndexGridTest, MatchesRigelIndexDescription) {
  const CodegenGridCase &G = GetParam();
  auto T = registry::corpusTarget(G.Machine);
  codegen::Program P;
  P.Ops.push_back(codegen::strIndex("res", codegen::Value::symbol("s"),
                                    codegen::Value::symbol("n"),
                                    codegen::Value::symbol("c")));
  P.Facts.KnownRanges["n"] = {0, 255}; // VAX's 16-bit length, satisfied
  codegen::CodeGenResult Code = T->generate(P);
  ASSERT_EQ(Code.ExoticCount + Code.DecomposedCount, 1u);

  auto Index = descriptions::load("rigel.index");
  interp::Memory M;
  interp::storeBytes(M, 64, "the quick brown fox");
  for (int64_t Len : {0, 1, 5, 19})
    for (int Ch : {'t', 'q', 'x', 'z', ' '}) {
      auto Ref = interp::run(*Index, {64, Len, Ch}, M);
      ASSERT_TRUE(Ref.Ok);
      sim::SimResult S =
          G.Run(Code.Asm, M, {{"s", 64}, {"n", Len}, {"c", Ch}}, 1000000);
      ASSERT_TRUE(S.Ok) << G.TargetName << ": " << S.Error;
      EXPECT_EQ(S.reg("res"), Ref.Outputs.at(0))
          << G.TargetName << " len=" << Len << " ch="
          << static_cast<char>(Ch);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllTargets, IndexGridTest,
    ::testing::Values(
        CodegenGridCase{"i8086", sim::run8086, registry::MachineKind::I8086},
        CodegenGridCase{"vax", sim::runVax, registry::MachineKind::Vax},
        CodegenGridCase{"ibm370", sim::run370, registry::MachineKind::Ibm370}),
    [](const ::testing::TestParamInfo<CodegenGridCase> &Info) {
      return Info.param.TargetName;
    });

class MoveGridTest : public ::testing::TestWithParam<CodegenGridCase> {};

TEST_P(MoveGridTest, MovesExactlyTheRequestedBytes) {
  const CodegenGridCase &G = GetParam();
  auto T = registry::corpusTarget(G.Machine);
  for (int64_t Len : {1, 7, 16, 255}) {
    codegen::Program P;
    P.Ops.push_back(codegen::strMove(codegen::Value::literal(700),
                                     codegen::Value::literal(64),
                                     codegen::Value::literal(Len)));
    P.Facts.Axioms.insert("pascal.no-overlap");
    codegen::CodeGenResult Code = T->generate(P);
    interp::Memory M;
    for (int64_t I = 0; I < 300; ++I)
      M[64 + I] = static_cast<uint8_t>(1 + (I % 251));
    sim::SimResult S = G.Run(Code.Asm, M, {}, 1000000);
    ASSERT_TRUE(S.Ok) << G.TargetName << ": " << S.Error;
    for (int64_t I = 0; I < Len; ++I)
      ASSERT_EQ(S.Mem.at(700 + I), M.at(64 + I))
          << G.TargetName << " len=" << Len << " at " << I;
    // Exactly Len bytes: the next cell is untouched.
    EXPECT_EQ(S.Mem.count(700 + Len), 0u) << G.TargetName << " len=" << Len;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTargets, MoveGridTest,
    ::testing::Values(
        CodegenGridCase{"i8086", sim::run8086, registry::MachineKind::I8086},
        CodegenGridCase{"vax", sim::runVax, registry::MachineKind::Vax},
        CodegenGridCase{"ibm370", sim::run370, registry::MachineKind::Ibm370}),
    [](const ::testing::TestParamInfo<CodegenGridCase> &Info) {
      return Info.param.TargetName;
    });

class EqualGridTest : public ::testing::TestWithParam<CodegenGridCase> {};

TEST_P(EqualGridTest, MatchesSequalDescription) {
  const CodegenGridCase &G = GetParam();
  auto T = registry::corpusTarget(G.Machine);
  codegen::Program P;
  P.Ops.push_back(codegen::strEqual("res", codegen::Value::symbol("a"),
                                    codegen::Value::symbol("b"),
                                    codegen::Value::symbol("n")));
  P.Facts.KnownRanges["n"] = {0, 255};
  codegen::CodeGenResult Code = T->generate(P);

  auto Sequal = descriptions::load("pascal.sequal");
  interp::Memory M;
  interp::storeBytes(M, 64, "prefixAB");
  interp::storeBytes(M, 128, "prefixAC");
  for (int64_t Len : {0, 1, 6, 7, 8}) {
    auto Ref = interp::run(*Sequal, {64, 128, Len}, M);
    ASSERT_TRUE(Ref.Ok);
    sim::SimResult S =
        G.Run(Code.Asm, M, {{"a", 64}, {"b", 128}, {"n", Len}}, 1000000);
    ASSERT_TRUE(S.Ok) << G.TargetName << ": " << S.Error;
    EXPECT_EQ(S.reg("res"), Ref.Outputs.at(0))
        << G.TargetName << " len=" << Len;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTargets, EqualGridTest,
    ::testing::Values(
        CodegenGridCase{"i8086", sim::run8086, registry::MachineKind::I8086},
        CodegenGridCase{"vax", sim::runVax, registry::MachineKind::Vax},
        CodegenGridCase{"ibm370", sim::run370, registry::MachineKind::Ibm370}),
    [](const ::testing::TestParamInfo<CodegenGridCase> &Info) {
      return Info.param.TargetName;
    });

class ClearGridTest : public ::testing::TestWithParam<CodegenGridCase> {};

TEST_P(ClearGridTest, ClearsExactlyTheRequestedBytes) {
  const CodegenGridCase &G = GetParam();
  auto T = registry::corpusTarget(G.Machine);
  for (int64_t Len : {1, 9, 64}) {
    codegen::Program P;
    P.Ops.push_back(codegen::blockClear(codegen::Value::literal(700),
                                        codegen::Value::literal(Len)));
    codegen::CodeGenResult Code = T->generate(P);
    interp::Memory M;
    for (int64_t I = 0; I < Len + 4; ++I)
      M[700 + I] = 0xAB;
    sim::SimResult S = G.Run(Code.Asm, M, {}, 1000000);
    ASSERT_TRUE(S.Ok) << G.TargetName << ": " << S.Error;
    for (int64_t I = 0; I < Len; ++I)
      ASSERT_EQ(S.Mem.at(700 + I), 0) << G.TargetName << " at " << I;
    EXPECT_EQ(S.Mem.at(700 + Len), 0xAB) << G.TargetName << " len=" << Len;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTargets, ClearGridTest,
    ::testing::Values(
        CodegenGridCase{"i8086", sim::run8086, registry::MachineKind::I8086},
        CodegenGridCase{"vax", sim::runVax, registry::MachineKind::Vax},
        CodegenGridCase{"ibm370", sim::run370, registry::MachineKind::Ibm370}),
    [](const ::testing::TestParamInfo<CodegenGridCase> &Info) {
      return Info.param.TargetName;
    });

} // namespace
