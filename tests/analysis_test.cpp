//===- analysis_test.cpp - Table 2 derivation tests -------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/Derivations.h"

#include "descriptions/Descriptions.h"
#include "isdl/Parser.h"
#include "isdl/Validate.h"
#include "transform/ScriptIO.h"

#include <gtest/gtest.h>
#include <sstream>

using namespace extra;
using namespace extra::analysis;

namespace {

TEST(DescriptionsTest, AllLibraryEntriesParseAndValidate) {
  for (const descriptions::Entry &E : descriptions::allEntries()) {
    DiagnosticEngine Diags;
    auto D = isdl::parseDescription(E.Source, Diags);
    ASSERT_TRUE(D && !Diags.hasErrors())
        << E.Id << ":\n" << Diags.str();
    EXPECT_TRUE(isdl::validate(*D, Diags)) << E.Id << ":\n" << Diags.str();
  }
}

TEST(DescriptionsTest, CatalogMatchesTable1) {
  EXPECT_EQ(descriptions::catalogCount("Intel 8086"), 6u);
  EXPECT_EQ(descriptions::catalogCount("DG Eclipse"), 5u);
  EXPECT_EQ(descriptions::catalogCount("Univac 1100"), 21u);
  EXPECT_EQ(descriptions::catalogCount("IBM 370"), 7u);
  EXPECT_EQ(descriptions::catalogCount("Burroughs B4800"), 16u);
  EXPECT_EQ(descriptions::catalogCount("VAX-11"), 12u);
  EXPECT_EQ(descriptions::catalog().size(), 67u);
}

// Each Table 2 analysis must succeed in base mode: every step verified,
// differential checks green, common form reached.
class Table2Test : public ::testing::TestWithParam<size_t> {};

TEST_P(Table2Test, DerivationSucceeds) {
  const AnalysisCase &Case = table2Cases()[GetParam()];
  AnalysisResult R = runAnalysis(Case, Mode::Base);
  ASSERT_TRUE(R.Succeeded) << Case.Id << ": " << R.FailureReason;
  EXPECT_GT(R.StepsApplied, 0u);
  EXPECT_FALSE(R.Binding.empty());
}

INSTANTIATE_TEST_SUITE_P(AllRows, Table2Test,
                         ::testing::Range<size_t>(0, 11),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           std::string Name =
                               table2Cases()[Info.param].Id;
                           for (char &C : Name)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return Name;
                         });

TEST(Table2Test, ScasbRigelConstraints) {
  const AnalysisCase *Case = findCase("i8086.scasb/rigel.index");
  ASSERT_NE(Case, nullptr);
  AnalysisResult R = runAnalysis(*Case, Mode::Base);
  ASSERT_TRUE(R.Succeeded) << R.FailureReason;
  std::string C = R.Constraints.str();
  // The flag pins from simplification...
  EXPECT_NE(C.find("value: rf = 1"), std::string::npos) << C;
  EXPECT_NE(C.find("value: rfz = 0"), std::string::npos) << C;
  EXPECT_NE(C.find("value: df = 0"), std::string::npos) << C;
  EXPECT_NE(C.find("value: zf = 0"), std::string::npos) << C;
  // ...and the register-size constraint from binding Src.Length to cx
  // (§4.1: "the string length must fit into 16 bits").
  EXPECT_NE(C.find("range: 0 <= Src.Length <= 65535"), std::string::npos)
      << C;
  EXPECT_EQ(R.Binding.lookupA("Src.Length"), "cx");
  EXPECT_EQ(R.Binding.lookupA("ch"), "al");
  EXPECT_EQ(R.Binding.lookupA("read"), "fetch");
  EXPECT_EQ(R.Binding.lookupA("found"), "zf");
}

TEST(Table2Test, MvcCodingConstraint) {
  const AnalysisCase *Case = findCase("ibm370.mvc/pascal.sassign");
  ASSERT_NE(Case, nullptr);
  AnalysisResult R = runAnalysis(*Case, Mode::Base);
  ASSERT_TRUE(R.Succeeded) << R.FailureReason;
  std::string C = R.Constraints.str();
  // §4.2: the compiler must decrement the length before encoding it...
  EXPECT_NE(C.find("offset: encode Len as Len - 1"), std::string::npos) << C;
  // ...and the 8-bit field limits lengths to 1..256 source-side.
  EXPECT_NE(C.find("range: 1 <= Len <= 256"), std::string::npos) << C;
  EXPECT_EQ(R.Binding.lookupA("Lc"), "L");
}

TEST(Table2Test, StepCountsTrackThePaper) {
  // Absolute step counts differ (this engine's rules are coarser than
  // the 1982 system's), but the *shape* must hold: our per-row counts
  // rank-correlate positively with Table 2, and mvc — the paper's
  // largest analysis at 105 steps — has the largest operator-side
  // derivation here too (the coding-constraint integration of §4.2).
  std::vector<double> Ours, Paper;
  unsigned MvcOpSteps = 0, MaxOtherOpSteps = 0;
  for (const AnalysisCase &Case : table2Cases()) {
    AnalysisResult R = runAnalysis(Case, Mode::Base);
    ASSERT_TRUE(R.Succeeded) << Case.Id << ": " << R.FailureReason;
    Ours.push_back(R.StepsApplied);
    Paper.push_back(Case.PaperSteps);
    if (Case.InstructionId == "ibm370.mvc")
      MvcOpSteps = R.OperatorSteps;
    else
      MaxOtherOpSteps = std::max(MaxOtherOpSteps, R.OperatorSteps);
  }
  EXPECT_GT(MvcOpSteps, MaxOtherOpSteps);

  // Spearman rank correlation.
  auto Ranks = [](const std::vector<double> &V) {
    std::vector<double> R(V.size());
    for (size_t I = 0; I < V.size(); ++I)
      for (size_t J = 0; J < V.size(); ++J)
        if (V[J] < V[I] || (V[J] == V[I] && J < I))
          R[I] += 1;
    return R;
  };
  std::vector<double> RA = Ranks(Ours), RB = Ranks(Paper);
  double N = static_cast<double>(RA.size());
  double SumD2 = 0;
  for (size_t I = 0; I < RA.size(); ++I)
    SumD2 += (RA[I] - RB[I]) * (RA[I] - RB[I]);
  double Rho = 1.0 - 6.0 * SumD2 / (N * (N * N - 1.0));
  EXPECT_GT(Rho, 0.6) << "rank correlation with Table 2 too weak: " << Rho;
}

// Analyses beyond Table 2: the machinery generalizes to unanalyzed
// catalog instructions.
class ExtendedCaseTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ExtendedCaseTest, DerivationSucceeds) {
  const AnalysisCase &Case = extendedCases()[GetParam()];
  AnalysisResult R = runAnalysis(Case, Mode::Base);
  ASSERT_TRUE(R.Succeeded) << Case.Id << ": " << R.FailureReason;
  EXPECT_FALSE(R.Binding.empty());
}

INSTANTIATE_TEST_SUITE_P(All, ExtendedCaseTest,
                         ::testing::Range<size_t>(0, 2),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           std::string Name =
                               extendedCases()[Info.param].Id;
                           for (char &C : Name)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return Name;
                         });

TEST(Movc3Test, BaseModeFailsLikeThePaper) {
  AnalysisResult R = runAnalysis(movc3SassignCase(), Mode::Base);
  EXPECT_FALSE(R.Succeeded);
  EXPECT_NE(R.FailureReason.find("relational constraint"),
            std::string::npos)
      << R.FailureReason;
}

TEST(Movc3Test, ExtensionModeSucceeds) {
  AnalysisResult R = runAnalysis(movc3SassignCase(), Mode::Extension);
  ASSERT_TRUE(R.Succeeded) << R.FailureReason;
  EXPECT_TRUE(R.Constraints.hasRelational());
  EXPECT_NE(R.Constraints.str().find("pascal.no-overlap"),
            std::string::npos);
}

// The recorded corpus, frozen: for each case in order, its id and Table 2
// columns, and for each side the step count and an FNV-1a digest of the
// printed script. Recorded when the steps were still C++ builders, so
// the scripts/ files that replaced them must reproduce every line; the
// mined priors are a pure function of this ordered corpus.
std::string corpusLine(const AnalysisCase &C) {
  auto Side = [](const transform::Script &S) {
    uint64_t H = 0xcbf29ce484222325ULL;
    for (unsigned char Ch : transform::printScript(S))
      H = (H ^ Ch) * 0x100000001b3ULL;
    std::ostringstream Out;
    Out << S.size() << ":" << std::hex << H;
    return Out.str();
  };
  std::ostringstream Out;
  Out << C.Id << " | " << C.Machine << " | " << C.Instruction << " | "
      << C.Language << " | " << C.Operation << " | paper=" << C.PaperSteps
      << (C.RequiresExtension ? " extension" : " base")
      << " | op=" << Side(C.OperatorScript)
      << " inst=" << Side(C.InstructionScript);
  return Out.str();
}

TEST(CorpusTest, FrozenCorpusTable) {
  static const std::vector<std::string> Frozen = {
      "i8086.movsb/pascal.smove | Intel 8086 | movsb | Pascal"
      " | string move | paper=52 base"
      " | op=10:a6f4b41e10d38793 inst=13:3cbfdef915376f4c",
      "i8086.movsb/pl1.move | Intel 8086 | movsb | PL/1"
      " | string move | paper=66 base"
      " | op=12:8a7a0c02e68610e1 inst=13:3cbfdef915376f4c",
      "i8086.scasb/rigel.index | Intel 8086 | scasb | Rigel"
      " | string search | paper=73 base"
      " | op=7:162edb024cd98f88 inst=23:769603b1e953cbca",
      "i8086.scasb/clu.search | Intel 8086 | scasb | CLU"
      " | string search | paper=86 base"
      " | op=9:bacfd8376c1cff0a inst=23:769603b1e953cbca",
      "i8086.cmpsb/pascal.sequal | Intel 8086 | cmpsb | Pascal"
      " | string compare | paper=79 base"
      " | op=18:df9b429de00341d8 inst=22:d75d7652f71dcda7",
      "vax.movc3/pc2.copy | VAX-11 | movc3 | PC2"
      " | block copy | paper=21 base"
      " | op=2:92bff45a116bc981 inst=1:fadfd13c3650b101",
      "vax.movc5/pc2.clear | VAX-11 | movc5 | PC2"
      " | block clear | paper=26 base"
      " | op=0:cbf29ce484222325 inst=13:f09d69632721b3fd",
      "vax.locc/rigel.index | VAX-11 | locc | Rigel"
      " | string search | paper=33 base"
      " | op=2:d39c7b1ef19dcac8 inst=5:7723757ccb3c39b1",
      "vax.locc/clu.search | VAX-11 | locc | CLU"
      " | string search | paper=32 base"
      " | op=4:99a9808ae52bbca8 inst=5:7723757ccb3c39b1",
      "vax.cmpc3/pascal.sequal | VAX-11 | cmpc3 | Pascal"
      " | string compare | paper=47 base"
      " | op=8:aaee720c274fa20f inst=2:c4355a6829d03ae8",
      "ibm370.mvc/pascal.sassign | IBM 370 | mvc | Pascal"
      " | string move | paper=105 base"
      " | op=24:76476ad62065f15f inst=0:cbf29ce484222325",
      "i8086.stosb/pc2.clear | Intel 8086 | stosb | PC2"
      " | block clear | paper=0 base"
      " | op=2:6bd8089278239715 inst=17:208478029b18f4d5",
      "vax.skpc/rigel.span | VAX-11 | skpc | Rigel"
      " | span | paper=0 base"
      " | op=1:cf5f07092a54888a inst=5:14fe43a41141d3a4",
      "vax.movc3/pascal.sassign | VAX-11 | movc3 | Pascal"
      " | string assignment | paper=0 extension"
      " | op=20:6a0000f74f6a58d7 inst=4:f7cb4f5861ab8bfe",
  };
  const std::vector<AnalysisCase> &Cases = corpus();
  ASSERT_EQ(Cases.size(), Frozen.size());
  for (size_t I = 0; I < Cases.size(); ++I)
    EXPECT_EQ(corpusLine(Cases[I]), Frozen[I]);
}

TEST(CorpusTest, GroupAccessorsAndLookupViewTheOneCorpus) {
  const std::vector<AnalysisCase> &Cases = corpus();
  ASSERT_EQ(Cases.size(), 14u);
  EXPECT_EQ(table2Cases().data(), Cases.data());
  EXPECT_EQ(table2Cases().size(), 11u);
  EXPECT_EQ(extendedCases().data(), Cases.data() + 11);
  EXPECT_EQ(extendedCases().size(), 2u);
  EXPECT_EQ(&movc3SassignCase(), &Cases.back());
  for (const AnalysisCase &C : Cases)
    EXPECT_EQ(findCase(C.Id), &C);
  EXPECT_EQ(findCase("vax.movc3/no.such"), nullptr);
}

} // namespace
