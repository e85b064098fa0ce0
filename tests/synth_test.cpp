//===- synth_test.cpp - Rule-argument synthesis tests -----------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "synth/Synth.h"

#include "analysis/Derivations.h"
#include "analysis/Priors.h"
#include "descriptions/Descriptions.h"
#include "isdl/Equiv.h"
#include "transform/Transform.h"

#include <gtest/gtest.h>

using namespace extra;
using namespace extra::synth;
using transform::Step;

namespace {

/// Replays the first \p Count steps of \p S on description \p Id.
isdl::Description replayTo(const std::string &Id, const transform::Script &S,
                           size_t Count) {
  auto D = descriptions::load(Id);
  EXPECT_TRUE(D) << Id;
  transform::Engine E(std::move(*D));
  for (size_t I = 0; I < Count; ++I)
    EXPECT_TRUE(E.apply(S[I]).Applied) << Id << " step " << I;
  return E.takeDescription();
}

std::string arg(const Step &S, const char *Key) {
  auto It = S.Args.find(Key);
  return It == S.Args.end() ? std::string() : It->second;
}

//===----------------------------------------------------------------------===//
// Divergence reports
//===----------------------------------------------------------------------===//

TEST(DivergenceTest, ReportedOnEntryBodyMismatch) {
  // Raw movc3 vs pc2.copy: close relatives whose entry bodies diverge.
  auto Op = descriptions::load("pc2.copy");
  auto Inst = descriptions::load("vax.movc3");
  isdl::MatchResult R = isdl::matchDescriptions(*Op, *Inst);
  ASSERT_FALSE(R.Matched);

  const isdl::DivergenceReport &D = R.Divergence;
  ASSERT_TRUE(D.Valid);
  EXPECT_FALSE(D.Detail.empty());
  EXPECT_EQ(D.RoutineA, Op->entryRoutine()->Name);
  EXPECT_EQ(D.RoutineB, Inst->entryRoutine()->Name);
  EXPECT_EQ(D.SpanA.RoutineName, D.RoutineA);
  EXPECT_EQ(D.SpanB.RoutineName, D.RoutineB);
  // Spans are half-open ranges over the top-level entry bodies.
  EXPECT_LE(D.SpanA.Begin, D.SpanA.End);
  EXPECT_LE(D.SpanB.Begin, D.SpanB.End);
  EXPECT_LE(D.SpanA.End, Op->entryRoutine()->Body.size());
  EXPECT_LE(D.SpanB.End, Inst->entryRoutine()->Body.size());
  // At least one side has unmatched statements, else the match would
  // have succeeded.
  EXPECT_TRUE(!D.SpanA.empty() || !D.SpanB.empty());
}

TEST(DivergenceTest, AbsentOnSuccessfulMatch) {
  const analysis::AnalysisCase *C = analysis::findCase("vax.movc3/pc2.copy");
  ASSERT_NE(C, nullptr);
  isdl::Description Op =
      replayTo(C->OperatorId, C->OperatorScript, C->OperatorScript.size());
  isdl::Description Inst = replayTo(C->InstructionId, C->InstructionScript,
                                    C->InstructionScript.size());
  isdl::MatchResult R = isdl::matchDescriptions(Op, Inst);
  ASSERT_TRUE(R.Matched);
  EXPECT_FALSE(R.Divergence.Valid);
}

TEST(DivergenceTest, PartialBindingSurvivesFailure) {
  // locc vs rigel.index bind their access routines before the entry
  // bodies diverge; the partial binding must carry those pairs.
  auto Op = descriptions::load("rigel.index");
  auto Inst = descriptions::load("vax.locc");
  isdl::MatchResult R = isdl::matchDescriptions(*Op, *Inst);
  ASSERT_FALSE(R.Matched);
  ASSERT_TRUE(R.Divergence.Valid);
  EXPECT_FALSE(R.Divergence.Partial.pairs().empty());
}

//===----------------------------------------------------------------------===//
// Name synthesis
//===----------------------------------------------------------------------===//

TEST(NameSynthTest, PointerNameHeuristic) {
  EXPECT_EQ(pointerNameFor("Src.Base", 1), "ptr");
  EXPECT_EQ(pointerNameFor("Src.Base", 2), "sp");
  EXPECT_EQ(pointerNameFor("Dst.Base", 2), "dp");
  EXPECT_EQ(pointerNameFor("Sbase", 2), "sp");
  EXPECT_EQ(pointerNameFor("A.Base", 2), "pa");
  EXPECT_EQ(pointerNameFor("B.Base", 2), "pb");
}

TEST(NameSynthTest, ProposalsContainEveryRecordedRenamingStep) {
  // Replay every recorded script; at each renaming step, the synthesizer
  // run on the *current* description must propose the very arguments the
  // 1982 user typed. index-to-pointer is checked at the first site (the
  // names are minted from the full site set, as the search applies them).
  unsigned I2P = 0, CountDown = 0, ExitCause = 0;
  const Vocabulary &Vocab = analysis::Priors::instance().vocabulary();

  auto CheckScript = [&](const std::string &Id, const transform::Script &S) {
    auto D = descriptions::load(Id);
    ASSERT_TRUE(D) << Id;
    transform::Engine E(std::move(*D));
    bool CheckedI2P = false;
    for (size_t I = 0; I < S.size(); ++I) {
      const Step &Rec = S[I];
      if (Rec.Rule == "index-to-pointer" && !CheckedI2P) {
        CheckedI2P = true;
        std::vector<Step> Props = proposeIndexToPointer(E.current());
        for (size_t J = I; J < S.size(); ++J) {
          if (S[J].Rule != "index-to-pointer")
            continue;
          bool Found = false;
          for (const Step &P : Props)
            Found = Found || P.Args == S[J].Args;
          EXPECT_TRUE(Found)
              << Id << ": no proposal matches recorded " << S[J].str();
          ++I2P;
        }
      } else if (Rec.Rule == "count-up-to-down") {
        std::vector<Step> Props = proposeCountUpToDown(E.current());
        bool Found = false;
        for (const Step &P : Props)
          Found = Found || P.Args == Rec.Args;
        EXPECT_TRUE(Found) << Id << ": no proposal matches " << Rec.str();
        ++CountDown;
      } else if (Rec.Rule == "record-exit-cause" && I > 0 &&
                 S[I - 1].Rule == "allocate-temp" &&
                 arg(S[I - 1], "name") == arg(Rec, "flag")) {
        // The flag must be fresh, so synthesis proposes the allocation
        // and the recording as one unit; check against the state before
        // the recorded allocate-temp.
        isdl::Description Before = replayTo(Id, S, I - 1);
        bool Found = false;
        for (const Proposal &P : proposeRecordExitCause(Before, Vocab))
          Found = Found || (P.Steps.size() == 2 &&
                            P.Steps[0].Args == S[I - 1].Args &&
                            P.Steps[1].Args == Rec.Args);
        EXPECT_TRUE(Found) << Id << ": no proposal matches " << Rec.str();
        ++ExitCause;
      }
      ASSERT_TRUE(E.apply(Rec).Applied) << Id << " step " << I;
    }
  };

  for (const analysis::AnalysisCase &C : analysis::corpus()) {
    CheckScript(C.OperatorId, C.OperatorScript);
    CheckScript(C.InstructionId, C.InstructionScript);
  }
  // The recorded corpus exercises all three renaming rules.
  EXPECT_GE(I2P, 8u);
  EXPECT_GE(CountDown, 1u);
  EXPECT_GE(ExitCause, 3u);
}

TEST(NameSynthTest, VocabularyMinedFromRecordedScripts) {
  const Vocabulary &V = analysis::Priors::instance().vocabulary();
  ASSERT_TRUE(V.Temps.count("di"));
  EXPECT_EQ(V.Temps.at("di").Name, "temp");
  ASSERT_TRUE(V.Temps.count("r1"));
  EXPECT_EQ(V.Temps.at("r1").Name, "rb");
  EXPECT_EQ(V.Temps.at("r1").Type, "bits:31:0");
  bool Found = false, Ne = false;
  for (const std::string &F : V.Flags) {
    Found = Found || F == "found";
    Ne = Ne || F == "ne";
  }
  EXPECT_TRUE(Found);
  EXPECT_TRUE(Ne);
}

//===----------------------------------------------------------------------===//
// Code synthesis
//===----------------------------------------------------------------------===//

TEST(CodeSynthTest, SynthesizedAugmentsRoundTripThroughEngine) {
  // For recorded cases whose instruction script ends in an augment
  // (allocate-temp / add-prologue / replace-output tail), replay both
  // sides to the brink of the augment and let code synthesis regenerate
  // it. Every proposed step must apply through the engine — i.e. the
  // synthesized code text parses back and passes the rule's own checks.
  const Vocabulary &Vocab = analysis::Priors::instance().vocabulary();
  unsigned CasesWithProposals = 0, StepsApplied = 0;

  for (const analysis::AnalysisCase &C : analysis::corpus()) {
    size_t First = C.InstructionScript.size();
    for (size_t I = 0; I < C.InstructionScript.size(); ++I) {
      const std::string &R = C.InstructionScript[I].Rule;
      if (R == "add-prologue" || R == "replace-output" ||
          (R == "allocate-temp" &&
           I + 1 < C.InstructionScript.size() &&
           C.InstructionScript[I + 1].Rule == "add-prologue")) {
        First = I;
        break;
      }
    }
    if (First == C.InstructionScript.size())
      continue;

    isdl::Description Op =
        replayTo(C.OperatorId, C.OperatorScript, C.OperatorScript.size());
    isdl::Description Inst =
        replayTo(C.InstructionId, C.InstructionScript, First);

    std::vector<Proposal> Props = proposeAugments(Op, Inst, Vocab);
    if (Props.empty())
      continue;
    ++CasesWithProposals;
    for (const Proposal &P : Props) {
      transform::Engine E(Inst.clone());
      for (const Step &S : P.Steps) {
        EXPECT_TRUE(E.apply(S).Applied)
            << C.Id << ": synthesized step refused: " << S.str();
        ++StepsApplied;
      }
    }
  }
  // The corpus must exercise the synthesizer, and nontrivially.
  EXPECT_GE(CasesWithProposals, 3u);
  EXPECT_GE(StepsApplied, 6u);
}

TEST(CodeSynthTest, SynthesisOnlySuggestsInstructionSideAugments) {
  // proposeAugments edits the instruction; synthesizeProposals must not
  // offer augment steps when the current side is the operator.
  auto Op = descriptions::load("pc2.clear");
  auto Inst = descriptions::load("i8086.stosb");
  const Vocabulary &Vocab = analysis::Priors::instance().vocabulary();
  for (const Proposal &P :
       synthesizeProposals(*Op, *Inst, /*CurrentIsInstruction=*/false, Vocab))
    for (const Step &S : P.Steps) {
      EXPECT_NE(S.Rule, "add-prologue");
      EXPECT_NE(S.Rule, "replace-output");
    }
}

} // namespace
