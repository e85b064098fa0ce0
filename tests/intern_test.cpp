//===- intern_test.cpp - Hash-consed AST / COW handle tests -----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// The differential suite for the interned hot path: the new representation
// (hash-consed arena, memoized canonical fingerprints, FeatureVec
// distances, copy-on-write engine state) must be *observationally
// identical* to the legacy deep-copy path on the whole description
// library — byte-identical printed text, equal fingerprints, equal
// structural distances, and identical whole-search outcomes. Run under
// ASan/UBSan in the sanitizers CI job, these tests also exercise the
// arena and the sharing/undo aliasing edges.
//
//===----------------------------------------------------------------------===//

#include "analysis/Advisor.h"
#include "descriptions/Descriptions.h"
#include "isdl/Intern.h"
#include "isdl/Printer.h"
#include "search/Canon.h"
#include "search/Searcher.h"
#include "transform/Transform.h"

#include <gtest/gtest.h>

using namespace extra;
using namespace extra::isdl;
using transform::Engine;
using transform::Script;
using transform::Step;

namespace {

std::vector<std::string> corpusIds() {
  std::vector<std::string> Ids;
  for (const descriptions::Entry &E : descriptions::allEntries())
    Ids.push_back(E.Id);
  return Ids;
}

//===----------------------------------------------------------------------===//
// Fingerprint parity: values are unchanged (registry dedup keys and
// recorded traces depend on this).
//===----------------------------------------------------------------------===//

TEST(InternTest, FingerprintMatchesLegacyOnWholeCorpus) {
  for (const std::string &Id : corpusIds()) {
    auto D = descriptions::load(Id);
    ASSERT_TRUE(D) << Id;
    EXPECT_EQ(search::fingerprint(*D), search::fingerprintLegacy(*D))
        << "interned fingerprint diverged from legacy on " << Id;
  }
}

TEST(InternTest, FingerprintMatchesLegacyAfterTransformations) {
  // Parity must hold on *derived* states too, not just library roots:
  // apply every applicable candidate step to every description and
  // compare on the results.
  for (const std::string &Id : corpusIds()) {
    auto D = descriptions::load(Id);
    ASSERT_TRUE(D) << Id;
    for (const Step &S : search::enumerateCandidates(*D, *D)) {
      Engine E(D->clone());
      if (!E.apply(S).Applied)
        continue;
      const Description &After = E.current();
      EXPECT_EQ(search::fingerprint(After), search::fingerprintLegacy(After))
          << Id << " after " << S.str();
    }
  }
}

TEST(InternTest, FingerprintMemoAnswersRepeats) {
  Interner &I = Interner::local();
  I.reset();
  auto D = descriptions::load("i8086.movsb");
  ASSERT_TRUE(D);
  uint64_t First = I.canonicalFingerprint(*D);
  uint64_t HitsBefore = I.memoHits();
  // A structurally identical clone must be answered from the memo.
  auto Clone = D->clone();
  EXPECT_EQ(I.canonicalFingerprint(Clone), First);
  EXPECT_GT(I.memoHits(), HitsBefore);
}

TEST(InternTest, InternSharesEqualSubtrees) {
  Interner &I = Interner::local();
  I.reset();
  auto D = descriptions::load("i8086.movsb");
  ASSERT_TRUE(D);
  uint64_t IdA = I.identity(*D);
  size_t NodesAfterFirst = I.nodeCount();
  EXPECT_GT(NodesAfterFirst, 0u);
  // Interning a structural clone creates no new nodes: every subtree is
  // already in the arena.
  auto Clone = D->clone();
  EXPECT_EQ(I.identity(Clone), IdA);
  EXPECT_EQ(I.nodeCount(), NodesAfterFirst);
}

TEST(InternTest, ResetInvalidatesNothingButNodes) {
  Interner &I = Interner::local();
  auto D = descriptions::load("vax.locc");
  ASSERT_TRUE(D);
  uint64_t Fp = I.canonicalFingerprint(*D);
  I.reset();
  EXPECT_EQ(I.nodeCount(), 0u);
  // Values recomputed after a reset are identical.
  EXPECT_EQ(I.canonicalFingerprint(*D), Fp);
}

//===----------------------------------------------------------------------===//
// FeatureVec parity with the legacy map-based structural distance
//===----------------------------------------------------------------------===//

TEST(InternTest, FeatureDistanceMatchesLegacyOnAllPairs) {
  std::vector<std::unique_ptr<Description>> Descs;
  for (const std::string &Id : corpusIds())
    Descs.push_back(descriptions::load(Id));
  for (size_t A = 0; A < Descs.size(); ++A) {
    FeatureVec FA = FeatureVec::of(*Descs[A]);
    for (size_t B = 0; B < Descs.size(); ++B) {
      FeatureVec FB = FeatureVec::of(*Descs[B]);
      EXPECT_EQ(FA.distance(FB),
                analysis::structuralDistance(*Descs[A], *Descs[B]))
          << corpusIds()[A] << " vs " << corpusIds()[B];
    }
  }
}

TEST(InternTest, HandleDistanceShortCircuitsOnSharedVersion) {
  DescHandle A(descriptions::load("i8086.scasb")->clone());
  DescHandle B = A; // shared version
  EXPECT_TRUE(A.same(B));
  EXPECT_EQ(DescHandle::distance(A, B), 0u);
  // A distinct but structurally equal version measures 0 the long way.
  DescHandle C(A.clone());
  EXPECT_FALSE(A.same(C));
  EXPECT_EQ(DescHandle::distance(A, C), 0u);
}

//===----------------------------------------------------------------------===//
// Copy-on-write engine: sharing, apply, undo-after-share
//===----------------------------------------------------------------------===//

/// A step that applies on every library description.
Step anyApplicableStep(const Description &D, bool &Found) {
  for (const Step &S : search::enumerateCandidates(D, D)) {
    Engine Probe(D.clone());
    if (Probe.apply(S).Applied) {
      Found = true;
      return S;
    }
  }
  Found = false;
  return Step{};
}

TEST(InternTest, CowApplyMatchesOwnedApplyOnWholeCorpus) {
  for (const std::string &Id : corpusIds()) {
    auto D = descriptions::load(Id);
    ASSERT_TRUE(D) << Id;
    DescHandle Shared(D->clone());
    for (const Step &S : search::enumerateCandidates(*D, *D)) {
      // Owned path: engine owns a private description from the start.
      Engine Owned(D->clone());
      // COW path: engine shares `Shared` until the step applies.
      Engine Cow(Shared);
      transform::ApplyResult ROwned = Owned.apply(S);
      transform::ApplyResult RCow = Cow.apply(S);
      ASSERT_EQ(ROwned.Applied, RCow.Applied) << Id << " step " << S.str();
      if (!ROwned.Applied)
        continue;
      // Byte-identical text, equal fingerprints (both computations), and
      // equal structural distance against the untouched original.
      EXPECT_EQ(printDescription(Owned.current()),
                printDescription(Cow.current()))
          << Id << " step " << S.str();
      EXPECT_EQ(search::fingerprint(Owned.current()),
                search::fingerprint(Cow.current()));
      EXPECT_EQ(search::fingerprintLegacy(Owned.current()),
                search::fingerprintLegacy(Cow.current()));
      EXPECT_EQ(analysis::structuralDistance(Owned.current(), *D),
                analysis::structuralDistance(Cow.current(), *D));
      // The shared original must be untouched by the COW apply.
      EXPECT_EQ(printDescription(*Shared), printDescription(*D))
          << Id << " step " << S.str() << " mutated a shared version";
    }
  }
}

TEST(InternTest, RefusalsLeaveScratchBufferPure) {
  // The scratch-reuse contract (Transformation::apply): a refused rule
  // must leave the working copy untouched, because the next attempt on
  // the same version reuses the buffer instead of re-cloning. Sweep
  // every candidate through ONE engine per description — refusals and
  // successes interleaved on the same thread-local scratch slot — and
  // check each applied result against a fresh single-use engine. A rule
  // that mutated before refusing would corrupt the shared buffer and
  // diverge the next applied candidate.
  for (const std::string &Id : corpusIds()) {
    auto D = descriptions::load(Id);
    ASSERT_TRUE(D) << Id;
    DescHandle Shared(D->clone());
    std::string Before = printDescription(*D);
    Engine Reused(Shared);
    for (const Step &S : search::enumerateCandidates(*D, *D)) {
      bool Applied = Reused.apply(S).Applied;
      if (!Applied) {
        EXPECT_EQ(printDescription(Reused.current()), Before)
            << Id << ": refusal of " << S.str() << " mutated engine state";
        continue;
      }
      Engine Fresh(D->clone());
      ASSERT_TRUE(Fresh.apply(S).Applied) << Id << " step " << S.str();
      EXPECT_EQ(printDescription(Reused.current()),
                printDescription(Fresh.current()))
          << Id << ": scratch buffer was dirty before " << S.str();
      // Back to the shared version so every candidate starts equal.
      ASSERT_TRUE(Reused.undo());
      ASSERT_TRUE(Reused.currentHandle().same(Shared));
    }
  }
}

TEST(InternTest, UndoAfterShareRestoresExactText) {
  for (const std::string &Id : corpusIds()) {
    auto D = descriptions::load(Id);
    ASSERT_TRUE(D) << Id;
    bool Found = false;
    Step S = anyApplicableStep(*D, Found);
    if (!Found)
      continue;
    std::string Original = printDescription(*D);
    DescHandle Shared(D->clone());
    Engine E(Shared);
    ASSERT_TRUE(E.apply(S).Applied) << Id;
    // Keep a handle to the post-step version, then undo: the kept handle
    // must still read the post-step text (versions are immutable), and
    // the engine must be back on the pre-step version byte for byte.
    DescHandle After = E.currentHandle();
    std::string AfterText = printDescription(*After);
    ASSERT_TRUE(E.undo());
    EXPECT_EQ(printDescription(E.current()), Original) << Id;
    EXPECT_TRUE(E.currentHandle().same(Shared)) << Id;
    EXPECT_EQ(printDescription(*After), AfterText)
        << Id << ": undo mutated a shared post-step version";
  }
}

TEST(InternTest, TakeOnSharedHandleLeavesSiblingIntact) {
  auto D = descriptions::load("pc2.clear");
  ASSERT_TRUE(D);
  DescHandle A(D->clone());
  DescHandle B = A;
  std::string Text = printDescription(*A);
  Description Taken = std::move(A).take(); // shared: must deep-copy
  EXPECT_FALSE(A.valid());
  ASSERT_TRUE(B.valid());
  EXPECT_EQ(printDescription(*B), Text);
  EXPECT_EQ(printDescription(Taken), Text);
  // Sole owner: take() may move, and the handle dies.
  Description Taken2 = std::move(B).take();
  EXPECT_FALSE(B.valid());
  EXPECT_EQ(printDescription(Taken2), Text);
}

//===----------------------------------------------------------------------===//
// Whole-search differential: the COW hot path and the legacy hot path are
// the same search (same outcome, same scripts, same node traffic).
//===----------------------------------------------------------------------===//

void expectSearchesIdentical(const std::string &OperatorId,
                             const std::string &InstructionId) {
  auto Op = descriptions::load(OperatorId);
  auto Inst = descriptions::load(InstructionId);
  ASSERT_TRUE(Op && Inst);

  search::SearchLimits Cow;
  Cow.VerifyTrials = 0; // keep the test fast; replay is not under test
  search::SearchLimits Legacy = Cow;
  Legacy.LegacyHotPath = true;

  search::SearchOutcome A = search::searchDerivation(*Op, *Inst, Cow);
  search::SearchOutcome B = search::searchDerivation(*Op, *Inst, Legacy);

  EXPECT_EQ(A.Found, B.Found);
  ASSERT_EQ(A.OperatorScript.size(), B.OperatorScript.size());
  for (size_t I = 0; I < A.OperatorScript.size(); ++I)
    EXPECT_EQ(A.OperatorScript[I].str(), B.OperatorScript[I].str());
  ASSERT_EQ(A.InstructionScript.size(), B.InstructionScript.size());
  for (size_t I = 0; I < A.InstructionScript.size(); ++I)
    EXPECT_EQ(A.InstructionScript[I].str(), B.InstructionScript[I].str());
  // Node traffic is part of the contract: the representations may not
  // change what the search explores.
  EXPECT_EQ(A.Stats.NodesExpanded, B.Stats.NodesExpanded);
  EXPECT_EQ(A.Stats.NodesGenerated, B.Stats.NodesGenerated);
  EXPECT_EQ(A.Stats.HashHits, B.Stats.HashHits);
  EXPECT_EQ(A.Stats.Reopened, B.Stats.Reopened);
}

TEST(InternTest, SearchOutcomeIdenticalToLegacyPathMovc3) {
  expectSearchesIdentical("pc2.copy", "vax.movc3");
}

TEST(InternTest, SearchOutcomeIdenticalToLegacyPathSkpc) {
  expectSearchesIdentical("rigel.span", "vax.skpc");
}

} // namespace
