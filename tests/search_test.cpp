//===- search_test.cpp - Autonomous derivation search tests -----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "search/BatchDriver.h"
#include "search/Searcher.h"

#include "analysis/Derivations.h"
#include "analysis/Priors.h"
#include "descriptions/Descriptions.h"
#include "isdl/Equiv.h"
#include "isdl/Intern.h"
#include "isdl/Traverse.h"
#include "obs/Metrics.h"
#include "registry/RegistryBuilder.h"
#include "support/FaultInjection.h"
#include "transform/Transform.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <gtest/gtest.h>
#include <optional>

using namespace extra;
using namespace extra::search;
using isdl::canonicalFingerprint;
using isdl::pairKey;
using registry::pairingKeyHex;

namespace {

/// Sorted one-line renderings of a constraint set, for order-insensitive
/// comparison between a discovered derivation and the recorded one.
std::vector<std::string> constraintLines(const constraint::ConstraintSet &CS) {
  std::vector<std::string> Out;
  for (const constraint::Constraint &C : CS.items())
    Out.push_back(C.str());
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Applies a recorded script and returns the final description.
isdl::Description runScript(const std::string &Id,
                            const transform::Script &S) {
  auto D = descriptions::load(Id);
  EXPECT_TRUE(D) << Id;
  transform::Engine E(std::move(*D));
  std::string Error;
  EXPECT_EQ(E.applyScript(S, &Error), S.size()) << Id << ": " << Error;
  return E.takeDescription();
}

//===----------------------------------------------------------------------===//
// Canonical fingerprints
//===----------------------------------------------------------------------===//

TEST(CanonTest, RenameInvariant) {
  // The fingerprint abstracts names away: alpha-renaming a variable or a
  // routine must not change it.
  auto A = descriptions::load("rigel.index");
  uint64_t Before = canonicalFingerprint(*A);

  transform::Engine E(A->clone());
  ASSERT_TRUE(E.apply({"rename-variable", "",
                       {{"from", "Src.Length"}, {"to", "zz"}}})
                  .Applied);
  EXPECT_EQ(canonicalFingerprint(E.current()), Before);

  ASSERT_TRUE(
      E.apply({"rename-routine", "", {{"from", "read"}, {"to", "grab"}}})
          .Applied);
  EXPECT_EQ(canonicalFingerprint(E.current()), Before);
}

TEST(CanonTest, DistinguishesStructure) {
  auto A = descriptions::load("pc2.clear");
  auto B = descriptions::load("pc2.copy");
  EXPECT_NE(canonicalFingerprint(*A), canonicalFingerprint(*B));
}

TEST(CanonTest, MatchedFinalFormsFingerprintEqual) {
  // The goal test of the searcher rests on: matchable => equal
  // fingerprints. Exercise it on every recorded derivation's final forms.
  auto Check = [](const analysis::AnalysisCase &C) {
    isdl::Description Op = runScript(C.OperatorId, C.OperatorScript);
    isdl::Description Inst = runScript(C.InstructionId, C.InstructionScript);
    ASSERT_TRUE(isdl::matchDescriptions(Op, Inst).Matched) << C.Id;
    EXPECT_EQ(canonicalFingerprint(Op), canonicalFingerprint(Inst))
        << C.Id;
  };
  for (const analysis::AnalysisCase &C : analysis::corpus())
    Check(C);
}

TEST(CanonTest, PairKeyAsymmetric) {
  uint64_t A = canonicalFingerprint(*descriptions::load("pc2.clear"));
  uint64_t B = canonicalFingerprint(*descriptions::load("i8086.stosb"));
  EXPECT_NE(pairKey(A, B), pairKey(B, A));
  EXPECT_NE(pairKey(A, B), pairKey(A, A));
}

TEST(PairingKeyTest, StableOrderedAndModeSensitive) {
  auto K1 = pairingKeyHex("pc2.copy", "vax.movc3", analysis::Mode::Base);
  auto K2 = pairingKeyHex("pc2.copy", "vax.movc3", analysis::Mode::Base);
  ASSERT_TRUE(bool(K1));
  ASSERT_TRUE(bool(K2));
  EXPECT_EQ(*K1, *K2); // Deterministic.
  EXPECT_EQ(K1->substr(0, 2), "0x");

  // The pairing is ordered (operator side vs instruction side).
  auto Swapped = pairingKeyHex("vax.movc3", "pc2.copy", analysis::Mode::Base);
  ASSERT_TRUE(bool(Swapped));
  EXPECT_NE(*K1, *Swapped);

  // Extension mode is a distinct registry entry.
  auto Ext = pairingKeyHex("pc2.copy", "vax.movc3", analysis::Mode::Extension);
  ASSERT_TRUE(bool(Ext));
  EXPECT_NE(*K1, *Ext);

  // Unknown descriptions fault instead of keying garbage.
  EXPECT_FALSE(bool(pairingKeyHex("no.such.op", "vax.movc3",
                                  analysis::Mode::Base)));
}

//===----------------------------------------------------------------------===//
// Derivation discovery
//===----------------------------------------------------------------------===//

/// Discovery must match the recorded derivation's constraint set exactly
/// (the scripts may differ — several step orders reach common form).
void expectDiscoveryMatchesRecorded(const char *CaseId) {
  const analysis::AnalysisCase *Recorded = analysis::findCase(CaseId);
  ASSERT_NE(Recorded, nullptr) << CaseId;

  SearchLimits Limits;
  DiscoveryResult R = discoverAndVerify(Recorded->OperatorId,
                                        Recorded->InstructionId, Limits);
  ASSERT_TRUE(R.Outcome.Found) << CaseId << ": "
                               << R.Outcome.FailureReason;
  EXPECT_TRUE(R.Verified) << CaseId << ": " << R.Replay.FailureReason;

  analysis::AnalysisResult Replay = analysis::runAnalysis(*Recorded);
  ASSERT_TRUE(Replay.Succeeded) << CaseId;
  EXPECT_EQ(constraintLines(R.Replay.Constraints),
            constraintLines(Replay.Constraints))
      << CaseId;

  EXPECT_GT(R.Outcome.Stats.NodesExpanded, 0u);
  EXPECT_GT(R.Outcome.Stats.WallMs, 0.0);
  EXPECT_GE(R.Outcome.Stats.hashHitRate(), 0.0);
  EXPECT_LE(R.Outcome.Stats.hashHitRate(), 1.0);
}

TEST(SearcherTest, DiscoversMovc3Pc2Copy) {
  expectDiscoveryMatchesRecorded("vax.movc3/pc2.copy");
}

TEST(SearcherTest, DiscoversStosbPc2Clear) {
  expectDiscoveryMatchesRecorded("i8086.stosb/pc2.clear");
}

TEST(SearcherTest, DiscoversMovc5Pc2Clear) {
  expectDiscoveryMatchesRecorded("vax.movc5/pc2.clear");
}

TEST(SearcherTest, DiscoversLoccRigelIndex) {
  expectDiscoveryMatchesRecorded("vax.locc/rigel.index");
}

TEST(SearcherTest, DiscoversLoccCluSearch) {
  expectDiscoveryMatchesRecorded("vax.locc/clu.search");
}

TEST(SearcherTest, DiscoversSkpcRigelSpan) {
  expectDiscoveryMatchesRecorded("vax.skpc/rigel.span");
}

TEST(SearcherTest, DiscoversMovsbSmove) {
  expectDiscoveryMatchesRecorded("i8086.movsb/pascal.smove");
}

TEST(SearcherTest, DiscoversMovsbPl1Move) {
  expectDiscoveryMatchesRecorded("i8086.movsb/pl1.move");
}

TEST(SearcherTest, DiscoversMajorityOfRecordedPairings) {
  // The headline acceptance bar: run the searcher over every recorded
  // pairing and require at least 8 of the 14 to be discovered, verified
  // end to end, *and* land on the recorded constraint set. A single
  // round at the base width keeps the unreachable pairings cheap — every
  // discoverable pairing is found without widening.
  SearchLimits Limits;
  Limits.Widenings = 0;

  unsigned Matching = 0;
  ASSERT_EQ(analysis::corpus().size(), 14u);

  for (const analysis::AnalysisCase &C : analysis::corpus()) {
    DiscoveryResult R =
        discoverAndVerify(C.OperatorId, C.InstructionId, Limits);
    if (!R.Outcome.Found || !R.Verified)
      continue;
    analysis::AnalysisResult Replay = analysis::runAnalysis(C);
    ASSERT_TRUE(Replay.Succeeded) << C.Id;
    if (constraintLines(R.Replay.Constraints) ==
        constraintLines(Replay.Constraints))
      ++Matching;
  }
  EXPECT_GE(Matching, 8u);
}

TEST(SearcherTest, LengthLambdaPrefersShortScripts) {
  // Cost-guided beam score regression: with the default length weight,
  // the movc3/pc2.copy discovery must converge and ride a script no
  // longer than the recorded derivation (3 steps total); with the weight
  // off, the search must still converge on distance alone.
  const analysis::AnalysisCase *Recorded =
      analysis::findCase("vax.movc3/pc2.copy");
  ASSERT_NE(Recorded, nullptr);
  size_t RecordedLen =
      Recorded->OperatorScript.size() + Recorded->InstructionScript.size();

  SearchLimits Weighted;
  DiscoveryResult R =
      discoverAndVerify(Recorded->OperatorId, Recorded->InstructionId,
                        Weighted);
  ASSERT_TRUE(R.Outcome.Found) << R.Outcome.FailureReason;
  EXPECT_TRUE(R.Verified);
  EXPECT_LE(R.Outcome.OperatorScript.size() +
                R.Outcome.InstructionScript.size(),
            RecordedLen);

  SearchLimits Unweighted;
  Unweighted.LengthLambda = 0;
  DiscoveryResult R0 =
      discoverAndVerify(Recorded->OperatorId, Recorded->InstructionId,
                        Unweighted);
  ASSERT_TRUE(R0.Outcome.Found) << R0.Outcome.FailureReason;
  EXPECT_TRUE(R0.Verified);
}

TEST(SearcherTest, TrivialSelfPairSucceedsImmediately) {
  auto D = descriptions::load("pc2.clear");
  SearchOutcome Out = searchDerivation(*D, *D, SearchLimits());
  ASSERT_TRUE(Out.Found);
  EXPECT_TRUE(Out.OperatorScript.empty());
  EXPECT_TRUE(Out.InstructionScript.empty());
}

TEST(SearcherTest, ReportsFailureWithinBudget) {
  // A hopeless pairing must fail gracefully, with stats, not hang: the
  // node budget is the backstop.
  SearchLimits Limits;
  Limits.MaxNodes = 40;
  Limits.TimeBudgetMs = 10000;
  DiscoveryResult R =
      discoverAndVerify("pascal.sequal", "i8086.movsb", Limits);
  EXPECT_FALSE(R.Outcome.Found);
  EXPECT_FALSE(R.Outcome.FailureReason.empty());
  EXPECT_LE(R.Outcome.Stats.NodesExpanded, 40u);
}

TEST(SearcherTest, TinyDeadlineReturnsPromptly) {
  // Deadline-granularity regression: with a milliseconds-scale budget on
  // a pairing whose expansions take seconds in aggregate, the search must
  // stop *inside* expansion — between candidate attempts, within the
  // pin-and-simplify macro moves, and per differential trial — not after
  // finishing whatever multi-second work a coarse per-depth check would
  // allow. The generous bound still fails the coarse behavior, which
  // overshoots by tens of seconds.
  SearchLimits Limits;
  Limits.TimeBudgetMs = 5;
  auto Start = std::chrono::steady_clock::now();
  DiscoveryResult R = discoverAndVerify("clu.search", "i8086.scasb", Limits);
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
  EXPECT_FALSE(R.Outcome.Found);
  EXPECT_TRUE(R.Outcome.Stats.TimedOut);
  EXPECT_TRUE(R.Outcome.Stats.BudgetExhausted);
  EXPECT_LT(Ms, 3000.0);
}

TEST(SearcherTest, FailedSearchCarriesPartialLine) {
  // Anytime result: a budget-bound failure still reports the closest
  // state the beam reached, with a consistent script prefix and a live
  // divergence report.
  SearchLimits Limits;
  Limits.MaxNodes = 60;
  Limits.Widenings = 0;
  DiscoveryResult R =
      discoverAndVerify("pascal.sequal", "i8086.cmpsb", Limits);
  ASSERT_FALSE(R.Outcome.Found);
  ASSERT_TRUE(R.Outcome.Partial.Valid);
  const PartialLine &P = R.Outcome.Partial;
  EXPECT_GT(P.Distance, 0u);
  // One beam level can append several steps (pin-and-simplify macro
  // moves), so the prefix is at least as long as the depth, never shorter.
  EXPECT_GE(P.OperatorScript.size() + P.InstructionScript.size(), P.Depth);
  EXPECT_NE(P.FpOp, P.FpInst); // Distance > 0 means unequal shapes.
  EXPECT_TRUE(P.Divergence.Valid);
}

TEST(SearcherTest, UnrepresentableTimeBudgetMeansNoClock) {
  // A budget the steady clock cannot represent saturates to "no
  // wall-clock limit". Unsaturated, UINT64_MAX ms wrapped the deadline
  // into the past and the search timed out before its first expansion.
  EXPECT_EQ(deadlineAfter(UINT64_MAX),
            std::chrono::steady_clock::time_point::max());
  EXPECT_GT(deadlineAfter(1000), std::chrono::steady_clock::now());

  SearchLimits Limits;
  Limits.TimeBudgetMs = UINT64_MAX;
  Limits.MaxNodes = 3;
  auto Op = descriptions::load("pc2.copy");
  auto Inst = descriptions::load("vax.movc3");
  SearchOutcome O = searchDerivation(*Op, *Inst, Limits);
  EXPECT_FALSE(O.Found);
  EXPECT_EQ(O.Stats.NodesExpanded, 3u);
  EXPECT_TRUE(O.Stats.BudgetExhausted);
  EXPECT_FALSE(O.Stats.TimedOut) << O.FailureReason;
}

/// Rule applications (applied, refused or faulted) that \p M counted.
uint64_t ruleAttempts(const obs::Metrics &M) {
  uint64_t N = 0;
  for (const auto &[Name, V] : M.counters())
    if (Name.rfind("rule.apply.", 0) == 0 || Name.rfind("rule.refuse.", 0) == 0)
      N += V;
  return N;
}

TEST(SearcherTest, FaultedAttemptIsRetriedWhenItsVersionRepeats) {
  // A side version's expansion record answers a candidate it already
  // tried, but a rule that faulted said nothing about the version, so
  // that outcome must not be kept. Inject one fault, into the root
  // operator's first candidate that refuses when it runs clean: the
  // search must then run exactly as without the fault, except that the
  // first repeat of the root operator re-attempts that candidate instead
  // of reading it from the record.
  auto Op = descriptions::load("pc2.copy");
  auto Inst = descriptions::load("vax.movc3");
  ASSERT_TRUE(Op && Inst);
  // The root operator's candidates are the search's first rule attempts,
  // one `rule-apply` check each, in prior order.
  uint64_t Target = 0;
  {
    std::vector<transform::Step> Cands =
        enumerateCandidates(*Op, *Inst, /*CurrentIsInstruction=*/false);
    std::vector<std::string_view> Rules;
    for (const transform::Step &S : Cands)
      Rules.push_back(S.Rule);
    std::vector<uint32_t> Order =
        analysis::Priors::instance().successorOrder("", Rules);
    transform::Engine E(Op->clone());
    while (Target < Order.size() && E.apply(Cands[Order[Target]]).Applied) {
      E.undo();
      ++Target;
    }
    ASSERT_LT(Target, Order.size());
  }
  SearchLimits Limits;
  Limits.VerifyTrials = 0;
  obs::Metrics Clean;
  Limits.Metrics = &Clean;
  SearchOutcome Base = searchDerivation(*Op, *Inst, Limits);
  ASSERT_TRUE(Base.Found);
  uint64_t Attempts = ruleAttempts(Clean);

  // A seed whose `rule-apply` decision stream, in this scope, fires on
  // check Target and on no other of the first 4 * Attempts.
  struct Reset {
    ~Reset() { FaultInjector::instance().reset(); }
  } Guard;
  FaultInjector &FI = FaultInjector::instance();
  ASSERT_TRUE(
      FI.configure("rule-apply=" + std::to_string(1.0 / (4.0 * Attempts))));
  const char *Scope = "expansion-record-fault";
  auto FiresOnlyAtTarget = [&](uint64_t Seed) {
    FI.setSeed(Seed);
    FaultScope Probe(Scope);
    for (uint64_t N = 0; N < 4 * Attempts; ++N)
      if (FI.shouldFail("rule-apply") != (N == Target))
        return false;
    return true;
  };
  uint64_t Seed = 0;
  while (Seed < 10000000 && !FiresOnlyAtTarget(Seed))
    ++Seed;
  ASSERT_LT(Seed, 10000000u);
  FI.setSeed(Seed);
  uint64_t FiredBefore = FI.injectedTotal();

  obs::Metrics Faulty;
  Limits.Metrics = &Faulty;
  SearchOutcome O;
  {
    FaultScope Run(Scope);
    O = searchDerivation(*Op, *Inst, Limits);
  }
  EXPECT_EQ(FI.injectedTotal() - FiredBefore, 1u);
  ASSERT_TRUE(O.Found);
  EXPECT_EQ(O.OperatorScript.size(), Base.OperatorScript.size());
  EXPECT_EQ(O.InstructionScript.size(), Base.InstructionScript.size());
  EXPECT_EQ(O.Stats.NodesExpanded, Base.Stats.NodesExpanded);
  EXPECT_EQ(O.Stats.NodesGenerated, Base.Stats.NodesGenerated);
  EXPECT_EQ(O.Stats.CandidatesTried, Base.Stats.CandidatesTried);
  EXPECT_EQ(O.Stats.DeadEnds, Base.Stats.DeadEnds);
  EXPECT_EQ(O.Stats.OutcomeHits + 1, Base.Stats.OutcomeHits);
  EXPECT_EQ(ruleAttempts(Faulty), Attempts + 1);
}

TEST(SearcherTest, UnknownDescriptionIdIsTypedFault) {
  DiscoveryResult R = discoverAndVerify("no.such.operator", "i8086.movsb");
  EXPECT_FALSE(R.Outcome.Found);
  EXPECT_FALSE(R.Verified);
  ASSERT_TRUE(R.Outcome.SearchFault.isFault());
  EXPECT_EQ(R.Outcome.SearchFault.Category, FaultCategory::Internal);
  EXPECT_FALSE(R.Outcome.FailureReason.empty());
}

//===----------------------------------------------------------------------===//
// Candidate pool
//===----------------------------------------------------------------------===//

/// True when the entry routine contains an output statement at any depth.
bool hasOutputStmt(const isdl::Description &D) {
  const isdl::Routine *Entry = D.entryRoutine();
  bool Found = false;
  if (Entry)
    isdl::forEachStmt(Entry->Body, [&](const isdl::Stmt &S) {
      Found = Found || isdl::isa<isdl::OutputStmt>(&S);
    });
  return Found;
}

std::vector<std::string> stepTexts(const std::vector<transform::Step> &Pool) {
  std::vector<std::string> Out;
  for (const transform::Step &S : Pool)
    Out.push_back(S.str());
  return Out;
}

TEST(CandidatePoolTest, IndexToPointerProposedForBaseIndexAccess) {
  // rigel.index reads Mb[base + index], where locc walks a pointer: the
  // operator side's pool must hold an index-to-pointer strength
  // reduction that applies.
  auto Current = descriptions::load("rigel.index");
  auto Target = descriptions::load("vax.locc");
  bool Proposed = false, Applies = false;
  for (const transform::Step &S :
       enumerateCandidates(*Current, *Target,
                           /*CurrentIsInstruction=*/false)) {
    if (S.Rule != "index-to-pointer")
      continue;
    Proposed = true;
    transform::Engine E(Current->clone());
    Applies = Applies || E.apply(S).Applied;
  }
  EXPECT_TRUE(Proposed);
  EXPECT_TRUE(Applies);
}

TEST(CandidatePoolTest, DependsOnOtherSideOnlyThroughOutput) {
  // The searcher caches each side's pool under (identity, side, whether
  // the other side has an output statement). That key is sound only if
  // the pool reads nothing else of the other side: over the whole
  // library, any two other sides that agree on having an output must
  // yield the same steps in the same order.
  std::vector<std::string> Ids;
  std::vector<std::unique_ptr<isdl::Description>> Lib;
  bool SeenOutput[2] = {false, false};
  for (const descriptions::Entry &E : descriptions::allEntries()) {
    Ids.push_back(E.Id);
    Lib.push_back(descriptions::load(E.Id));
    ASSERT_TRUE(Lib.back()) << E.Id;
    SeenOutput[hasOutputStmt(*Lib.back())] = true;
  }
  ASSERT_TRUE(SeenOutput[0] && SeenOutput[1])
      << "the library must exercise both halves of the key";

  for (size_t D = 0; D < Lib.size(); ++D)
    for (bool IsInstruction : {false, true}) {
      std::optional<std::vector<std::string>> First[2];
      size_t FirstOther[2] = {0, 0};
      for (size_t O = 0; O < Lib.size(); ++O) {
        bool HasOutput = hasOutputStmt(*Lib[O]);
        std::vector<std::string> Pool =
            stepTexts(enumerateCandidates(*Lib[D], *Lib[O], IsInstruction));
        if (!First[HasOutput]) {
          First[HasOutput] = std::move(Pool);
          FirstOther[HasOutput] = O;
          continue;
        }
        EXPECT_EQ(Pool, *First[HasOutput])
            << Ids[D] << (IsInstruction ? " (instruction side)"
                                        : " (operator side)")
            << ": pool against " << Ids[O] << " differs from the pool against "
            << Ids[FirstOther[HasOutput]];
      }
    }
}

//===----------------------------------------------------------------------===//
// Batch driver
//===----------------------------------------------------------------------===//

std::vector<BatchCase> discoverableCases() {
  std::vector<BatchCase> Cases;
  for (const char *Id :
       {"vax.movc3/pc2.copy", "i8086.stosb/pc2.clear", "vax.movc5/pc2.clear"}) {
    const analysis::AnalysisCase *C = analysis::findCase(Id);
    EXPECT_NE(C, nullptr) << Id;
    BatchCase B;
    B.Id = C->Id;
    B.OperatorId = C->OperatorId;
    B.InstructionId = C->InstructionId;
    Cases.push_back(std::move(B));
  }
  return Cases;
}

TEST(BatchDriverTest, ParallelResultsMatchSequential) {
  std::vector<BatchCase> Cases = discoverableCases();

  BatchOptions Seq;
  Seq.Threads = 1;
  BatchStats SeqStats;
  std::vector<BatchResult> A = runBatch(Cases, Seq, &SeqStats);

  BatchOptions Par;
  Par.Threads = 2;
  BatchStats ParStats;
  std::vector<BatchResult> B = runBatch(Cases, Par, &ParStats);

  EXPECT_EQ(SeqStats.ThreadsUsed, 1u);
  EXPECT_GE(ParStats.ThreadsUsed, 2u);
  EXPECT_EQ(SeqStats.Discovered, Cases.size());
  EXPECT_EQ(ParStats.Discovered, Cases.size());
  EXPECT_EQ(SeqStats.Verified, Cases.size());
  EXPECT_EQ(ParStats.Verified, Cases.size());

  // Searches share no mutable state, so the discovered scripts and
  // constraints are identical whatever the thread count.
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    const SearchOutcome &X = A[I].Discovery.Outcome;
    const SearchOutcome &Y = B[I].Discovery.Outcome;
    ASSERT_EQ(X.Found, Y.Found) << Cases[I].Id;
    EXPECT_EQ(X.OperatorScript.size(), Y.OperatorScript.size());
    ASSERT_EQ(X.InstructionScript.size(), Y.InstructionScript.size());
    for (size_t S = 0; S < X.InstructionScript.size(); ++S)
      EXPECT_EQ(X.InstructionScript[S].str(), Y.InstructionScript[S].str())
          << Cases[I].Id;
    EXPECT_EQ(constraintLines(A[I].Discovery.Replay.Constraints),
              constraintLines(B[I].Discovery.Replay.Constraints))
        << Cases[I].Id;
  }
}

TEST(BatchDriverTest, LibraryCasesCoverRecordedPairings) {
  std::vector<BatchCase> Cases = libraryCases();
  EXPECT_EQ(Cases.size(), analysis::corpus().size());
  for (const BatchCase &C : Cases) {
    EXPECT_FALSE(C.OperatorId.empty());
    EXPECT_FALSE(C.InstructionId.empty());
    EXPECT_TRUE(descriptions::load(C.OperatorId)) << C.OperatorId;
    EXPECT_TRUE(descriptions::load(C.InstructionId)) << C.InstructionId;
  }
}

} // namespace
