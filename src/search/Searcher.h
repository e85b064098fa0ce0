//===- Searcher.h - Autonomous derivation-script discovery ------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's headline future work (§7): "methods should be developed to
/// structure the analysis and to help the user in deciding how the
/// analysis should proceed." This module closes the loop: given only an
/// operator description, an instruction description, and budgets, it
/// searches the space of transform::Steps until the two sides reach
/// common form, emitting a verified derivation Script for each side plus
/// the uncovered constraints — no recorded script consulted.
///
/// The search is an iteratively *widening* beam search over two-sided
/// states (a step may apply to either the operator or the instruction
/// copy). Revisited states are pruned in O(1) through a *score-aware*
/// transposition table keyed by the rename-invariant canonical
/// fingerprint (isdl/Intern.h): detours that differ only in fresh-name
/// choices or step order collapse, but a state re-reached by a strictly
/// shorter script re-opens (fingerprint-equal states have equal
/// structural distance, so comparing total script length is comparing
/// score) — the cheapest line to each canonical state survives, not the
/// first one.
/// Search states hold copy-on-write isdl::DescHandles: a child shares its
/// untouched side with its parent, fingerprints, feature vectors and
/// identities are cached per description version, and the
/// per-candidate scratch engine clones only when a rule actually applies.
/// A side version's rule attempts are made once while it stays on the
/// frontier: a repeat of the version in another pair reads the outcomes
/// from its expansion record. Every applied candidate
/// passes the engine's applicability
/// checks and (optionally) a cheap per-node differential verification;
/// a discovered script is then re-verified end to end through
/// analysis::runAnalysis with full trial counts before being reported.
///
/// Hard wall-clock and node budgets bound every search: a search can
/// fail, but it can never hang.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_SEARCH_SEARCHER_H
#define EXTRA_SEARCH_SEARCHER_H

#include "analysis/Analysis.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Error.h"
#include "transform/Transform.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace extra {
namespace search {

/// Budgets and shape knobs for one search. Defaults are sized so the
/// short Table-2 derivations are found in well under a second.
struct SearchLimits {
  /// Maximum total steps across both sides of a candidate derivation.
  unsigned MaxDepth = 20;
  /// States kept per depth level in the first round.
  unsigned BeamWidth = 8;
  /// Extra rounds with doubled beam width when a round fails (iterative
  /// widening; 0 = single round). Three widenings take the default beam
  /// 8 -> 16 -> 32 -> 64; the widest Table-2 pairing (locc/clu.search)
  /// needs 64.
  unsigned Widenings = 3;
  /// Hard cap on expanded states across all rounds.
  uint64_t MaxNodes = 60000;
  /// Hard wall-clock budget across all rounds, in milliseconds.
  uint64_t TimeBudgetMs = 60000;
  /// Differential trials per applied candidate step (0 disables per-node
  /// verification; the end-to-end replay still verifies fully).
  unsigned VerifyTrials = 3;
  /// Weight of accumulated script length in the beam score
  /// (score = structural distance + LengthLambda * steps-so-far). Small
  /// and positive: shorter derivations win ties without letting length
  /// dominate the distance signal. 0 restores pure-distance ranking.
  double LengthLambda = 0.125;

  /// Structured tracing (optional, non-owning). With an enabled sink
  /// the search emits a span hierarchy (search > round > depth >
  /// expand), a "frontier" event per kept state and a "prune" event per
  /// losing state — reason score-cutoff, duplicate-fingerprint, or
  /// verify-reject — each carrying the state's canonical fingerprints
  /// and score breakdown. This is the input to search::postmortem.
  /// Null (the default) costs one branch per site.
  obs::TraceSink *Trace = nullptr;
  /// Metrics registry (optional, non-owning): per-rule apply counters,
  /// apply/verify/match latencies, beam occupancy, prune reasons, and
  /// synth accept/reject rates land here when set.
  obs::Metrics *Metrics = nullptr;
  /// Label stamped on the root "search" span (conventionally the
  /// pairing id); lets one trace file carry many searches.
  std::string TraceLabel;
};

/// Observability counters for one search (aggregated over widening
/// rounds).
struct SearchStats {
  uint64_t NodesExpanded = 0;   ///< States whose candidates were generated.
  uint64_t NodesGenerated = 0;  ///< Children that applied successfully.
  uint64_t CandidatesTried = 0; ///< Candidate steps attempted.
  uint64_t HashHits = 0;        ///< Transposition-table prunes.
  /// Per-node verifications answered by the deterministic verdict memo
  /// instead of fresh differential trials.
  uint64_t VerifyMemoHits = 0;
  /// Candidate attempts answered by a side version's expansion record
  /// instead of re-running the rule (the version was expanded before in
  /// another pair). Work done all the same, only not repeated.
  uint64_t OutcomeHits = 0;
  /// States re-reached by a strictly shorter script and re-opened instead
  /// of pruned (the score-aware transposition table keeps the cheapest
  /// line to each canonical state).
  uint64_t Reopened = 0;
  uint64_t DeadEnds = 0;        ///< Candidates refused or failing verify.
  uint64_t GoalChecks = 0;      ///< Full common-form confirmations run.
  unsigned Rounds = 0;          ///< Beam rounds used (1 = no widening).
  double WallMs = 0;            ///< Total wall time.
  bool BudgetExhausted = false; ///< A hard budget stopped the search.
  /// True when the stopping budget was the wall clock, as opposed to the
  /// node cap. Implies BudgetExhausted.
  bool TimedOut = false;

  /// Fraction of generated-or-pruned children answered by the table.
  double hashHitRate() const {
    uint64_t Denom = NodesGenerated + HashHits;
    return Denom ? static_cast<double>(HashHits) / Denom : 0.0;
  }
  /// Expansion throughput; 0 when no time elapsed.
  double nodesPerSec() const {
    return WallMs > 0 ? NodesExpanded * 1000.0 / WallMs : 0.0;
  }
};

/// The best line a failed search reached: an *anytime* result. Even when
/// no derivation is found, the closest-to-common-form state the beam
/// visited — its fingerprints, structural distance, the script prefix
/// that reached it, and a live divergence report computed against that
/// state — is preserved so a postmortem can say where the search got
/// stuck without needing a recorded script.
struct PartialLine {
  bool Valid = false;
  uint64_t FpOp = 0, FpInst = 0;
  unsigned Distance = 0;      ///< Structural distance at the best state.
  unsigned Depth = 0;         ///< Beam depth where it was generated.
  unsigned Round = 0;         ///< Widening round where it was generated.
  transform::Script OperatorScript;
  transform::Script InstructionScript;
  /// Rule attribution of the step burst that produced the best state:
  /// the driving rule and the side it applied to (0 = operator, 1 =
  /// instruction). Empty/0 for the root state. Recorded unconditionally,
  /// not only when tracing.
  std::string ViaRule;
  int ViaSide = 0;
  /// Where the best state still diverges (matchDescriptions re-run on
  /// the preserved state at failure time).
  isdl::DivergenceReport Divergence;
};

/// The discovered derivation (or the reason there is none).
struct SearchOutcome {
  bool Found = false;
  std::string FailureReason;
  transform::Script OperatorScript;
  transform::Script InstructionScript;
  /// Binding of the discovered common form.
  isdl::NameBinding Binding;
  /// Constraints recorded by the discovered steps plus register-size
  /// ranges derived from the binding.
  constraint::ConstraintSet Constraints;
  SearchStats Stats;
  /// Typed fault that aborted the search (Category == None when the
  /// search ran to completion, found or not). Faults thrown below the
  /// engine's own containment (e.g. in proposal synthesis) land here
  /// instead of escaping the call.
  Fault SearchFault;
  /// Best partial line when !Found (anytime result).
  PartialLine Partial;
};

/// Searches for a derivation proving \p Operator equivalent to
/// \p Instruction. Deterministic: identical inputs and limits produce
/// identical outcomes, regardless of where or how often it runs.
SearchOutcome searchDerivation(const isdl::Description &Operator,
                               const isdl::Description &Instruction,
                               const SearchLimits &Limits = {});

/// A search outcome re-verified end to end: the discovered scripts are
/// replayed through analysis::runAnalysis (full differential trials,
/// binding-constraint derivation, end-to-end operator check).
struct DiscoveryResult {
  SearchOutcome Outcome;
  /// Valid when Outcome.Found: the full replay of the discovered
  /// derivation.
  analysis::AnalysisResult Replay;
  /// True when the replay succeeded — the discovered scripts are proven.
  bool Verified = false;
};

/// Searches by description-library ids and verifies the result through
/// the analysis driver. The recorded derivation library is never
/// consulted.
DiscoveryResult discoverAndVerify(const std::string &OperatorId,
                                  const std::string &InstructionId,
                                  const SearchLimits &Limits = {},
                                  analysis::Mode M = analysis::Mode::Base);

/// The candidate pool of one side: argument-free rules, per-declaration
/// and routine-structuring steps, synthesized strength reductions
/// (src/synth), and target-aware proposals (operand pinning over every
/// input operand, input permutations, output replacement,
/// occurrence-parameterized rewrites, and per-routine variants).
/// \p Other is the description on the opposite side of the search, used
/// only to aim proposals: the pool depends on it only through whether it
/// has an `output` statement (the searcher's expansion records are keyed
/// on that).
/// \p CurrentIsInstruction gates operand pinning: fixing an operand is
/// an encoding condition on the *instruction* (the recorded sessions
/// never pin an operator operand — that would shrink the language
/// operation's domain instead of constraining the machine's, and it
/// opens degenerate routes that pin a loop count to zero on both sides
/// and match the empty husks).
std::vector<transform::Step>
enumerateCandidates(const isdl::Description &Current,
                    const isdl::Description &Other,
                    bool CurrentIsInstruction = true);

/// The steady-clock instant \p Ms milliseconds from now. A budget the
/// clock cannot represent saturates to time_point::max(): no wall-clock
/// limit, rather than a deadline wrapped into the past.
std::chrono::steady_clock::time_point deadlineAfter(uint64_t Ms);

} // namespace search
} // namespace extra

#endif // EXTRA_SEARCH_SEARCHER_H
