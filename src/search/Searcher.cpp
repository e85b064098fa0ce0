//===- Searcher.cpp - Autonomous derivation-script discovery ----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "search/Searcher.h"

#include "analysis/DiffCheck.h"
#include "analysis/Priors.h"
#include "descriptions/Descriptions.h"
#include "isdl/Equiv.h"
#include "isdl/Intern.h"
#include "isdl/Traverse.h"
#include "search/Canon.h"
#include "support/StringUtil.h"
#include "synth/Synth.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <unordered_map>
#include <unordered_set>

using namespace extra;
using namespace extra::search;
using namespace extra::isdl;
using transform::Script;
using transform::Step;

//===----------------------------------------------------------------------===//
// Candidate enumeration
//===----------------------------------------------------------------------===//

namespace {

/// Rules worth trying with no arguments. Generation order is part of the
/// search's behavior: candidates are stable-sorted by rule-bigram prior,
/// so ties keep this order.
const char *ZeroArgRules[] = {
    "fold-constants",   "if-false-elim", "if-true-elim",
    "if-not-elim",      "not-not",       "ne-to-not-eq",
    "eq-to-diff-zero",  "diff-zero-to-eq", "de-morgan-and",
    "if-to-flag-assign", "flag-assign-to-if", "dead-loop-elim",
    "empty-if-elim",    "merge-exits",   "split-exit-disjunction",
    "rotate-while-to-dowhile", "remove-assert", "hoist-from-if",
    "sink-common-tail", "rel-shift-const", "fold-const-chain",
};

/// Rules proposed once per declaration, naming it as `var`.
const char *PerDeclRules[] = {
    "dead-decl-elim", "dead-var-elim", "dead-assign-elim",
    "global-constant-propagate", "copy-propagate", "move-up",
    "move-down", "fuse-load-store",
};

/// Constant-folding and identity rules, proposed with no arguments after
/// the per-declaration and routine-structuring candidates.
const char *FoldRules[] = {
    "fold-not",  "fold-neg", "fold-add",  "fold-sub",
    "fold-mul",  "fold-div", "fold-and",  "fold-or",
    "fold-compare", "and-true", "or-true", "mul-zero",
    "neg-neg",   "add-zero", "sub-zero",  "sub-self",
    "mul-one",   "and-false", "or-false", "exit-when-false-elim",
};

/// Zero-arg rules that are worth retrying scoped to each non-entry
/// routine (the engine's default routine is the entry; flag pinning often
/// leaves foldable conditionals inside access routines, cf. the movsb
/// `fetch` cleanup).
const char *PerRoutineRules[] = {
    "if-false-elim", "if-true-elim", "if-not-elim", "fold-not",
    "not-not",       "empty-if-elim", "and-true",   "and-false",
    "or-false",      "or-true",       "exit-when-false-elim",
};

/// Simplification rules driven to a fixed point after pinning an operand
/// (the closure half of the pin-and-simplify macro move below). Every
/// rule here strictly shrinks the description or removes a `not`, so the
/// closure terminates.
constexpr std::string_view ClosureRules[] = {
    "fold-not",      "fold-neg",      "fold-add",
    "fold-sub",      "fold-mul",      "fold-div",
    "fold-and",      "fold-or",       "fold-compare",
    "not-not",       "and-true",      "and-false",
    "or-true",       "or-false",      "add-zero",
    "sub-zero",      "mul-one",       "mul-zero",
    "neg-neg",       "if-true-elim",  "if-false-elim",
    "if-not-elim",   "empty-if-elim", "exit-when-false-elim",
    "dead-loop-elim",
};

/// The entry routine's input statement, or null.
const InputStmt *entryInput(const Description &D) {
  const Routine *Entry = D.entryRoutine();
  if (!Entry)
    return nullptr;
  for (const StmtPtr &S : Entry->Body)
    if (const auto *In = dyn_cast<InputStmt>(S.get()))
      return In;
  return nullptr;
}

/// True when the entry routine contains an output statement at any depth.
bool hasOutput(const Description &D) {
  const Routine *Entry = D.entryRoutine();
  if (!Entry)
    return false;
  bool Found = false;
  forEachStmt(Entry->Body, [&](const Stmt &S) {
    if (isa<OutputStmt>(&S))
      Found = true;
  });
  return Found;
}

void permutations(size_t N, std::vector<std::string> &Out) {
  std::vector<size_t> Idx(N);
  for (size_t I = 0; I < N; ++I)
    Idx[I] = I;
  do {
    bool Identity = true;
    std::string Text;
    for (size_t I = 0; I < N; ++I) {
      Identity = Identity && Idx[I] == I;
      if (I)
        Text += ',';
      Text += std::to_string(Idx[I]);
    }
    if (!Identity)
      Out.push_back(Text);
  } while (std::next_permutation(Idx.begin(), Idx.end()));
}

} // namespace

std::vector<Step> search::enumerateCandidates(const Description &Current,
                                              const Description &Other,
                                              bool CurrentIsInstruction) {
  std::vector<Step> Out;
  for (const char *R : ZeroArgRules)
    Out.push_back(Step{R, "", {}});

  // Per-declaration candidates. Flags are pinned on the instruction side
  // only: every recorded operator script gets by without
  // fix-operand-value, and allowing it there lets the search pin a loop
  // count to zero on *both* sides and "discover" the matching empty
  // husks — verified, but with constraints no assembler could use.
  for (const Decl *Dl : Current.decls()) {
    const std::string &N = Dl->Name;
    for (const char *Rule : PerDeclRules)
      Out.push_back(Step{Rule, "", {{"var", N}}});
    if (Dl->Type.isFlag()) {
      if (CurrentIsInstruction)
        for (const char *Value : {"0", "1"})
          Out.push_back(Step{
              "fix-operand-value", "", {{"operand", N}, {"value", Value}}});
      Out.push_back(Step{"record-exit-cause", "", {{"flag", N}}});
      Out.push_back(Step{"invert-flag", "", {{"var", N}}});
    }
  }

  // Base+index access patterns suggest strength reduction; the pointer
  // names are synthesized from the access shape (src/synth), so two runs
  // — and the matching side — agree on the spelling.
  for (Step &S : synth::proposeIndexToPointer(Current))
    Out.push_back(std::move(S));

  // Up-counting loops suggest the down-counter rewrite, reusing the
  // bound as the counter.
  for (Step &S : synth::proposeCountUpToDown(Current))
    Out.push_back(std::move(S));

  // Routine-structuring candidates, each with its own fresh temp name.
  unsigned Fresh = 0;
  for (const Routine *R : Current.routines()) {
    for (const char *Rule : {"extract-call-to-temp", "inline-routine"})
      Out.push_back(Step{Rule,
                         "",
                         {{"callee", R->Name},
                          {"temp", "t" + std::to_string(Fresh++)}}});
    Out.push_back(Step{"dead-routine-elim", "", {{"name", R->Name}}});
  }

  for (const char *R : FoldRules)
    Out.push_back(Step{R, "", {}});

  // Re-scope cleanup rules to every non-entry routine.
  const Routine *Entry = Current.entryRoutine();
  for (const Routine *R : Current.routines()) {
    if (R == Entry)
      continue;
    for (const char *Rule : PerRoutineRules)
      Out.push_back(Step{Rule, R->Name, {}});
  }

  // Operand pinning over *every* input operand, not only flags:
  // movc5/stosb-style derivations pin counts and fill bytes too.
  if (CurrentIsInstruction)
    if (const InputStmt *In = entryInput(Current))
      for (const std::string &Operand : In->getTargets())
        for (const char *Value : {"0", "1"})
          Out.push_back(Step{"fix-operand-value",
                             "",
                             {{"operand", Operand}, {"value", Value}}});

  // Input permutations: operand binding is positional, so operand order
  // is part of the interface. Arity stays tiny (<= 4 in the library), so
  // the full permutation group is affordable.
  if (const InputStmt *In = entryInput(Current)) {
    size_t N = In->getTargets().size();
    if (N >= 2 && N <= 4) {
      std::vector<std::string> Orders;
      permutations(N, Orders);
      for (const std::string &Order : Orders)
        Out.push_back(Step{"permute-inputs", "", {{"order", Order}}});
    }
  }

  // Dropping raw machine-state outputs, aimed: only proposed when the
  // other side computes no result.
  if (hasOutput(Current) && !hasOutput(Other))
    Out.push_back(Step{"replace-output", "", {{"code", "none"}}});

  // Occurrence-parameterized rewrites.
  for (const char *Occ : {"0", "1", "2"}) {
    Out.push_back(Step{"swap-relational-operands", "", {{"occurrence", Occ}}});
    Out.push_back(Step{"reverse-conditional", "", {{"occurrence", Occ}}});
    for (const char *Op : {"+", "*"})
      Out.push_back(
          Step{"swap-commutative", "", {{"op", Op}, {"occurrence", Occ}}});
  }

  return Out;
}

//===----------------------------------------------------------------------===//
// Beam search over two-sided states
//===----------------------------------------------------------------------===//

namespace {

using Clock = std::chrono::steady_clock;

struct Node {
  /// Copy-on-write handles to the two sides: a child shares its untouched
  /// side with its parent (a refcount bump, not a clone), and the handle
  /// payload caches the side's canonical fingerprint and feature vector.
  DescHandle Op, Inst;
  uint64_t FpOp = 0, FpInst = 0;
  Script OpScript, InstScript;
  constraint::ConstraintSet Constraints;
  unsigned Distance = 0;
  /// Beam rank: Distance + LengthLambda * total script length. Among
  /// states equally close to common form, the one that spent fewer steps
  /// getting there survives truncation — and the first goal reached rides
  /// the shortest script.
  double Score = 0;
  /// Provenance for trace events (filled only when tracing is on): the
  /// driving rule of the step burst that produced this node and the side
  /// it applied to (0 = operator, 1 = instruction).
  std::string ViaRule;
  int ViaSide = 0;
};

/// One candidate's result on one side version. The scratch engine that
/// produced it started with no constraints, so Added is exactly what the
/// step (or the pin-and-simplify chain) recorded.
struct AppliedOutcome {
  DescHandle After;
  constraint::ConstraintSet Added;
  /// The candidate, then the macro variant's pin-and-simplify chain.
  Script Steps;
  /// The candidate's effect and adapter, for the deferred check.
  transform::SemanticsEffect Effect = transform::SemanticsEffect::Preserving;
  transform::InputAdapter Adapter;
};

/// The expansion record of one side version: its candidate pool and what
/// each candidate did to it. A side version reappears in many pairs (a
/// child shares its untouched side with its parent), and a rule attempt
/// and its inline verification read that side only, so a repeat is
/// answered here instead of re-running the rules. Sound for the reason
/// VerifyMemo is: rules are deterministic and refusal-pure, and the
/// scratch constraint set is a pure function of (before, step).
struct ExpansionRecord {
  enum : uint32_t { NotTried, Refused, VerifyRejected, FirstApplied };
  std::vector<Step> Cands;
  /// Per candidate and variant, at 2 * candidate + variant: NotTried,
  /// Refused, VerifyRejected, or FirstApplied + an index into Applied.
  std::vector<uint32_t> Outcome;
  std::vector<AppliedOutcome> Applied;
};

/// Shared mutable context of one searchDerivation call.
struct SearchContext {
  SearchContext(const SearchLimits &Limits, Clock::time_point Deadline)
      : Limits(Limits), Deadline(Deadline) {}

  const SearchLimits &Limits;
  SearchStats Stats;
  Clock::time_point Deadline;
  analysis::DiffOptions VerifyOpts;

  /// The closest-to-common-form state seen so far (anytime result).
  /// Handles share the node's versions, so recording an improvement is a
  /// refcount bump, never a clone.
  struct BestLine {
    bool Valid = false;
    DescHandle Op, Inst;
    uint64_t FpOp = 0, FpInst = 0;
    unsigned Distance = 0;
    unsigned Depth = 0, Round = 0;
    Script OpScript, InstScript;
    std::string ViaRule;
    int ViaSide = 0;
  } Best;

  /// Expansion records (recordKey) and synthesized proposals. Keyed by
  /// the *name-sensitive* structural identity (DescHandle::identity), not
  /// the rename-invariant fingerprint: enumerated steps carry concrete
  /// routine and operand names, and with score-aware re-opening two
  /// fingerprint-equal states can differ in fresh-name choices. A record
  /// lives while its side is on the frontier (evictRecords); proposals
  /// read both sides, are few, and stay for the whole search.
  std::unordered_map<uint64_t, ExpansionRecord> Records;
  std::unordered_map<uint64_t,
                     std::shared_ptr<const std::vector<synth::Proposal>>>
      SynthCache;

  /// Differential-verification memo for deferred single-step checks,
  /// keyed by (before identity, after identity, step text). Sound because
  /// the verifier is deterministic — fixed seed, and the constraint set a
  /// single-step scratch engine hands the verifier is a pure function of
  /// (before, step). Widening rounds re-reach and re-verify the same
  /// rewrites; this answers them without re-running the trials. Kept for
  /// the whole search, unlike the records: an entry is a few bytes, and
  /// verdicts outlive the frontier their parent was on.
  std::unordered_map<uint64_t, bool> VerifyMemo;

  /// The trace sink (the shared no-op sink when tracing is off, so call
  /// sites guard on enabled() only).
  obs::TraceSink &trace() const {
    return Limits.Trace ? *Limits.Trace : obs::TraceSink::noop();
  }
  /// The metrics registry, or null.
  obs::Metrics *met() const { return Limits.Metrics; }

  /// True once the wall-clock budget is spent or the external cancel
  /// flag is raised. This is the predicate the fine-grained checkpoints
  /// poll (candidate bursts, macro-move closures, differential trials) —
  /// a deadline can fire *inside* an expansion, not only between them.
  bool deadlinePassed() const {
    if (Limits.Cancel && Limits.Cancel->load(std::memory_order_relaxed))
      return true;
    return Clock::now() >= Deadline;
  }

  bool exhausted() {
    if (Stats.NodesExpanded >= Limits.MaxNodes) {
      Stats.BudgetExhausted = true;
      return true;
    }
    if (deadlinePassed()) {
      Stats.BudgetExhausted = true;
      Stats.TimedOut = true;
      return true;
    }
    return false;
  }

  /// Records \p N as the best line when it strictly improves on it.
  void noteBest(const Node &N, unsigned Depth, unsigned Round) {
    if (Best.Valid && N.Distance >= Best.Distance)
      return;
    Best.Valid = true;
    Best.Op = N.Op;
    Best.Inst = N.Inst;
    Best.FpOp = N.FpOp;
    Best.FpInst = N.FpInst;
    Best.Distance = N.Distance;
    Best.Depth = Depth;
    Best.Round = Round;
    Best.OpScript = N.OpScript;
    Best.InstScript = N.InstScript;
    Best.ViaRule = N.ViaRule;
    Best.ViaSide = N.ViaSide;
  }
};

/// Payload fragment shared by frontier/prune/goal events: the state's
/// canonical fingerprints and score breakdown.
obs::Payload statePayload(const Node &N, unsigned Depth, unsigned Round) {
  obs::Payload P;
  P.add("depth", Depth)
      .add("round", Round)
      .addHex("fp_op", N.FpOp)
      .addHex("fp_inst", N.FpInst)
      .add("score", N.Score)
      .add("distance", N.Distance)
      .add("steps_op", static_cast<uint64_t>(N.OpScript.size()))
      .add("steps_inst", static_cast<uint64_t>(N.InstScript.size()));
  if (!N.ViaRule.empty())
    P.add("rule", N.ViaRule)
        .add("side", N.ViaSide == 0 ? "operator" : "instruction");
  return P;
}

/// Applies cleanup rules to a fixed point, recording each applied step.
/// The closure list is re-ordered before every scan by the rule-bigram
/// priors mined from the recorded derivations (analysis::Priors): the
/// rule the 1982 user most often applied after the previous step is
/// tried first. Unseen successors keep the registration order, so the
/// scan stays deterministic and converges to the same fixed point.
/// Bounded as a backstop; in practice the closure converges in a handful
/// of steps.
void simplifyToFixpoint(transform::Engine &E, Script &Recorded,
                        const SearchContext *Ctx = nullptr) {
  const analysis::Priors &P = analysis::Priors::instance();
  const unsigned MaxSteps = 24;
  for (unsigned Count = 0; Count < MaxSteps;) {
    // Deadline checkpoint: a macro-move closure runs up to MaxSteps full
    // rule applications (each with differential verification), long
    // enough to blow well past a deadline that is only checked between
    // beam expansions.
    if (Ctx && Ctx->deadlinePassed())
      return;
    bool Progress = false;
    for (uint32_t I : P.successorOrder(
             Recorded.empty() ? std::string_view() : Recorded.back().Rule,
             ClosureRules)) {
      Step S{std::string(ClosureRules[I]), "", {}};
      if (E.apply(S).Applied) {
        Recorded.push_back(std::move(S));
        ++Count;
        Progress = true;
        break;
      }
    }
    if (Progress)
      continue;
    // Snapshot names up front: Engine::apply rebuilds the description,
    // so Routine pointers do not survive even a failed attempt.
    std::vector<std::string> Names;
    {
      const Routine *Entry = E.current().entryRoutine();
      for (const Routine *R : E.current().routines())
        if (R != Entry)
          Names.push_back(R->Name);
    }
    for (const std::string &Name : Names) {
      for (const char *Rule : PerRoutineRules) {
        Step S{Rule, Name, {}};
        if (E.apply(S).Applied) {
          Recorded.push_back(std::move(S));
          ++Count;
          Progress = true;
          break;
        }
      }
      if (Progress)
        break;
    }
    if (!Progress)
      return;
  }
}

/// The pin-and-simplify macro move: after `fix-operand-value` succeeds,
/// chain the pinned operand's natural aftermath — constant propagation,
/// fold/branch cleanup to a fixed point, and dead-code removal — into
/// the same search child. Recorded derivations show progress comes in
/// exactly these bursts, and the intermediate states score *worse* on
/// the structural distance than their parent (pinning rf in stosb goes
/// 45 -> 46 -> 47 -> 46 before if-false-elim pays off at 17), so a
/// one-step-per-ply beam discards the whole valley. Every chained step
/// still runs through the engine's verifier and is recorded in the
/// script, so replay and differential checking see ordinary steps.
void pinAndSimplify(transform::Engine &E, const Step &Fix, Script &Recorded,
                    const SearchContext *Ctx = nullptr) {
  auto It = Fix.Args.find("operand");
  if (It == Fix.Args.end())
    return;
  const std::string &Pinned = It->second;

  Step Gcp{"global-constant-propagate", "", {{"var", Pinned}}};
  if (E.apply(Gcp).Applied)
    Recorded.push_back(std::move(Gcp));
  simplifyToFixpoint(E, Recorded, Ctx);
  if (Ctx && Ctx->deadlinePassed())
    return;

  Step DeadAssign{"dead-assign-elim", "", {{"var", Pinned}}};
  if (E.apply(DeadAssign).Applied) {
    Recorded.push_back(std::move(DeadAssign));
    Step DeadDecl{"dead-decl-elim", "", {{"var", Pinned}}};
    if (E.apply(DeadDecl).Applied)
      Recorded.push_back(std::move(DeadDecl));
    simplifyToFixpoint(E, Recorded, Ctx);
  }
}

/// Readies \p Scratch, a per-attempt engine that shares its side's version
/// until a rule applies; the engine checks the rule's own applicability
/// conditions. With \p InlineVerify the verifier hook differentially tests
/// every applied step on random inputs as it lands. (The verifier closes
/// over the engine's own constraint set, so it is installed on the engine
/// in place, never moved.)
void initScratch(transform::Engine &Scratch, const SearchContext &Ctx,
                 bool InlineVerify) {
  // Metrics only: the searcher's own prune/frontier events carry the
  // outcomes worth tracing.
  Scratch.setMetrics(Ctx.met());
  if (InlineVerify && Ctx.Limits.VerifyTrials > 0)
    Scratch.setVerifier(
        analysis::makeStepVerifier(Scratch.constraints(), Ctx.VerifyOpts));
}

/// The expansion-record key of side \p Side (0 = operator) of \p N:
/// everything its candidate pool depends on — the side's text, which side
/// it is, and whether the other side still has an output.
uint64_t recordKey(const Node &N, int Side) {
  const DescHandle &Cur = Side == 0 ? N.Op : N.Inst;
  const DescHandle &Oth = Side == 0 ? N.Inst : N.Op;
  return pairKey(Cur.identity(),
                 (Side == 1 ? 2u : 0u) | (hasOutput(*Oth) ? 1u : 0u));
}

/// Drops every expansion record whose side is not a side of \p Frontier.
/// The next depth expands exactly these sides, so it loses no repeat, and
/// the table stays as small as the beam.
void evictRecords(SearchContext &Ctx, const std::vector<Node> &Frontier) {
  std::unordered_set<uint64_t> Live;
  for (const Node &N : Frontier) {
    Live.insert(recordKey(N, 0));
    Live.insert(recordKey(N, 1));
  }
  std::erase_if(Ctx.Records,
                [&](const auto &Entry) { return !Live.count(Entry.first); });
}

/// What candidate \p C's \p Variant does to side version \p Cur, as an
/// ExpansionRecord code: read from \p Rec when this version already tried
/// it, else computed on a scratch engine. Variant 1 is the
/// pin-and-simplify macro move; it verifies every step inline, while the
/// plain variant leaves its differential check to the caller. A computed
/// applied outcome is appended to Rec.Applied, but it answers later
/// repeats only when it is a pure function of (version, step): a fault
/// belongs to the attempt, and past the deadline the closure and the
/// inline trials stop early.
uint32_t resolveOutcome(ExpansionRecord &Rec, size_t C, int Variant,
                        const DescHandle &Cur, SearchContext &Ctx) {
  uint32_t &Known = Rec.Outcome[2 * C + Variant];
  if (Known != ExpansionRecord::NotTried) {
    ++Ctx.Stats.OutcomeHits;
    if (Ctx.met())
      Ctx.met()->counter("search.outcome.hit").add();
    return Known;
  }
  const Step &S = Rec.Cands[C];
  bool InlineVerify = Variant == 1;
  transform::Engine Scratch(Cur);
  initScratch(Scratch, Ctx, InlineVerify);
  transform::ApplyResult R = Scratch.apply(S);
  uint32_t Code;
  if (!R.Applied) {
    // A candidate that *applied* but failed the differential verifier is
    // a pruned state, not a mere refusal: the rewrite exists, it just is
    // not semantics-preserving here.
    Code = startsWith(R.Reason, "step verification failed")
               ? ExpansionRecord::VerifyRejected
               : ExpansionRecord::Refused;
  } else {
    Script Steps{S};
    if (Variant == 1)
      pinAndSimplify(Scratch, S, Steps, &Ctx);
    Code = ExpansionRecord::FirstApplied +
           static_cast<uint32_t>(Rec.Applied.size());
    Rec.Applied.push_back({Scratch.currentHandle(), Scratch.constraints(),
                           std::move(Steps), R.Effect, std::move(R.Adapter)});
  }
  if (!Scratch.faulted() && !(InlineVerify && Ctx.deadlinePassed()))
    Known = Code;
  return Code;
}

/// Confirms a fingerprint-equal state and assembles the success outcome.
/// \p Span parents the trace events ("goal" on success, the match layer's
/// "match-divergence" on a fingerprint collision).
bool confirmGoal(const Node &N, SearchContext &Ctx, SearchOutcome &Out,
                 unsigned Depth, unsigned Round, uint64_t Span) {
  ++Ctx.Stats.GoalChecks;
  obs::TraceSink &T = Ctx.trace();
  MatchResult Match = matchDescriptions(*N.Op, *N.Inst, Ctx.met(), &T, Span);
  if (!Match.Matched) {
    if (Ctx.met())
      Ctx.met()->counter("search.goal.fingerprint-collision").add();
    return false; // Fingerprint collision; keep searching.
  }
  if (T.enabled())
    T.event("goal", Span, statePayload(N, Depth, Round));
  Out.Found = true;
  Out.OperatorScript = N.OpScript;
  Out.InstructionScript = N.InstScript;
  Out.Binding = Match.Binding;
  Out.Constraints = N.Constraints;
  analysis::deriveBindingConstraints(*N.Op, *N.Inst, Match.Binding,
                                     Out.Constraints);
  return true;
}

/// One beam round at a fixed width. Returns true when a derivation was
/// found (Out filled in); false on exhaustion of the beam or budgets.
/// \p RoundIdx and \p SearchSpan place the round in the trace.
bool beamRound(const DescHandle &Operator, const DescHandle &Instruction,
               unsigned Width, SearchContext &Ctx, SearchOutcome &Out,
               unsigned RoundIdx, uint64_t SearchSpan) {
  obs::TraceSink &T = Ctx.trace();
  obs::Payload RoundP;
  if (T.enabled())
    RoundP.add("round", RoundIdx).add("width", Width);
  obs::ScopedSpan RoundSpan(T, "round", SearchSpan, std::move(RoundP));

  Node Root;
  Root.Op = Operator;
  Root.Inst = Instruction;
  Root.FpOp = Root.Op.fingerprint();
  Root.FpInst = Root.Inst.fingerprint();
  Root.Distance = DescHandle::distance(Root.Op, Root.Inst);
  Root.Score = Root.Distance;
  Ctx.noteBest(Root, 0, RoundIdx);
  if (T.enabled())
    RoundSpan.event("frontier", statePayload(Root, 0, RoundIdx));
  if (Root.FpOp == Root.FpInst &&
      confirmGoal(Root, Ctx, Out, 0, RoundIdx, RoundSpan.id()))
    return true;

  // Score-aware transposition table: the best (shortest) total script
  // length that has reached each canonical pair state. Fingerprint-equal
  // states have equal structural distance, so comparing total script
  // length is exactly comparing beam score — a state re-reached strictly
  // cheaper re-opens instead of being pruned as a duplicate, keeping the
  // cheapest line to every canonical state (the scasb postmortem showed
  // the first-reached representative's continuation being score-cut while
  // the cheaper line was discarded as a duplicate).
  std::unordered_map<uint64_t, unsigned> Seen;
  Seen.emplace(pairKey(Root.FpOp, Root.FpInst), 0u);

  std::vector<Node> Frontier;
  Frontier.push_back(std::move(Root));

  const analysis::Priors &Priors = analysis::Priors::instance();

  for (unsigned Depth = 1; Depth <= Ctx.Limits.MaxDepth; ++Depth) {
    obs::Payload DepthP;
    if (T.enabled())
      DepthP.add("depth", Depth)
          .add("round", RoundIdx)
          .add("frontier", static_cast<uint64_t>(Frontier.size()));
    obs::ScopedSpan DepthSpan(T, "depth", RoundSpan.id(), std::move(DepthP));

    std::vector<Node> Children;
    bool Goal = false;
    for (Node &N : Frontier) {
      if (Ctx.exhausted())
        return false;
      ++Ctx.Stats.NodesExpanded;

      obs::Payload ExpandP;
      if (T.enabled())
        ExpandP.addHex("fp_op", N.FpOp)
            .addHex("fp_inst", N.FpInst)
            .add("score", N.Score);
      obs::ScopedSpan ExpandSpan(T, "expand", DepthSpan.id(),
                                 std::move(ExpandP));

      for (int Side = 0; Side < 2 && !Goal; ++Side) {
        const DescHandle &Cur = Side == 0 ? N.Op : N.Inst;
        const DescHandle &Oth = Side == 0 ? N.Inst : N.Op;

        // Set by MakeChild when the deferred verifier rejected the child;
        // the caller must not retry the macro variant (it would fail the
        // same differential check).
        bool ChildVerifyRejected = false;

        auto NoteVerifyReject = [&](const std::string &Rule) {
          if (Ctx.met())
            Ctx.met()->counter("search.prune.verify-reject").add();
          if (T.enabled())
            T.event("prune", ExpandSpan.id(),
                    obs::Payload()
                        .add("reason", "verify-reject")
                        .add("depth", Depth)
                        .add("round", RoundIdx)
                        .addHex("fp_op", N.FpOp)
                        .addHex("fp_inst", N.FpInst)
                        .add("rule", Rule)
                        .add("side", Side == 0 ? "operator" : "instruction"));
        };

        // Turns an applied candidate sequence into a beam child; returns
        // true when the child is the goal (Out filled). With DeferVerify,
        // the single step A.Steps[0] is differentially checked here.
        auto MakeChild = [&](const AppliedOutcome &A,
                             bool DeferVerify) -> bool {
          // The fingerprint is cached on the version for every later
          // re-reach (and every repeat of the outcome).
          const DescHandle &NewH = A.After;
          uint64_t NewFp = NewH.fingerprint();
          uint64_t Key = Side == 0 ? pairKey(NewFp, N.FpInst)
                                   : pairKey(N.FpOp, NewFp);
          unsigned NewLen = static_cast<unsigned>(
              N.OpScript.size() + N.InstScript.size() + A.Steps.size());
          // Score-aware transposition check: fingerprint-equal states have
          // equal structural distance, so "strictly cheaper" reduces to a
          // strictly shorter total script. Equal-or-longer re-reaches are
          // pruned as before; strictly shorter ones re-open the state.
          auto SeenIt = Seen.find(Key);
          bool Known = SeenIt != Seen.end();
          if (Known && NewLen >= SeenIt->second) {
            ++Ctx.Stats.HashHits;
            if (Ctx.met())
              Ctx.met()->counter("search.prune.duplicate-fingerprint").add();
            if (T.enabled())
              T.event("prune", ExpandSpan.id(),
                      obs::Payload()
                          .add("reason", "duplicate-fingerprint")
                          .add("depth", Depth)
                          .add("round", RoundIdx)
                          .addHex("fp_op", Side == 0 ? NewFp : N.FpOp)
                          .addHex("fp_inst", Side == 0 ? N.FpInst : NewFp)
                          .add("rule", A.Steps.front().Rule)
                          .add("side",
                               Side == 0 ? "operator" : "instruction"));
            return false;
          }
          // Differential verification, deferred to after the transposition
          // lookup: a duplicate child never pays the trials (they decide
          // nothing — the child is discarded either way), and a rejected
          // child never touches the table, exactly as when the verifier
          // ran inside the engine. Only single-step candidates defer;
          // macro moves and synthesized proposals verified inline, step
          // by step.
          if (DeferVerify && Ctx.Limits.VerifyTrials > 0) {
            // The verifier is deterministic (fixed trial seed) and the
            // scratch engine's constraint set is a pure function of
            // (before, step), so the verdict for a (before, after, step)
            // triple never changes — memo it. Widening rounds re-derive
            // the same rewrites from re-expanded parents; the memo answers
            // those without re-running the trials. Keyed by identities
            // (name-sensitive, unlike the rename-invariant fingerprints).
            const Step &S = A.Steps.front();
            bool Verdict;
            uint64_t VKey = pairKey(pairKey(Cur.identity(), NewH.identity()),
                                    std::hash<std::string>{}(S.str()));
            auto MemoIt = Ctx.VerifyMemo.find(VKey);
            if (MemoIt != Ctx.VerifyMemo.end()) {
              Verdict = MemoIt->second;
              ++Ctx.Stats.VerifyMemoHits;
              if (Ctx.met())
                Ctx.met()->counter("search.verify.memo_hit").add();
            } else {
              transform::StepVerifier Verify =
                  analysis::makeStepVerifier(A.Added, Ctx.VerifyOpts);
              transform::StepObservation Obs{S, *Cur, *NewH, A.Effect,
                                             A.Adapter};
              std::string Error;
              Verdict = Verify(Obs, Error);
              Ctx.VerifyMemo.emplace(VKey, Verdict);
            }
            if (!Verdict) {
              ChildVerifyRejected = true;
              ++Ctx.Stats.DeadEnds;
              NoteVerifyReject(S.Rule);
              return false;
            }
          }
          if (!Known) {
            Seen.emplace(Key, NewLen);
          } else {
            SeenIt->second = NewLen;
            ++Ctx.Stats.Reopened;
            if (Ctx.met())
              Ctx.met()->counter("search.reopen.cheaper-line").add();
            if (T.enabled())
              T.event("reopen", ExpandSpan.id(),
                      obs::Payload()
                          .add("depth", Depth)
                          .add("round", RoundIdx)
                          .addHex("fp_op", Side == 0 ? NewFp : N.FpOp)
                          .addHex("fp_inst", Side == 0 ? N.FpInst : NewFp)
                          .add("steps", NewLen)
                          .add("rule", A.Steps.front().Rule)
                          .add("side",
                               Side == 0 ? "operator" : "instruction"));
          }
          ++Ctx.Stats.NodesGenerated;

          Node Child;
          // The untouched side is shared with the parent: a handle copy,
          // and its cached fingerprint and features ride along.
          if (Side == 0) {
            Child.Op = NewH;
            Child.Inst = N.Inst;
            Child.FpOp = NewFp;
            Child.FpInst = N.FpInst;
          } else {
            Child.Op = N.Op;
            Child.Inst = NewH;
            Child.FpOp = N.FpOp;
            Child.FpInst = NewFp;
          }
          Child.OpScript = N.OpScript;
          Child.InstScript = N.InstScript;
          {
            Script &Tail = Side == 0 ? Child.OpScript : Child.InstScript;
            Tail.insert(Tail.end(), A.Steps.begin(), A.Steps.end());
          }
          Child.Constraints = N.Constraints;
          for (const constraint::Constraint &C : A.Added.items())
            Child.Constraints.add(C);
          Child.Distance = DescHandle::distance(Child.Op, Child.Inst);
          Child.Score = Child.Distance +
                        Ctx.Limits.LengthLambda *
                            (Child.OpScript.size() + Child.InstScript.size());
          // Rule attribution before noteBest and unconditionally: the
          // best-line report carries it even with tracing off.
          Child.ViaRule = A.Steps.front().Rule;
          Child.ViaSide = Side;
          Ctx.noteBest(Child, Depth, RoundIdx);

          if (Child.FpOp == Child.FpInst &&
              confirmGoal(Child, Ctx, Out, Depth, RoundIdx, ExpandSpan.id()))
            return true;
          Children.push_back(std::move(Child));
          return false;
        };

        // Single-step candidates, from this side's expansion record: the
        // pool is enumerated once per record, and a candidate this version
        // already tried (in another pair) is answered from the record.
        auto [RecIt, NewRecord] = Ctx.Records.try_emplace(recordKey(N, Side));
        ExpansionRecord &Rec = RecIt->second;
        if (NewRecord) {
          Rec.Cands = enumerateCandidates(*Cur, *Oth,
                                          /*CurrentIsInstruction=*/Side == 1);
          Rec.Outcome.assign(2 * Rec.Cands.size(), ExpansionRecord::NotTried);
        }
        // Try in the order the recorded derivations make likeliest after
        // this side's previous rule.
        std::vector<uint32_t> Order;
        {
          const Script &Prior = Side == 0 ? N.OpScript : N.InstScript;
          std::vector<std::string_view> Rules;
          Rules.reserve(Rec.Cands.size());
          for (const Step &S : Rec.Cands)
            Rules.push_back(S.Rule);
          Order = Priors.successorOrder(
              Prior.empty() ? std::string_view() : Prior.back().Rule, Rules);
        }
        for (uint32_t C : Order) {
          const Step &S = Rec.Cands[C];
          ++Ctx.Stats.CandidatesTried;
          // In-expansion deadline checkpoint (every 8 candidates): a
          // single frontier node tries hundreds of candidates, each one
          // an engine apply plus differential trials — checking only
          // between expansions lets one node overshoot the budget by
          // orders of magnitude.
          if ((Ctx.Stats.CandidatesTried & 7) == 0 && Ctx.exhausted())
            return false;

          // fix-operand-value additionally spawns a pin-and-simplify
          // macro child (Variant 1); the plain child stays in the pool
          // so no single-step path is lost.
          int Variants = S.Rule == "fix-operand-value" ? 2 : 1;
          ChildVerifyRejected = false;
          for (int Variant = 0; Variant < Variants; ++Variant) {
            uint32_t Code = resolveOutcome(Rec, C, Variant, Cur, Ctx);
            if (Code < ExpansionRecord::FirstApplied) {
              ++Ctx.Stats.DeadEnds;
              if (Code == ExpansionRecord::VerifyRejected)
                NoteVerifyReject(S.Rule);
              break; // The macro variant would fail identically.
            }
            // The plain variant's differential check runs in MakeChild,
            // after the transposition lookup. Survival is
            // order-independent (a child enters the beam iff it verifies
            // and is not a duplicate), so deferring changes cost, not
            // outcomes.
            if (MakeChild(Rec.Applied[Code - ExpansionRecord::FirstApplied],
                          /*DeferVerify=*/Variant == 0)) {
              Goal = true;
              break;
            }
            if (ChildVerifyRejected)
              break; // The macro variant would fail the same check.
          }
          if (Goal)
            break;
        }
        if (Goal)
          break;

        // Synthesized multi-step proposals (src/synth): rule arguments
        // recovered from the divergence against the other side. Applied
        // atomically — a refused step discards the whole proposal — and
        // every applied step still passes the differential verifier, so
        // a synthesized candidate enters the beam only verified.
        // Synthesis reads both sides, so the cache key combines both
        // identities (again name-sensitive: proposals carry names).
        uint64_t SynthKey = pairKey(pairKey(Cur.identity(), Oth.identity()),
                                    Side == 1 ? 1 : 0);
        auto SynthIt = Ctx.SynthCache.find(SynthKey);
        if (SynthIt == Ctx.SynthCache.end())
          SynthIt =
              Ctx.SynthCache
                  .emplace(SynthKey,
                           std::make_shared<
                               const std::vector<synth::Proposal>>(
                               synth::synthesizeProposals(
                                   *Cur, *Oth,
                                   /*CurrentIsInstruction=*/Side == 1,
                                   Priors.vocabulary(), Ctx.met())))
                  .first;
        std::shared_ptr<const std::vector<synth::Proposal>> Props =
            SynthIt->second;
        for (const synth::Proposal &Prop : *Props) {
          if (Prop.Steps.empty())
            continue;
          ++Ctx.Stats.CandidatesTried;
          if ((Ctx.Stats.CandidatesTried & 7) == 0 && Ctx.exhausted())
            return false;
          transform::Engine Scratch(Cur);
          initScratch(Scratch, Ctx, /*InlineVerify=*/true);
          AppliedOutcome A;
          bool AllApplied = true;
          bool Augmenting = false;
          for (const Step &S : Prop.Steps) {
            if (!Scratch.apply(S).Applied) {
              AllApplied = false;
              break;
            }
            Augmenting = Augmenting || S.Rule == "add-prologue" ||
                         S.Rule == "replace-output";
            A.Steps.push_back(S);
          }
          if (Ctx.met())
            Ctx.met()->counter(AllApplied ? "synth.accept" : "synth.reject")
                .add();
          if (!AllApplied) {
            ++Ctx.Stats.DeadEnds;
            continue;
          }
          // Augments leave debris the recorded sessions cleaned inline
          // (stripping outputs can empty an if arm); close over the
          // cleanup rules so the child lands on the tidy form.
          if (Augmenting)
            simplifyToFixpoint(Scratch, A.Steps, &Ctx);
          A.After = Scratch.currentHandle();
          A.Added = Scratch.constraints();
          if (MakeChild(A, /*DeferVerify=*/false)) {
            Goal = true;
            break;
          }
        }
      }
      if (Goal)
        return true;
    }

    if (Children.empty())
      return false;
    // Keep the Width best-scoring states; stable sort preserves
    // generation order among ties, keeping the search deterministic.
    std::stable_sort(Children.begin(), Children.end(),
                     [](const Node &A, const Node &B) {
                       return A.Score < B.Score;
                     });
    size_t Kept = std::min<size_t>(Width, Children.size());
    if (Ctx.met()) {
      Ctx.met()->histogram("search.beam.children").record(Children.size());
      Ctx.met()->histogram("search.beam.occupancy").record(Kept);
      if (Children.size() > Kept)
        Ctx.met()
            ->counter("search.prune.score-cutoff")
            .add(Children.size() - Kept);
    }
    if (T.enabled()) {
      // The truncation is where the beam commits: a "frontier" event per
      // survivor, a "prune" (score-cutoff) per loser carrying the cutoff
      // — the worst surviving score — so a postmortem can say by how
      // much a state missed.
      double Cutoff = Children[Kept - 1].Score;
      for (size_t I = 0; I < Children.size(); ++I) {
        obs::Payload P = statePayload(Children[I], Depth, RoundIdx);
        if (I >= Kept)
          P.add("reason", "score-cutoff").add("cutoff", Cutoff);
        T.event(I < Kept ? "frontier" : "prune", DepthSpan.id(),
                std::move(P));
      }
    }
    if (Children.size() > Kept)
      Children.resize(Kept);
    Frontier = std::move(Children);
    evictRecords(Ctx, Frontier);
  }
  return false;
}

} // namespace

Clock::time_point search::deadlineAfter(uint64_t Ms) {
  Clock::time_point Now = Clock::now();
  auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  Clock::time_point::max() - Now)
                  .count();
  if (Ms >= static_cast<uint64_t>(Left))
    return Clock::time_point::max();
  return Now + std::chrono::milliseconds(Ms);
}

SearchOutcome search::searchDerivation(const Description &Operator,
                                       const Description &Instruction,
                                       const SearchLimits &Limits) {
  SearchOutcome Out;
  SearchContext Ctx(Limits, deadlineAfter(Limits.TimeBudgetMs));
  Ctx.VerifyOpts.Trials = Limits.VerifyTrials;
  Ctx.VerifyOpts.Metrics = Limits.Metrics;
  // Deadline enforcement inside differential verification: each per-node
  // verifier polls this once per trial, so a slow description cannot
  // ride a single verification far past the budget.
  Ctx.VerifyOpts.Stop = [&Ctx] { return Ctx.deadlinePassed(); };

  obs::TraceSink &T = Ctx.trace();
  obs::Payload SearchP;
  if (T.enabled()) {
    if (!Limits.TraceLabel.empty())
      SearchP.add("case", Limits.TraceLabel);
    SearchP.add("beam", Limits.BeamWidth)
        .add("max_depth", Limits.MaxDepth)
        .add("widenings", Limits.Widenings);
  }
  obs::ScopedSpan SearchSpan(T, "search", 0, std::move(SearchP));

  // One clone per side per search: every beam round shares the root
  // versions through these handles, and their fingerprints and feature
  // vectors are computed once here rather than once per round.
  DescHandle OperatorH(Operator.clone());
  DescHandle InstructionH(Instruction.clone());

  Clock::time_point Start = Clock::now();
  unsigned Width = std::max(1u, Limits.BeamWidth);
  unsigned LastWidth = Width;
  bool Found = false;
  for (unsigned Round = 0; Round <= Limits.Widenings; ++Round) {
    ++Ctx.Stats.Rounds;
    LastWidth = Width;
    // Fault containment: anything thrown below the engine's own
    // containment layer (proposal synthesis, a rule helper) becomes a
    // typed fault on the outcome — the search never rethrows, and the
    // best partial line survives the abort.
    try {
      Found = beamRound(OperatorH, InstructionH, Width, Ctx, Out, Round,
                        SearchSpan.id());
    } catch (const FaultError &FE) {
      Out.SearchFault = FE.fault();
      break;
    } catch (const std::exception &E) {
      Out.SearchFault = makeFault(FaultCategory::Internal, E.what());
      break;
    }
    if (Found || Ctx.Stats.BudgetExhausted)
      break;
    Width *= 2;
  }
  Ctx.Stats.WallMs =
      std::chrono::duration<double, std::milli>(Clock::now() - Start)
          .count();

  if (!Found) {
    Out.Found = false;
    if (Out.SearchFault.isFault())
      Out.FailureReason = "search faulted: " + Out.SearchFault.str();
    else if (Ctx.Stats.TimedOut)
      Out.FailureReason = "search time budget exhausted (" +
                          std::to_string(Ctx.Stats.NodesExpanded) +
                          " nodes expanded)";
    else if (Ctx.Stats.BudgetExhausted)
      Out.FailureReason = "search budget exhausted (" +
                          std::to_string(Ctx.Stats.NodesExpanded) +
                          " nodes expanded)";
    else
      Out.FailureReason = "search space exhausted within depth " +
                          std::to_string(Limits.MaxDepth) +
                          " at beam width " + std::to_string(LastWidth);

    // Anytime result: surface the best line the beam reached, with a
    // live divergence report computed against the preserved state.
    if (Ctx.Best.Valid) {
      Out.Partial.Valid = true;
      Out.Partial.FpOp = Ctx.Best.FpOp;
      Out.Partial.FpInst = Ctx.Best.FpInst;
      Out.Partial.Distance = Ctx.Best.Distance;
      Out.Partial.Depth = Ctx.Best.Depth;
      Out.Partial.Round = Ctx.Best.Round;
      Out.Partial.OperatorScript = Ctx.Best.OpScript;
      Out.Partial.InstructionScript = Ctx.Best.InstScript;
      Out.Partial.ViaRule = Ctx.Best.ViaRule;
      Out.Partial.ViaSide = Ctx.Best.ViaSide;
      MatchResult M = matchDescriptions(*Ctx.Best.Op, *Ctx.Best.Inst);
      Out.Partial.Divergence = M.Divergence;
      if (T.enabled()) {
        obs::Payload P;
        P.add("distance", Out.Partial.Distance)
            .add("depth", Out.Partial.Depth)
            .add("round", Out.Partial.Round)
            .addHex("fp_op", Out.Partial.FpOp)
            .addHex("fp_inst", Out.Partial.FpInst)
            .add("steps_op",
                 static_cast<uint64_t>(Out.Partial.OperatorScript.size()))
            .add("steps_inst",
                 static_cast<uint64_t>(
                     Out.Partial.InstructionScript.size()));
        if (!Out.Partial.ViaRule.empty())
          P.add("rule", Out.Partial.ViaRule)
              .add("side",
                   Out.Partial.ViaSide == 0 ? "operator" : "instruction");
        if (Out.Partial.Divergence.Valid)
          P.add("routine_a", Out.Partial.Divergence.RoutineA)
              .add("routine_b", Out.Partial.Divergence.RoutineB)
              .add("detail", Out.Partial.Divergence.Detail);
        SearchSpan.event("search.partial", std::move(P));
      }
    }
  }
  if (T.enabled())
    SearchSpan.event("search-result",
                     obs::Payload()
                         .add("found", Found)
                         .add("nodes", Ctx.Stats.NodesExpanded)
                         .add("rounds", Ctx.Stats.Rounds)
                         .add("wall_ms", Ctx.Stats.WallMs)
                         .add("reason", Out.FailureReason));
  if (Ctx.met()) {
    Ctx.met()->counter(Found ? "search.found" : "search.failed").add();
    Ctx.met()->counter("search.nodes_expanded").add(Ctx.Stats.NodesExpanded);
    Ctx.met()->counter("search.hash_hits").add(Ctx.Stats.HashHits);
    if (Ctx.Stats.Reopened)
      Ctx.met()->counter("search.reopened").add(Ctx.Stats.Reopened);
  }
  Out.Stats = Ctx.Stats;
  return Out;
}

DiscoveryResult search::discoverAndVerify(const std::string &OperatorId,
                                          const std::string &InstructionId,
                                          const SearchLimits &Limits,
                                          analysis::Mode M) {
  DiscoveryResult Result;
  // loadChecked is the fault-typed (and fault-injectable) entry: a parse
  // or validation failure comes back as a typed Fault on the outcome
  // instead of tripping the library asserts in load().
  auto Operator = descriptions::loadChecked(OperatorId);
  if (!Operator) {
    Result.Outcome.SearchFault = Operator.fault();
    Result.Outcome.FailureReason = "cannot load description '" + OperatorId +
                                   "': " + Operator.fault().str();
    return Result;
  }
  auto Instruction = descriptions::loadChecked(InstructionId);
  if (!Instruction) {
    Result.Outcome.SearchFault = Instruction.fault();
    Result.Outcome.FailureReason = "cannot load description '" +
                                   InstructionId +
                                   "': " + Instruction.fault().str();
    return Result;
  }

  Result.Outcome = searchDerivation(**Operator, **Instruction, Limits);
  if (!Result.Outcome.Found)
    return Result;

  // Re-verify the discovered derivation through the full analysis driver:
  // per-step differential checks at full trial counts, the common-form
  // match, binding-derived constraints, and the end-to-end check of the
  // original operator against the augmented instruction.
  analysis::AnalysisCase Case;
  Case.Id = InstructionId + "/" + OperatorId;
  Case.OperatorId = OperatorId;
  Case.InstructionId = InstructionId;
  Case.OperatorScript = Result.Outcome.OperatorScript;
  Case.InstructionScript = Result.Outcome.InstructionScript;
  {
    obs::TraceSink &T =
        Limits.Trace ? *Limits.Trace : obs::TraceSink::noop();
    obs::Payload P;
    if (T.enabled())
      P.add("case", Limits.TraceLabel.empty() ? Case.Id : Limits.TraceLabel)
          .add("steps_op",
               static_cast<uint64_t>(Case.OperatorScript.size()))
          .add("steps_inst",
               static_cast<uint64_t>(Case.InstructionScript.size()));
    obs::ScopedSpan Replay(T, "replay-verify", 0, std::move(P));
    // The replay runs at full trial counts and can dwarf the search
    // itself; thread the external cancel flag into its differential
    // options so a watchdog deadline reaches inside it too.
    analysis::DiffOptions ReplayOpts;
    if (Limits.Cancel)
      ReplayOpts.Stop = [C = Limits.Cancel] {
        return C->load(std::memory_order_relaxed);
      };
    Result.Replay = analysis::runAnalysis(Case, M, ReplayOpts);
    Result.Verified = Result.Replay.Succeeded;
    if (T.enabled())
      Replay.event("replay-result",
                   obs::Payload().add("verified", Result.Verified));
  }
  if (Limits.Metrics)
    Limits.Metrics
        ->counter(Result.Verified ? "discovery.verified"
                                  : "discovery.replay-failed")
        .add();
  return Result;
}
