//===- Postmortem.cpp - Why did the beam lose the recorded line? -*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "search/Postmortem.h"

#include "analysis/Priors.h"
#include "descriptions/Descriptions.h"
#include "isdl/Intern.h"
#include "search/Searcher.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

using namespace extra;
using namespace extra::search;
using namespace extra::isdl;
using obs::TraceRecord;
using transform::Script;
using transform::Step;

namespace {

/// The recorded line replayed prefix by prefix: a cloned description and
/// canonical fingerprint per script prefix (index 0 = the unmodified
/// description).
struct LineReplay {
  bool Ok = false;
  std::string Error;
  std::vector<Description> Descs;
  std::vector<uint64_t> Fps;
};

LineReplay replayLine(const Description &Start, const Script &S,
                      const char *SideName) {
  LineReplay R;
  transform::Engine E(Start.clone());
  R.Descs.push_back(E.current().clone());
  R.Fps.push_back(canonicalFingerprint(E.current()));
  for (size_t I = 0; I < S.size(); ++I) {
    transform::ApplyResult A = E.apply(S[I]);
    if (!A.Applied) {
      R.Error = std::string("recorded ") + SideName + " step " +
                std::to_string(I + 1) + " (" + S[I].Rule +
                ") failed to replay: " + A.Reason;
      return R;
    }
    R.Descs.push_back(E.current().clone());
    R.Fps.push_back(canonicalFingerprint(E.current()));
  }
  R.Ok = true;
  return R;
}

/// First prefix index with the given fingerprint, or nullopt. Linear —
/// recorded scripts are at most a couple dozen steps.
std::optional<size_t> prefixOf(const std::vector<uint64_t> &Fps, uint64_t Fp) {
  for (size_t I = 0; I < Fps.size(); ++I)
    if (Fps[I] == Fp)
      return I;
  return std::nullopt;
}

bool sameStep(const Step &A, const Step &B) {
  return A.Rule == B.Rule && A.Routine == B.Routine && A.Args == B.Args;
}

} // namespace

PostmortemReport search::postmortem(const std::vector<TraceRecord> &Trace,
                                    const analysis::AnalysisCase &Recorded,
                                    const PostmortemOptions &Opts) {
  PostmortemReport Rep;

  // ----- Select the search span. ---------------------------------------
  std::map<uint64_t, uint64_t> ParentOf; // span id -> parent id
  std::vector<const TraceRecord *> Searches;
  for (const TraceRecord &R : Trace)
    if (R.K == TraceRecord::Kind::Span) {
      ParentOf[R.Id] = R.Parent;
      if (R.Name == "search")
        Searches.push_back(&R);
    }
  const TraceRecord *Search = nullptr;
  if (Opts.CaseFilter.empty()) {
    if (Searches.size() != 1) {
      Rep.Error = Searches.empty()
                      ? "trace contains no search span"
                      : "trace contains " + std::to_string(Searches.size()) +
                            " search spans; use a case filter";
      return Rep;
    }
    Search = Searches.front();
  } else {
    for (const TraceRecord *S : Searches)
      if (S->field("case") == Opts.CaseFilter)
        Search = S;
    if (!Search)
      for (const TraceRecord *S : Searches)
        if (S->field("case").find(Opts.CaseFilter) != std::string::npos)
          Search = S;
    if (!Search) {
      Rep.Error = "no search span matches case filter '" + Opts.CaseFilter +
                  "' (" + std::to_string(Searches.size()) + " searches traced)";
      return Rep;
    }
  }
  Rep.Case = Search->field("case");

  auto UnderSearch = [&](uint64_t SpanId) {
    for (uint64_t Id = SpanId; Id != 0;) {
      if (Id == Search->Id)
        return true;
      auto It = ParentOf.find(Id);
      if (It == ParentOf.end())
        return false;
      Id = It->second;
    }
    return false;
  };

  // ----- Collect this search's rounds and events. ----------------------
  std::set<unsigned> Rounds;
  std::vector<const TraceRecord *> Events;
  for (const TraceRecord &R : Trace) {
    if (R.K == TraceRecord::Kind::Span) {
      if (R.Name == "round" && UnderSearch(R.Id))
        Rounds.insert(static_cast<unsigned>(R.fieldU64("round")));
      continue;
    }
    if (!UnderSearch(R.Span))
      continue;
    Events.push_back(&R);
    if (R.Name == "goal")
      Rep.GoalReached = true;
  }
  if (Rounds.empty()) {
    Rep.Error = "search span has no round spans (truncated trace?)";
    return Rep;
  }
  Rep.RoundsTraced = static_cast<unsigned>(Rounds.size());
  Rep.RoundAnalyzed = *Rounds.rbegin();

  // ----- Replay the recorded line. -------------------------------------
  auto Operator = descriptions::load(Recorded.OperatorId);
  auto Instruction = descriptions::load(Recorded.InstructionId);
  if (!Operator || !Instruction) {
    Rep.Error = "cannot load descriptions '" + Recorded.OperatorId + "' / '" +
                Recorded.InstructionId + "'";
    return Rep;
  }
  LineReplay Op = replayLine(*Operator, Recorded.OperatorScript, "operator");
  if (!Op.Ok) {
    Rep.Error = Op.Error;
    return Rep;
  }
  LineReplay Inst =
      replayLine(*Instruction, Recorded.InstructionScript, "instruction");
  if (!Inst.Ok) {
    Rep.Error = Inst.Error;
    return Rep;
  }

  // ----- Walk the widest round's frontier, depth by depth. -------------
  auto OnLine = [&](const TraceRecord &R)
      -> std::optional<std::pair<size_t, size_t>> {
    auto I = prefixOf(Op.Fps, R.fieldU64("fp_op"));
    auto J = prefixOf(Inst.Fps, R.fieldU64("fp_inst"));
    if (I && J)
      return std::make_pair(*I, *J);
    return std::nullopt;
  };

  std::map<unsigned, std::vector<const TraceRecord *>> FrontierByDepth;
  std::vector<const TraceRecord *> Prunes;
  for (const TraceRecord *E : Events) {
    unsigned Round = static_cast<unsigned>(E->fieldU64("round"));
    if (Round != Rep.RoundAnalyzed)
      continue;
    if (E->Name == "frontier")
      FrontierByDepth[static_cast<unsigned>(E->fieldU64("depth"))]
          .push_back(E);
    else if (E->Name == "prune") {
      Prunes.push_back(E);
      ++Rep.PruneBreakdown[E->field("reason")];
    }
  }
  if (FrontierByDepth.empty()) {
    Rep.Error = "round " + std::to_string(Rep.RoundAnalyzed) +
                " has no frontier events (truncated trace?)";
    return Rep;
  }

  std::pair<size_t, size_t> Last{0, 0}; // deepest on-line progress (i, j)
  bool HaveOnLine = false;
  unsigned LastOnLineDepth = 0;
  unsigned Diverge = 0;
  for (const auto &[Depth, States] : FrontierByDepth) {
    bool Any = false;
    for (const TraceRecord *R : States)
      if (auto IJ = OnLine(*R)) {
        Any = true;
        if (!HaveOnLine || IJ->first + IJ->second >= Last.first + Last.second)
          Last = *IJ;
        HaveOnLine = true;
      }
    if (!Any) {
      Diverge = Depth;
      break;
    }
    LastOnLineDepth = Depth;
  }
  Rep.Ok = true;
  if (Rep.GoalReached || Diverge == 0) {
    Rep.Diverged = false; // The line held to the deepest traced frontier.
    return Rep;
  }
  if (!HaveOnLine) {
    // Even depth 0 missed: the traced search ran a different pairing.
    Rep.Ok = false;
    Rep.Error = "no traced frontier state lies on the recorded line — does "
                "the trace belong to case '" +
                Recorded.Id + "'?";
    return Rep;
  }
  (void)LastOnLineDepth;
  Rep.Diverged = true;
  Rep.DivergenceDepth = Diverge;
  Rep.RecordedOpSteps = static_cast<unsigned>(Last.first);
  Rep.RecordedInstSteps = static_cast<unsigned>(Last.second);

  // ----- Which recorded step was needed, and what became of it? --------
  size_t I = Last.first, J = Last.second;
  bool HasOpNext = I < Recorded.OperatorScript.size();
  bool HasInstNext = J < Recorded.InstructionScript.size();
  uint64_t OpChildOp = HasOpNext ? Op.Fps[I + 1] : 0;
  uint64_t InstChildInst = HasInstNext ? Inst.Fps[J + 1] : 0;

  const TraceRecord *Culprit = nullptr;
  bool NeededIsOp = false;
  for (const TraceRecord *P : Prunes) {
    uint64_t FpO = P->fieldU64("fp_op"), FpI = P->fieldU64("fp_inst");
    std::string Reason = P->field("reason");
    if (Reason == "verify-reject") {
      // verify-reject events carry the *parent* state plus the rule.
      if (FpO != Op.Fps[I] || FpI != Inst.Fps[J])
        continue;
      if (HasOpNext && P->field("rule") == Recorded.OperatorScript[I].Rule &&
          P->field("side") == "operator") {
        Culprit = P;
        NeededIsOp = true;
        break;
      }
      if (HasInstNext &&
          P->field("rule") == Recorded.InstructionScript[J].Rule &&
          P->field("side") == "instruction") {
        Culprit = P;
        NeededIsOp = false;
        break;
      }
      continue;
    }
    if (HasOpNext && FpO == OpChildOp && FpI == Inst.Fps[J]) {
      Culprit = P;
      NeededIsOp = true;
      break;
    }
    if (HasInstNext && FpO == Op.Fps[I] && FpI == InstChildInst) {
      Culprit = P;
      NeededIsOp = false;
      break;
    }
  }
  if (!Culprit)
    // Never generated: prefer the side that still has recorded work (the
    // instruction side when both do — the exotic moves live there).
    NeededIsOp = HasOpNext && !HasInstNext;

  const Step *Needed = nullptr;
  if (NeededIsOp && HasOpNext)
    Needed = &Recorded.OperatorScript[I];
  else if (!NeededIsOp && HasInstNext)
    Needed = &Recorded.InstructionScript[J];
  else if (HasOpNext)
    Needed = &Recorded.OperatorScript[I];
  if (!Needed) {
    // The full recorded state was in the beam yet no goal fired — worth
    // reporting as-is rather than failing.
    Rep.PruneReason = "recorded line complete in beam; no goal confirmed";
    return Rep;
  }
  Rep.NeededRule = Needed->str();
  Rep.NeededSide = NeededIsOp ? "operator" : "instruction";
  if (Culprit) {
    Rep.PruneReason = Culprit->field("reason");
    Rep.PrunedScore = Culprit->fieldDouble("score");
    Rep.CutoffScore = Culprit->fieldDouble("cutoff");
  } else {
    Rep.PruneReason = "never-generated";
  }

  // ----- Rank of the needed step in the candidate ordering. ------------
  const Description &Cur = NeededIsOp ? Op.Descs[I] : Inst.Descs[J];
  const Description &Oth = NeededIsOp ? Inst.Descs[J] : Op.Descs[I];
  const std::vector<Step> Cands =
      enumerateCandidates(Cur, Oth, /*CurrentIsInstruction=*/!NeededIsOp);
  const Script &PrefixScript =
      NeededIsOp ? Recorded.OperatorScript : Recorded.InstructionScript;
  size_t Prefix = NeededIsOp ? I : J;
  std::string_view Prev =
      Prefix == 0 ? std::string_view() : PrefixScript[Prefix - 1].Rule;
  std::vector<std::string_view> Rules;
  for (const Step &C : Cands)
    Rules.push_back(C.Rule);
  std::vector<uint32_t> Order =
      analysis::Priors::instance().successorOrder(Prev, Rules);
  Rep.CandidatePool = static_cast<int>(Cands.size());
  for (size_t K = 0; K < Order.size(); ++K) {
    const Step &C = Cands[Order[K]];
    if (Rep.NeededRank < 0 && sameStep(C, *Needed))
      Rep.NeededRank = static_cast<int>(K + 1);
    if (Rep.NeededRuleRank < 0 && C.Rule == Needed->Rule)
      Rep.NeededRuleRank = static_cast<int>(K + 1);
  }
  return Rep;
}

PartialSummary
search::summarizePartial(const std::vector<TraceRecord> &Trace) {
  PartialSummary Sum;

  // Span id -> parent and span id -> case label, for attributing each
  // partial event to its search.
  std::map<uint64_t, uint64_t> ParentOf;
  std::map<uint64_t, std::string> SearchCase;
  for (const TraceRecord &R : Trace)
    if (R.K == TraceRecord::Kind::Span) {
      ParentOf[R.Id] = R.Parent;
      if (R.Name == "search")
        SearchCase[R.Id] = R.field("case");
    }
  auto CaseOf = [&](uint64_t SpanId) -> std::string {
    for (uint64_t Id = SpanId; Id != 0;) {
      auto C = SearchCase.find(Id);
      if (C != SearchCase.end())
        return C->second;
      auto It = ParentOf.find(Id);
      if (It == ParentOf.end())
        return std::string();
      Id = It->second;
    }
    return std::string();
  };

  for (const TraceRecord &R : Trace) {
    if (R.K != TraceRecord::Kind::Event || R.Name != "search.partial")
      continue;
    PartialCaseSummary P;
    P.Case = CaseOf(R.Span);
    P.Distance = static_cast<unsigned>(R.fieldU64("distance"));
    P.Depth = static_cast<unsigned>(R.fieldU64("depth"));
    P.Round = static_cast<unsigned>(R.fieldU64("round"));
    P.FpOp = R.fieldU64("fp_op");
    P.FpInst = R.fieldU64("fp_inst");
    P.StepsOp = R.fieldU64("steps_op");
    P.StepsInst = R.fieldU64("steps_inst");
    P.RoutineA = R.field("routine_a");
    P.RoutineB = R.field("routine_b");
    P.Detail = R.field("detail");
    Sum.Cases.push_back(std::move(P));
  }
  std::stable_sort(Sum.Cases.begin(), Sum.Cases.end(),
                   [](const PartialCaseSummary &A,
                      const PartialCaseSummary &B) {
                     return A.Distance < B.Distance;
                   });
  return Sum;
}

std::string PartialSummary::str() const {
  if (Cases.empty())
    return "no partial results traced\n";
  std::string S = "partial results (" + std::to_string(Cases.size()) +
                  " failed searches, nearest miss first)\n";
  for (const PartialCaseSummary &P : Cases) {
    S += "  ";
    S += P.Case.empty() ? "<unlabeled>" : P.Case;
    S += ": distance " + std::to_string(P.Distance) + " at depth " +
         std::to_string(P.Depth) + " (round " + std::to_string(P.Round) +
         "), script prefix " + std::to_string(P.StepsOp) + "+" +
         std::to_string(P.StepsInst) + "\n";
    if (!P.RoutineA.empty() || !P.RoutineB.empty()) {
      S += "    diverges at " +
           (P.RoutineA.empty() ? std::string("?") : P.RoutineA) + " vs " +
           (P.RoutineB.empty() ? std::string("?") : P.RoutineB);
      if (!P.Detail.empty())
        S += ": " + P.Detail;
      S += "\n";
    }
  }
  return S;
}

std::string PostmortemReport::str() const {
  std::string S;
  if (!Ok)
    return "postmortem failed: " + Error + "\n";
  S += "postmortem";
  if (!Case.empty())
    S += " for " + Case;
  S += " (round " + std::to_string(RoundAnalyzed) + " of " +
       std::to_string(RoundsTraced) + " traced)\n";
  if (GoalReached) {
    S += "  search reached a goal; nothing to diagnose\n";
    return S;
  }
  if (!Diverged) {
    S += "  recorded line survived every traced depth — the search "
         "stopped on budget or beam exhaustion, not by losing the line\n";
    for (const auto &[Reason, Count] : PruneBreakdown)
      S += "  prunes[" + Reason + "] = " + std::to_string(Count) + "\n";
    return S;
  }
  S += "  recorded line fell out of the beam at depth " +
       std::to_string(DivergenceDepth) + "\n";
  S += "  last on-line state: " + std::to_string(RecordedOpSteps) +
       " operator + " + std::to_string(RecordedInstSteps) +
       " instruction recorded steps applied\n";
  if (!NeededRule.empty()) {
    S += "  needed next (" + NeededSide + " side): " + NeededRule + "\n";
    if (NeededRank > 0)
      S += "  proposed at rank " + std::to_string(NeededRank) + " of " +
           std::to_string(CandidatePool) + " candidates\n";
    else if (NeededRuleRank > 0)
      S += "  rule family first at rank " + std::to_string(NeededRuleRank) +
           " of " + std::to_string(CandidatePool) +
           " candidates, but never with the recorded arguments "
           "(argument-synthesis gap)\n";
    else
      S += "  not in the " + std::to_string(CandidatePool) +
           "-candidate pool at all (enumeration gap)\n";
  }
  S += "  fate of the on-line successor: " + PruneReason;
  if (PruneReason == "score-cutoff")
    S += " (score " + std::to_string(PrunedScore) + " vs cutoff " +
         std::to_string(CutoffScore) + ")";
  S += "\n";
  for (const auto &[Reason, Count] : PruneBreakdown)
    S += "  prunes[" + Reason + "] = " + std::to_string(Count) + "\n";
  return S;
}
