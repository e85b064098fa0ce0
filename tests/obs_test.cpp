//===- obs_test.cpp - Tracing, metrics, and postmortem tests ----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// The observability layer's contract: JSONL traces round-trip through
// the reader with parentage and ordering intact, the disabled sink costs
// nothing and crashes nothing, the metrics registry survives concurrent
// writers, and search::postmortem pins the divergence depth and needed
// rule from a trace — synthetic first, then a real traced search.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "obs/Trace.h"
#include "obs/TraceFile.h"

#include "analysis/Derivations.h"
#include "descriptions/Descriptions.h"
#include "search/Canon.h"
#include "search/Postmortem.h"
#include "search/Searcher.h"
#include "transform/Transform.h"

#include <cstdlib>
#include <gtest/gtest.h>
#include <sstream>
#include <thread>

using namespace extra;

namespace {

//===----------------------------------------------------------------------===//
// Payload and escaping
//===----------------------------------------------------------------------===//

TEST(ObsPayload, RendersTypedValues) {
  obs::Payload P;
  P.add("s", "text").add("u", uint64_t(7)).add("i", int64_t(-3));
  P.add("d", 2.5).add("b", true).addHex("fp", uint64_t(0xdeadbeef));
  std::string R = P.rendered();
  EXPECT_NE(R.find("\"s\":\"text\""), std::string::npos);
  EXPECT_NE(R.find("\"u\":7"), std::string::npos);
  EXPECT_NE(R.find("\"i\":-3"), std::string::npos);
  EXPECT_NE(R.find("\"b\":true"), std::string::npos);
  EXPECT_NE(R.find("\"fp\":\"0x00000000deadbeef\""), std::string::npos);
  EXPECT_EQ(R[0], ',') << "payload fragment must lead with a comma";
}

TEST(ObsPayload, EscapesJsonMetacharacters) {
  EXPECT_EQ(obs::jsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(obs::jsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

//===----------------------------------------------------------------------===//
// Sink round-trip
//===----------------------------------------------------------------------===//

TEST(ObsTrace, RoundTripParentageAndOrdering) {
  std::ostringstream OS;
  uint64_t Outer = 0, Inner = 0;
  {
    obs::JsonlTraceSink Sink(OS);
    EXPECT_TRUE(Sink.enabled());
    Outer = Sink.beginSpan("outer", 0,
                           obs::Payload().add("case", "t/x"));
    Inner = Sink.beginSpan("inner", Outer, obs::Payload());
    Sink.event("tick", Inner,
               obs::Payload().add("n", 1u).addHex("fp", uint64_t(0xabcd)));
    Sink.event("tick", Inner, obs::Payload().add("n", 2u));
    Sink.endSpan(Inner);
    Sink.endSpan(Outer);
    EXPECT_EQ(Sink.recordCount(), 4u);
  }
  std::istringstream In(OS.str());
  std::string Err;
  auto Trace = obs::readTrace(In, &Err);
  ASSERT_TRUE(Trace.has_value()) << Err;
  ASSERT_EQ(Trace->size(), 4u);

  const obs::TraceRecord *OuterR = nullptr, *InnerR = nullptr;
  std::vector<const obs::TraceRecord *> Ticks;
  for (const obs::TraceRecord &R : *Trace) {
    if (R.K == obs::TraceRecord::Kind::Span && R.Name == "outer")
      OuterR = &R;
    else if (R.K == obs::TraceRecord::Kind::Span && R.Name == "inner")
      InnerR = &R;
    else if (R.Name == "tick")
      Ticks.push_back(&R);
  }
  ASSERT_NE(OuterR, nullptr);
  ASSERT_NE(InnerR, nullptr);
  ASSERT_EQ(Ticks.size(), 2u);

  EXPECT_EQ(OuterR->Id, Outer);
  EXPECT_EQ(OuterR->Parent, 0u);
  EXPECT_EQ(InnerR->Parent, Outer);
  EXPECT_EQ(Ticks[0]->Span, Inner);
  EXPECT_EQ(OuterR->field("case"), "t/x");
  EXPECT_EQ(Ticks[0]->fieldU64("fp"), 0xabcdu);
  EXPECT_EQ(Ticks[0]->fieldU64("n"), 1u);
  EXPECT_EQ(Ticks[1]->fieldU64("n"), 2u);

  // Sequence numbers are unique, dense, and in file order; event
  // timestamps are monotonic in sequence order (span records carry
  // their *start* time, so they are excluded).
  uint64_t PrevSeq = 0, PrevEventTs = 0;
  bool First = true;
  for (const obs::TraceRecord &R : *Trace) {
    if (!First) {
      EXPECT_EQ(R.Seq, PrevSeq + 1);
    }
    First = false;
    PrevSeq = R.Seq;
    if (R.K == obs::TraceRecord::Kind::Event) {
      EXPECT_GE(R.TsUs, PrevEventTs);
      PrevEventTs = R.TsUs;
    }
  }
  // A span's wall time covers its children's lifetime.
  EXPECT_GE(OuterR->WallUs, InnerR->WallUs);
}

TEST(ObsTrace, DestructorClosesOpenSpans) {
  std::ostringstream OS;
  {
    obs::JsonlTraceSink Sink(OS);
    Sink.beginSpan("left-open", 0, obs::Payload());
  }
  std::istringstream In(OS.str());
  auto Trace = obs::readTrace(In);
  ASSERT_TRUE(Trace.has_value());
  ASSERT_EQ(Trace->size(), 1u);
  EXPECT_EQ((*Trace)[0].Name, "left-open");
}

TEST(ObsTrace, NoopSinkIsDisabledAndSafe) {
  obs::TraceSink &T = obs::TraceSink::noop();
  EXPECT_FALSE(T.enabled());
  EXPECT_EQ(T.beginSpan("x", 0), 0u);
  T.event("e", 0);
  T.endSpan(0);
  obs::ScopedSpan S(T, "scoped");
  EXPECT_EQ(S.id(), 0u);
  S.event("e"); // Must not crash or emit.
}

TEST(ObsTraceFile, RejectsMalformedLines) {
  std::istringstream In("{\"t\":\"event\",\"seq\":1,\"name\":\"a\"}\n"
                        "this is not json\n");
  std::string Err;
  auto Trace = obs::readTrace(In, &Err);
  EXPECT_FALSE(Trace.has_value());
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(ObsMetrics, CountersAndHistograms) {
  obs::Metrics M;
  M.counter("a.b").add();
  M.counter("a.b").add(4);
  EXPECT_EQ(M.counter("a.b").value(), 5u);

  obs::Histogram &H = M.histogram("lat");
  for (uint64_t V : {1u, 2u, 4u, 100u, 1000u})
    H.record(V);
  obs::Histogram::Snapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 5u);
  EXPECT_EQ(S.Sum, 1107u);
  EXPECT_EQ(S.Min, 1u);
  EXPECT_EQ(S.Max, 1000u);
  EXPECT_GE(S.P50, 2u);   // Bucket upper bounds: estimates, not exact.
  EXPECT_LE(S.P50, 128u);
  EXPECT_GE(S.P99, S.P50);

  std::string J = M.json();
  EXPECT_NE(J.find("\"a.b\":5"), std::string::npos) << J;
  EXPECT_NE(J.find("\"lat\""), std::string::npos) << J;
}

TEST(ObsMetrics, ConcurrentWritersSumExactly) {
  obs::Metrics M;
  constexpr unsigned Threads = 4, PerThread = 10000;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&M] {
      for (unsigned I = 0; I < PerThread; ++I) {
        M.counter("shared").add();
        M.histogram("h").record(I);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(M.counter("shared").value(), uint64_t(Threads) * PerThread);
  EXPECT_EQ(M.histogram("h").snapshot().Count,
            uint64_t(Threads) * PerThread);
}

//===----------------------------------------------------------------------===//
// Postmortem on a synthetic trace
//===----------------------------------------------------------------------===//

/// Fingerprints of every prefix of one side of a recorded derivation.
std::vector<uint64_t> prefixFps(const std::string &DescId,
                                const transform::Script &S) {
  auto D = descriptions::load(DescId);
  EXPECT_TRUE(D) << DescId;
  transform::Engine E(std::move(*D));
  std::vector<uint64_t> Fps{search::fingerprint(E.current())};
  for (const transform::Step &St : S) {
    EXPECT_TRUE(E.apply(St).Applied) << St.str();
    Fps.push_back(search::fingerprint(E.current()));
  }
  return Fps;
}

/// A recorded case with at least one step on each side.
const analysis::AnalysisCase &twoSidedCase() {
  for (const analysis::AnalysisCase &C : analysis::table2Cases())
    if (!C.OperatorScript.empty() && !C.InstructionScript.empty())
      return C;
  ADD_FAILURE() << "no two-sided recorded case in the library";
  return analysis::table2Cases().front();
}

TEST(Postmortem, SyntheticTracePinsDivergence) {
  const analysis::AnalysisCase &Case = twoSidedCase();
  std::vector<uint64_t> FpOp = prefixFps(Case.OperatorId,
                                         Case.OperatorScript);
  std::vector<uint64_t> FpInst = prefixFps(Case.InstructionId,
                                           Case.InstructionScript);

  // Script the story: the beam holds the line to depth 1 (one operator
  // step applied), then at depth 2 keeps only an off-line state while
  // the on-line successor — the first recorded *instruction* step —
  // loses to the score cutoff.
  std::ostringstream OS;
  {
    obs::JsonlTraceSink Sink(OS);
    uint64_t S = Sink.beginSpan("search", 0,
                                obs::Payload().add("case", Case.Id));
    uint64_t R0 = Sink.beginSpan(
        "round", S, obs::Payload().add("round", 0u).add("width", 8u));
    auto State = [&](uint64_t O, uint64_t I, unsigned Depth) {
      return obs::Payload()
          .add("depth", Depth)
          .add("round", 0u)
          .addHex("fp_op", O)
          .addHex("fp_inst", I)
          .add("score", 10.0 - Depth)
          .add("distance", 10u - Depth);
    };
    Sink.event("frontier", R0, State(FpOp[0], FpInst[0], 0));
    uint64_t D1 = Sink.beginSpan(
        "depth", R0, obs::Payload().add("depth", 1u).add("round", 0u));
    Sink.event("frontier", D1, State(FpOp[1], FpInst[0], 1));
    Sink.endSpan(D1);
    uint64_t D2 = Sink.beginSpan(
        "depth", R0, obs::Payload().add("depth", 2u).add("round", 0u));
    Sink.event("frontier", D2, State(0x1234, 0x5678, 2)); // off-line
    Sink.event("prune", D2,
               State(FpOp[1], FpInst[1], 2)
                   .add("reason", "score-cutoff")
                   .add("cutoff", 7.25)
                   .add("rule", Case.InstructionScript[0].Rule)
                   .add("side", "instruction"));
    Sink.endSpan(D2);
    Sink.endSpan(R0);
    Sink.endSpan(S);
  }

  std::istringstream In(OS.str());
  std::string Err;
  auto Trace = obs::readTrace(In, &Err);
  ASSERT_TRUE(Trace.has_value()) << Err;

  search::PostmortemReport Rep = search::postmortem(*Trace, Case);
  ASSERT_TRUE(Rep.Ok) << Rep.Error;
  EXPECT_EQ(Rep.Case, Case.Id);
  EXPECT_FALSE(Rep.GoalReached);
  ASSERT_TRUE(Rep.Diverged);
  EXPECT_EQ(Rep.DivergenceDepth, 2u);
  EXPECT_EQ(Rep.RecordedOpSteps, 1u);
  EXPECT_EQ(Rep.RecordedInstSteps, 0u);
  EXPECT_EQ(Rep.NeededSide, "instruction");
  EXPECT_EQ(Rep.NeededRule, Case.InstructionScript[0].str());
  EXPECT_EQ(Rep.PruneReason, "score-cutoff");
  EXPECT_DOUBLE_EQ(Rep.CutoffScore, 7.25);
  EXPECT_EQ(Rep.PruneBreakdown.at("score-cutoff"), 1u);
  EXPECT_GT(Rep.CandidatePool, 0);
  // The rendering names the essentials.
  std::string S = Rep.str();
  EXPECT_NE(S.find("depth 2"), std::string::npos) << S;
  EXPECT_NE(S.find("score-cutoff"), std::string::npos) << S;
}

TEST(Postmortem, SurvivingLineReportsNoDivergence) {
  const analysis::AnalysisCase &Case = twoSidedCase();
  std::vector<uint64_t> FpOp = prefixFps(Case.OperatorId,
                                         Case.OperatorScript);
  std::vector<uint64_t> FpInst = prefixFps(Case.InstructionId,
                                           Case.InstructionScript);
  std::ostringstream OS;
  {
    obs::JsonlTraceSink Sink(OS);
    uint64_t S = Sink.beginSpan("search", 0,
                                obs::Payload().add("case", Case.Id));
    uint64_t R0 = Sink.beginSpan(
        "round", S, obs::Payload().add("round", 0u).add("width", 8u));
    Sink.event("frontier", R0,
               obs::Payload()
                   .add("depth", 0u)
                   .add("round", 0u)
                   .addHex("fp_op", FpOp[0])
                   .addHex("fp_inst", FpInst[0]));
    uint64_t D1 = Sink.beginSpan(
        "depth", R0, obs::Payload().add("depth", 1u).add("round", 0u));
    Sink.event("frontier", D1,
               obs::Payload()
                   .add("depth", 1u)
                   .add("round", 0u)
                   .addHex("fp_op", FpOp[1])
                   .addHex("fp_inst", FpInst[0]));
    Sink.endSpan(D1);
    Sink.endSpan(R0);
    Sink.endSpan(S);
  }
  std::istringstream In(OS.str());
  auto Trace = obs::readTrace(In);
  ASSERT_TRUE(Trace.has_value());
  search::PostmortemReport Rep = search::postmortem(*Trace, Case);
  ASSERT_TRUE(Rep.Ok) << Rep.Error;
  EXPECT_FALSE(Rep.Diverged);
}

//===----------------------------------------------------------------------===//
// A real traced search end to end
//===----------------------------------------------------------------------===//

TEST(ObsSearch, TracedDiscoveryProducesParseableTrace) {
  auto Operator = descriptions::load("pc2.copy");
  auto Instruction = descriptions::load("vax.movc3");
  ASSERT_TRUE(Operator && Instruction);

  std::ostringstream OS;
  obs::Metrics Met;
  search::SearchOutcome Out;
  {
    obs::JsonlTraceSink Sink(OS);
    search::SearchLimits Limits;
    Limits.Trace = &Sink;
    Limits.Metrics = &Met;
    Limits.TraceLabel = "vax.movc3/pc2.copy";
    Out = search::searchDerivation(*Operator, *Instruction, Limits);
  }
  EXPECT_TRUE(Out.Found);

  std::istringstream In(OS.str());
  std::string Err;
  auto Trace = obs::readTrace(In, &Err);
  ASSERT_TRUE(Trace.has_value()) << Err;

  unsigned SearchSpans = 0, Frontiers = 0, Goals = 0;
  for (const obs::TraceRecord &R : *Trace) {
    if (R.K == obs::TraceRecord::Kind::Span && R.Name == "search") {
      ++SearchSpans;
      EXPECT_EQ(R.field("case"), "vax.movc3/pc2.copy");
    }
    if (R.Name == "frontier")
      ++Frontiers;
    if (R.Name == "goal")
      ++Goals;
  }
  EXPECT_EQ(SearchSpans, 1u);
  EXPECT_GT(Frontiers, 0u);
  EXPECT_EQ(Goals, 1u);

  // The metrics registry saw the search: per-rule applies, beam shape,
  // and verify outcomes all land under their taxonomy names.
  bool RuleApplies = false;
  for (const auto &[Name, Value] : Met.counters())
    if (Name.rfind("rule.apply.", 0) == 0 && Value > 0)
      RuleApplies = true;
  EXPECT_TRUE(RuleApplies);
  EXPECT_GT(Met.histogram("search.beam.children").snapshot().Count, 0u);
  EXPECT_GT(Met.counter("verify.pass").value(), 0u);
}

//===----------------------------------------------------------------------===//
// Trace profiler
//===----------------------------------------------------------------------===//

namespace {

obs::TraceRecord
makeSpan(uint64_t Seq, uint64_t Id, uint64_t Parent, const char *Name,
         uint64_t WallUs,
         std::map<std::string, std::string> Fields = {}) {
  obs::TraceRecord R;
  R.K = obs::TraceRecord::Kind::Span;
  R.Seq = Seq;
  R.Id = Id;
  R.Parent = Parent;
  R.Name = Name;
  R.WallUs = WallUs;
  R.Fields = std::move(Fields);
  return R;
}

obs::TraceRecord makeEvent(uint64_t Seq, const char *Name,
                           std::map<std::string, std::string> Fields) {
  obs::TraceRecord R;
  R.K = obs::TraceRecord::Kind::Event;
  R.Seq = Seq;
  R.Name = Name;
  R.Fields = std::move(Fields);
  return R;
}

const obs::ProfileStat *findStat(const std::vector<obs::ProfileStat> &Rows,
                                 const std::string &Key) {
  for (const obs::ProfileStat &S : Rows)
    if (S.Key == Key)
      return &S;
  return nullptr;
}

/// A synthetic tree with known self times:
///   search(1000) -> round(600) -> depth#1(400), depth#2(100)
///               -> verify(200)
/// Self: search 200, round 100, depth 500, verify 200. Sum == 1000.
std::vector<obs::TraceRecord> syntheticProfileTrace() {
  std::vector<obs::TraceRecord> T;
  T.push_back(makeSpan(1, 3, 2, "depth", 400, {{"depth", "1"}}));
  T.push_back(makeSpan(2, 4, 2, "depth", 100, {{"depth", "2"}}));
  T.push_back(makeSpan(3, 2, 1, "round", 600));
  T.push_back(makeSpan(4, 5, 1, "verify", 200));
  T.push_back(makeSpan(5, 1, 0, "search", 1000));
  T.push_back(makeEvent(6, "rule-apply",
                        {{"rule", "fold-constant"}, {"dur_ns", "5000"}}));
  T.push_back(makeEvent(7, "rule-apply",
                        {{"rule", "fold-constant"}, {"dur_ns", "5000"}}));
  T.push_back(
      makeEvent(8, "rule-apply", {{"rule", "swap"}, {"dur_ns", "2000"}}));
  return T;
}

} // namespace

TEST(ObsProfile, SelfTimeAccountsForTracedWallExactly) {
  obs::ProfileReport R = obs::profileTrace(syntheticProfileTrace());
  EXPECT_EQ(R.Spans, 5u);
  EXPECT_EQ(R.Events, 3u);
  EXPECT_EQ(R.TracedWallUs, 1000u);
  // The invariant the rollup rests on: summing self over every span of
  // the tree reproduces the root's wall time (acceptance bound is 5%;
  // synthetic clocks make it exact).
  EXPECT_EQ(R.selfTotalUs(), R.TracedWallUs);

  const obs::ProfileStat *Depth = findStat(R.ByLabel, "depth");
  ASSERT_NE(Depth, nullptr);
  EXPECT_EQ(Depth->Count, 2u);
  EXPECT_EQ(Depth->TotalUs, 500u);
  EXPECT_EQ(Depth->SelfUs, 500u);
  EXPECT_EQ(R.ByLabel.front().Key, "depth") << "sorted by self time";

  const obs::ProfileStat *Search = findStat(R.ByLabel, "search");
  ASSERT_NE(Search, nullptr);
  EXPECT_EQ(Search->TotalUs, 1000u);
  EXPECT_EQ(Search->SelfUs, 200u);

  const obs::ProfileStat *Round = findStat(R.ByLabel, "round");
  ASSERT_NE(Round, nullptr);
  EXPECT_EQ(Round->SelfUs, 100u);
}

TEST(ObsProfile, RollsDepthsInOrder) {
  obs::ProfileReport R = obs::profileTrace(syntheticProfileTrace());

  ASSERT_EQ(R.ByDepth.size(), 2u);
  EXPECT_EQ(R.ByDepth[0].Key, "1"); // Depth order, not time order.
  EXPECT_EQ(R.ByDepth[0].SelfUs, 400u);
  EXPECT_EQ(R.ByDepth[1].Key, "2");
  EXPECT_EQ(R.ByDepth[1].SelfUs, 100u);

  std::string Text = R.str();
  EXPECT_NE(Text.find("traced wall 1000 us"), std::string::npos);
  EXPECT_NE(Text.find("self-time accounted 1000 us"), std::string::npos);
}

TEST(ObsProfile, CollapsedStacksKeepTreePaths) {
  std::string Collapsed = obs::collapsedStacks(syntheticProfileTrace());
  EXPECT_EQ(Collapsed, "search 200\n"
                       "search;round 100\n"
                       "search;round;depth 500\n"
                       "search;verify 200\n");
}

//===----------------------------------------------------------------------===//
// Metrics snapshots under concurrent recording
//===----------------------------------------------------------------------===//

TEST(ObsMetrics, SnapshotDuringRecordStaysConsistent) {
  obs::Metrics M;
  // Register both names up front so every snapshot below names them,
  // even one that wins the race with the first worker's add().
  M.counter("search.expansions");
  M.histogram("transform.apply_ns");
  constexpr unsigned Threads = 4, PerThread = 20000;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&M] {
      for (unsigned I = 0; I < PerThread; ++I) {
        M.counter("search.expansions").add();
        M.histogram("transform.apply_ns").record(I);
      }
    });

  // Snapshot while the writers run: every snapshot must be well-formed,
  // name both metrics, and never see the counter go backwards.
  const std::string Key = "\"search.expansions\":";
  uint64_t Last = 0;
  for (unsigned I = 0; I < 50; ++I) {
    std::string Json = M.json();
    EXPECT_EQ(Json.front(), '{');
    EXPECT_EQ(Json.back(), '}');
    EXPECT_NE(Json.find("\"transform.apply_ns\":{\"count\":"),
              std::string::npos);
    size_t At = Json.find(Key);
    EXPECT_NE(At, std::string::npos) << Json;
    if (At == std::string::npos)
      continue;
    uint64_t Seen =
        std::strtoull(Json.c_str() + At + Key.size(), nullptr, 10);
    EXPECT_GE(Seen, Last);
    EXPECT_LE(Seen, uint64_t(Threads) * PerThread);
    Last = Seen;
  }
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(M.counter("search.expansions").value(),
            uint64_t(Threads) * PerThread);
  EXPECT_EQ(M.histogram("transform.apply_ns").snapshot().Count,
            uint64_t(Threads) * PerThread);
}

} // namespace
