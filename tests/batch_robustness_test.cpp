//===- batch_robustness_test.cpp - Fault-isolated batch tests ---*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// The robustness layer's acceptance tests: checkpoint records round-trip
// and tolerate torn writes, checkpoint files carry a schema-version
// header (tolerated when absent, fatal when from the future), injected
// faults produce identical typed outcomes whatever the thread count, a
// killed-and-resumed batch renders a byte-identical report, resume never
// crosses search modes, and no fault ever loses a case.
//
//===----------------------------------------------------------------------===//

#include "search/BatchDriver.h"
#include "search/Checkpoint.h"

#include "analysis/Derivations.h"
#include "support/FaultInjection.h"
#include "support/VersionedFile.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <vector>

using namespace extra;
using namespace extra::search;

namespace {

/// Disarms the process-wide injector on scope exit so one test's spec
/// never leaks into the next.
struct InjectorReset {
  ~InjectorReset() { FaultInjector::instance().reset(); }
};

/// A temp file path unique to this test binary run; removed on exit.
struct TempFile {
  std::string Path;
  explicit TempFile(const std::string &Name)
      : Path(::testing::TempDir() + Name) {
    std::remove(Path.c_str());
  }
  ~TempFile() { std::remove(Path.c_str()); }
};

std::vector<BatchCase> quickCases() {
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

//===----------------------------------------------------------------------===//
// Checkpoint records
//===----------------------------------------------------------------------===//

TEST(CheckpointTest, RecordRoundTrips) {
  CheckpointRecord R;
  R.Case = "vax.locc/clu.search";
  R.M = analysis::Mode::Extension;
  R.Outcome = CaseOutcome::TimedOut;
  R.Category = FaultCategory::Synth;
  R.FaultMessage = "injected \"fault\"\nwith control chars";
  R.Found = false;
  R.Verified = false;
  R.Retried = true;
  R.OpSteps = 3;
  R.InstSteps = 7;
  R.Nodes = 1234;
  R.PartialDistance = 5;
  R.WallMs = 42.5;

  auto Back = CheckpointRecord::fromJsonLine(R.toJsonLine());
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->Case, R.Case);
  EXPECT_EQ(Back->M, R.M);
  EXPECT_EQ(Back->Outcome, R.Outcome);
  EXPECT_EQ(Back->Category, R.Category);
  EXPECT_EQ(Back->FaultMessage, R.FaultMessage);
  EXPECT_EQ(Back->Found, R.Found);
  EXPECT_EQ(Back->Verified, R.Verified);
  EXPECT_EQ(Back->Retried, R.Retried);
  EXPECT_EQ(Back->OpSteps, R.OpSteps);
  EXPECT_EQ(Back->InstSteps, R.InstSteps);
  EXPECT_EQ(Back->Nodes, R.Nodes);
  EXPECT_EQ(Back->PartialDistance, R.PartialDistance);
  EXPECT_DOUBLE_EQ(Back->WallMs, R.WallMs);
  // The report line is wall-clock-free by design.
  EXPECT_EQ(Back->reportLine().find("42.5"), std::string::npos);
}

TEST(CheckpointTest, MalformedLinesRejected) {
  EXPECT_FALSE(CheckpointRecord::fromJsonLine(""));
  EXPECT_FALSE(CheckpointRecord::fromJsonLine("{\"case\":\"x\",\"outco"));
  EXPECT_FALSE(CheckpointRecord::fromJsonLine("not json at all"));
  // A parseable object that is not a checkpoint record.
  EXPECT_FALSE(CheckpointRecord::fromJsonLine("{\"k\":\"span\",\"id\":3}"));
  // Unknown outcome name.
  EXPECT_FALSE(CheckpointRecord::fromJsonLine(
      "{\"case\":\"x\",\"outcome\":\"sideways\"}"));
  // Unknown mode name.
  EXPECT_FALSE(CheckpointRecord::fromJsonLine(
      "{\"case\":\"x\",\"mode\":\"sideways\",\"outcome\":\"verified\"}"));
}

TEST(CheckpointTest, ReaderSkipsTornLinesAndDedups) {
  TempFile F("ckpt_torn.jsonl");
  CheckpointRecord A;
  A.Case = "a";
  A.Outcome = CaseOutcome::Exhausted;
  CheckpointRecord B;
  B.Case = "b";
  B.Outcome = CaseOutcome::Verified;
  B.Found = B.Verified = true;
  CheckpointRecord A2 = A;
  A2.Outcome = CaseOutcome::Verified; // Later record for "a" wins.
  CheckpointRecord AExt = A;          // Same case, other mode: kept apart.
  AExt.M = analysis::Mode::Extension;
  {
    std::ofstream OS(F.Path);
    OS << A.toJsonLine() << "\n";
    OS << B.toJsonLine() << "\n";
    OS << A2.toJsonLine() << "\n";
    OS << AExt.toJsonLine() << "\n";
    OS << "{\"case\":\"c\",\"outc"; // Torn write from a killed run.
  }
  auto Read = readCheckpoints(F.Path);
  ASSERT_TRUE(bool(Read)) << Read.fault().Message;
  std::vector<CheckpointRecord> Records = Read.take();
  ASSERT_EQ(Records.size(), 3u);
  EXPECT_EQ(Records[0].Case, "a");
  EXPECT_EQ(Records[0].M, analysis::Mode::Base);
  EXPECT_EQ(Records[0].Outcome, CaseOutcome::Verified);
  EXPECT_EQ(Records[1].Case, "b");
  EXPECT_EQ(Records[2].Case, "a");
  EXPECT_EQ(Records[2].M, analysis::Mode::Extension);
  EXPECT_EQ(Records[2].Outcome, CaseOutcome::Exhausted);
}

TEST(CheckpointTest, MissingFileReadsEmpty) {
  auto Records = readCheckpoints("/nonexistent/ckpt.jsonl");
  ASSERT_TRUE(bool(Records));
  EXPECT_TRUE(Records->empty());
}

TEST(CheckpointTest, OutcomeNamesRoundTripAndRank) {
  for (CaseOutcome O :
       {CaseOutcome::Verified, CaseOutcome::Discovered, CaseOutcome::Exhausted,
        CaseOutcome::TimedOut, CaseOutcome::Faulted}) {
    auto Back = caseOutcomeFromName(caseOutcomeName(O));
    ASSERT_TRUE(Back);
    EXPECT_EQ(*Back, O);
  }
  EXPECT_FALSE(caseOutcomeFromName("unknown"));
  EXPECT_GT(caseOutcomeRank(CaseOutcome::Verified),
            caseOutcomeRank(CaseOutcome::Discovered));
  EXPECT_GT(caseOutcomeRank(CaseOutcome::Discovered),
            caseOutcomeRank(CaseOutcome::Exhausted));
  EXPECT_GT(caseOutcomeRank(CaseOutcome::Exhausted),
            caseOutcomeRank(CaseOutcome::TimedOut));
  EXPECT_GT(caseOutcomeRank(CaseOutcome::TimedOut),
            caseOutcomeRank(CaseOutcome::Faulted));
}

//===----------------------------------------------------------------------===//
// Schema-version headers
//===----------------------------------------------------------------------===//

TEST(VersionHeaderTest, RoundTrips) {
  std::string Line = support::versionHeaderLine(kCheckpointFormat, 7);
  auto H = support::parseVersionHeader(Line);
  ASSERT_TRUE(H);
  EXPECT_EQ(H->first, kCheckpointFormat);
  EXPECT_EQ(H->second, 7u);
  // Records and junk are not headers.
  EXPECT_FALSE(support::parseVersionHeader(
      "{\"case\":\"x\",\"outcome\":\"verified\"}"));
  EXPECT_FALSE(support::parseVersionHeader("{\"format\":\"x\",\"vers"));
  EXPECT_FALSE(support::parseVersionHeader(""));
  // Nor is a header followed by anything but blanks, or one that carries
  // a third member.
  EXPECT_FALSE(
      support::parseVersionHeader("{\"format\":\"x\",\"version\":1} x"));
  EXPECT_FALSE(support::parseVersionHeader(
      "{\"format\":\"x\",\"version\":1,\"case\":\"y\"}"));
}

TEST(VersionHeaderTest, AppendStampsHeaderOnNewFiles) {
  TempFile F("ckpt_header.jsonl");
  CheckpointRecord R;
  R.Case = "a";
  R.Outcome = CaseOutcome::Verified;
  ASSERT_TRUE(appendCheckpoint(F.Path, R));
  ASSERT_TRUE(appendCheckpoint(F.Path, R)); // No second header.

  std::ifstream In(F.Path);
  std::string First;
  ASSERT_TRUE(std::getline(In, First));
  auto H = support::parseVersionHeader(First);
  ASSERT_TRUE(H);
  EXPECT_EQ(H->first, kCheckpointFormat);
  EXPECT_EQ(H->second, kCheckpointVersion);
  unsigned Headers = 1, Records = 0;
  std::string Line;
  while (std::getline(In, Line)) {
    if (support::parseVersionHeader(Line))
      ++Headers;
    else if (!Line.empty())
      ++Records;
  }
  EXPECT_EQ(Headers, 1u);
  EXPECT_EQ(Records, 2u);

  auto Back = readCheckpoints(F.Path);
  ASSERT_TRUE(bool(Back));
  EXPECT_EQ(Back->size(), 1u); // Same case, later record wins.
}

TEST(VersionHeaderTest, HeaderlessLegacyFilesStillRead) {
  TempFile F("ckpt_legacy.jsonl");
  {
    // PR 4 format: no header line, and no "mode" field on the record.
    std::ofstream OS(F.Path);
    OS << "{\"case\":\"legacy\",\"outcome\":\"exhausted\",\"nodes\":7}\n";
  }
  auto Back = readCheckpoints(F.Path);
  ASSERT_TRUE(bool(Back));
  ASSERT_EQ(Back->size(), 1u);
  EXPECT_EQ((*Back)[0].Case, "legacy");
  EXPECT_EQ((*Back)[0].M, analysis::Mode::Base);
  EXPECT_EQ((*Back)[0].Nodes, 7u);
}

TEST(VersionHeaderTest, FutureVersionRejectedWithStoreFault) {
  TempFile F("ckpt_future.jsonl");
  {
    std::ofstream OS(F.Path);
    OS << support::versionHeaderLine(kCheckpointFormat, 99) << "\n";
  }
  auto Back = readCheckpoints(F.Path);
  ASSERT_FALSE(bool(Back));
  EXPECT_EQ(Back.fault().Category, FaultCategory::Store);
}

TEST(VersionHeaderTest, ForeignFormatRejected) {
  TempFile F("ckpt_foreign.jsonl");
  {
    std::ofstream OS(F.Path);
    OS << support::versionHeaderLine("extra-registry", 1) << "\n";
  }
  auto Back = readCheckpoints(F.Path);
  ASSERT_FALSE(bool(Back));
  EXPECT_EQ(Back.fault().Category, FaultCategory::Store);
}

//===----------------------------------------------------------------------===//
// Fault-isolated batches
//===----------------------------------------------------------------------===//

TEST(BatchRobustnessTest, InjectedOutcomesIdenticalAcrossThreadCounts) {
  // The injector's decisions are scoped to the case id, so where a fault
  // fires cannot depend on which worker ran the case or in what order.
  // The whole per-case record — outcome, category, steps, nodes — must be
  // identical at 1, 2, and 8 threads.
  InjectorReset Guard;
  std::string Err;
  ASSERT_TRUE(FaultInjector::instance().configure(
      "synth=0.25,rule-apply=0.005", &Err))
      << Err;

  std::vector<BatchCase> Cases = quickCases();
  std::vector<std::string> Reports;
  for (unsigned Threads : {1u, 2u, 8u}) {
    BatchOptions Opts;
    Opts.Threads = Threads;
    Opts.Limits.TimeBudgetMs = 30000;
    std::vector<BatchResult> Results = runBatch(Cases, Opts);
    Reports.push_back(batchReportText(Results));
  }
  EXPECT_EQ(Reports[0], Reports[1]);
  EXPECT_EQ(Reports[0], Reports[2]);
}

TEST(BatchRobustnessTest, SynthFaultIsContainedAndTyped) {
  // Rate 1.0 at the synth site: every attempt (and the degraded retry,
  // under its own scope) faults. The batch still completes, and the case
  // lands on a typed Faulted outcome naming the synth category.
  InjectorReset Guard;
  std::string Err;
  ASSERT_TRUE(FaultInjector::instance().configure("synth=1", &Err)) << Err;

  std::vector<BatchCase> Cases = quickCases();
  BatchOptions Opts;
  Opts.Threads = 2;
  BatchStats Stats;
  std::vector<BatchResult> Results = runBatch(Cases, Opts, &Stats);
  ASSERT_EQ(Results.size(), Cases.size());
  for (const BatchResult &R : Results) {
    EXPECT_EQ(R.Record.Outcome, CaseOutcome::Faulted) << R.Case.Id;
    EXPECT_EQ(R.Record.Category, FaultCategory::Synth) << R.Case.Id;
    EXPECT_TRUE(R.Record.Retried) << R.Case.Id;
  }
  EXPECT_EQ(Stats.Faulted, static_cast<unsigned>(Cases.size()));
  EXPECT_GT(FaultInjector::instance().injectedTotal(), 0u);
}

TEST(BatchRobustnessTest, DegradedRetryRecoversOneShotFault) {
  // A fault that fires early in the first attempt's scope need not fire
  // in the retry's distinct scope: with a moderate synth rate the quick
  // cases still end Verified (directly or via the retry), and a case
  // that needed the retry says so in its record.
  InjectorReset Guard;
  std::string Err;
  ASSERT_TRUE(FaultInjector::instance().configure("synth=0.25", &Err)) << Err;

  std::vector<BatchCase> Cases = quickCases();
  BatchOptions Opts;
  Opts.Threads = 2;
  std::vector<BatchResult> WithRetry = runBatch(Cases, Opts);
  Opts.DegradedRetry = false;
  std::vector<BatchResult> WithoutRetry = runBatch(Cases, Opts);

  int RankWith = 0, RankWithout = 0;
  for (size_t I = 0; I < Cases.size(); ++I) {
    RankWith += caseOutcomeRank(WithRetry[I].Record.Outcome);
    RankWithout += caseOutcomeRank(WithoutRetry[I].Record.Outcome);
  }
  // The retry can only improve an outcome, never worsen one.
  EXPECT_GE(RankWith, RankWithout);
}

TEST(BatchRobustnessTest, UnrepresentableTimeBudgetDoesNotTimeOut) {
  // The searcher's deadline saturates: at UINT64_MAX ms the clock never
  // fires, and the node cap decides the case. Unsaturated, the deadline
  // wrapped into the past and the case came back timed out (then
  // degraded-retried) at once.
  std::vector<BatchCase> Cases = quickCases();
  Cases.resize(1); // vax.movc3/pc2.copy needs 10 nodes.
  BatchOptions Opts;
  Opts.Threads = 1;
  Opts.Limits.TimeBudgetMs = UINT64_MAX;
  Opts.Limits.MaxNodes = 3;
  std::vector<BatchResult> Results = runBatch(Cases, Opts);
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_EQ(Results[0].Record.Outcome, CaseOutcome::Exhausted)
      << caseOutcomeName(Results[0].Record.Outcome);
  EXPECT_EQ(Results[0].Record.Nodes, 3u);
  EXPECT_FALSE(Results[0].Record.Retried);
}

TEST(BatchRobustnessTest, CheckpointResumeRendersByteIdenticalReport) {
  // Run a batch to completion with a checkpoint; simulate a mid-run kill
  // by truncating the checkpoint to its first record plus a torn line;
  // resume. The resumed report must equal the uninterrupted one byte for
  // byte, and a second resume must do no search work at all.
  std::vector<BatchCase> Cases = quickCases();
  TempFile F("ckpt_resume.jsonl");

  BatchOptions Opts;
  Opts.Threads = 2;
  Opts.CheckpointPath = F.Path;
  std::vector<BatchResult> Full = runBatch(Cases, Opts);
  std::string FullReport = batchReportText(Full);

  auto Read = readCheckpoints(F.Path);
  ASSERT_TRUE(bool(Read)) << Read.fault().Message;
  std::vector<CheckpointRecord> Records = Read.take();
  ASSERT_EQ(Records.size(), Cases.size());

  // "Kill": keep only the first finished case, with a torn trailing line.
  CheckpointRecord Kept;
  for (const CheckpointRecord &R : Records)
    if (R.Case == Cases[0].Id)
      Kept = R;
  {
    std::ofstream OS(F.Path, std::ios::trunc);
    OS << Kept.toJsonLine() << "\n";
    OS << "{\"case\":\"" << Cases[1].Id << "\",\"outc";
  }

  Opts.Resume = true;
  BatchStats Stats;
  std::vector<BatchResult> Resumed = runBatch(Cases, Opts, &Stats);
  EXPECT_EQ(Stats.Resumed, 1u);
  EXPECT_TRUE(Resumed[0].FromCheckpoint);
  EXPECT_EQ(batchReportText(Resumed), FullReport);

  // Second resume: everything satisfied from the file, zero search work.
  BatchStats Stats2;
  std::vector<BatchResult> Again = runBatch(Cases, Opts, &Stats2);
  EXPECT_EQ(Stats2.Resumed, static_cast<unsigned>(Cases.size()));
  EXPECT_EQ(Stats2.NodesExpanded, 0u);
  EXPECT_EQ(batchReportText(Again), FullReport);
}

TEST(BatchRobustnessTest, BaseRecordDoesNotResumeExtensionBatch) {
  // A verified base-mode record for a pairing says nothing about its
  // extension-mode search: resuming an Extension batch of the same case
  // id must search again, and only then resume from its own record.
  TempFile F("ckpt_mode.jsonl");
  CheckpointRecord Base;
  Base.Case = "vax.movc3/pc2.copy";
  Base.Outcome = CaseOutcome::Verified;
  Base.Found = Base.Verified = true;
  ASSERT_TRUE(appendCheckpoint(F.Path, Base));

  BatchCase Ext;
  Ext.Id = Base.Case;
  Ext.OperatorId = "pc2.copy";
  Ext.InstructionId = "vax.movc3";
  Ext.M = analysis::Mode::Extension;
  BatchOptions Opts;
  Opts.Threads = 1;
  Opts.CheckpointPath = F.Path;
  Opts.Resume = true;
  BatchStats Stats;
  std::vector<BatchResult> Results = runBatch({Ext}, Opts, &Stats);
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_EQ(Stats.Resumed, 0u);
  EXPECT_FALSE(Results[0].FromCheckpoint);
  EXPECT_GT(Stats.NodesExpanded, 0u);
  EXPECT_EQ(Results[0].Record.M, analysis::Mode::Extension);

  // Both records now live side by side, and the Extension batch resumes
  // from its own.
  auto Both = readCheckpoints(F.Path);
  ASSERT_TRUE(bool(Both)) << Both.fault().Message;
  EXPECT_EQ(Both->size(), 2u);
  BatchStats Again;
  Results = runBatch({Ext}, Opts, &Again);
  EXPECT_EQ(Again.Resumed, 1u);
  EXPECT_TRUE(Results[0].FromCheckpoint);
  EXPECT_EQ(Results[0].Record.M, analysis::Mode::Extension);
}

TEST(BatchRobustnessTest, EverySiteProducesACompleteBatch) {
  // Arm every known site at once at modest rates: whatever fires, every
  // case must land on exactly one typed outcome — a batch never loses a
  // case to an injected fault.
  InjectorReset Guard;
  std::string Err;
  ASSERT_TRUE(FaultInjector::instance().configure(
      "parser=0.05,validate=0.05,interp=0.0001,rule-apply=0.002,synth=0.05",
      &Err))
      << Err;

  std::vector<BatchCase> Cases = quickCases();
  BatchOptions Opts;
  Opts.Threads = 2;
  Opts.Limits.TimeBudgetMs = 30000;
  std::vector<BatchResult> Results = runBatch(Cases, Opts);
  ASSERT_EQ(Results.size(), Cases.size());
  for (const BatchResult &R : Results) {
    int Rank = caseOutcomeRank(R.Record.Outcome);
    EXPECT_GE(Rank, 0);
    EXPECT_LE(Rank, 4);
    EXPECT_EQ(R.Record.Case, R.Case.Id);
  }
}

} // namespace
