//===- Pipeline.cpp - One span and one clock per public call ----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// Every call into a layer goes through Pipeline::timed, which opens a
// span named after the layer under the current segment's span (when
// tracing) and adds the call's wall time to the segment's tally. The
// calls do not nest, so each layer's span time is its self time, and
// `extra-cli profile` over the written trace shows the same attribution.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/Frontend.h"
#include "descriptions/Descriptions.h"
#include "sim/Sim370.h"
#include "sim/Sim8086.h"
#include "sim/SimVax.h"

#include <chrono>

using namespace perfbench;
using namespace extra;

namespace {

const std::array<const char *, NumLayers> LayerSpanNames = {
    "descriptions.load", "search",           "analysis.replay",
    "registry.import",   "registry.bind",    "codegen.parse",
    "codegen.generate",  "sim.run"};

} // namespace

uint64_t perfbench::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Tally::fail(const std::string &Why) {
  ++Failed;
  if (Failures.size() < 8)
    Failures.push_back(Why);
}

namespace {

/// Simulation step cap: far above any generated program, so it only
/// stops a runaway translation.
constexpr uint64_t SimMaxSteps = 200000000;

bool startsWith(const std::string &S, const char *Prefix) {
  return S.rfind(Prefix, 0) == 0;
}

/// Reads the counters and latency sums the program records into
/// obs::Metrics, cumulatively, into \p Out's metric fields; a segment's
/// share is the difference of two reads.
void readMetrics(const obs::Metrics *M, Tally &Out) {
  if (!M)
    return;
  for (const auto &[Name, V] : M->counters()) {
    if (startsWith(Name, "rule.apply.")) {
      Out.TransformAttempts += V;
    } else if (startsWith(Name, "rule.refuse.")) {
      Out.TransformAttempts += V;
      Out.TransformRefusals += V;
    } else if (Name == "transform.scratch.clone") {
      Out.ScratchClones += V;
    } else if (startsWith(Name, "synth.proposal.")) {
      Out.SynthProposals += V;
    } else if (Name == "match.attempt") {
      Out.MatchCalls += V;
    } else if (Name == "verify.pass" || Name == "verify.fail") {
      Out.VerifyCalls += V;
    }
  }
  for (const auto &[Name, S] : M->histograms()) {
    if (Name == "transform.apply_ns")
      Out.TransformApplyNs = S.Sum;
    else if (Name == "match.ns")
      Out.MatchNs = S.Sum;
    else if (Name == "verify.ns")
      Out.VerifyNs = S.Sum;
  }
}

std::unique_ptr<codegen::Target> makeTarget(MachineKind MK) {
  switch (MK) {
  case MachineKind::I8086:
    return codegen::makeI8086Target();
  case MachineKind::Vax:
    return codegen::makeVaxTarget();
  case MachineKind::Ibm370:
    return codegen::makeIbm370Target();
  }
  return nullptr;
}

} // namespace

Pipeline::Pipeline(obs::TraceSink *Sink, obs::Metrics *Met)
    : Sink(Sink), Met(Met) {}

template <typename Fn>
auto Pipeline::timed(Layer L, const char *Detail, Fn &&F) {
  obs::TraceSink &S = Sink ? *Sink : obs::TraceSink::noop();
  obs::Payload P;
  if (S.enabled())
    P.add("what", Detail);
  obs::ScopedSpan Span(S, LayerSpanNames[L], SegmentSpan, std::move(P));
  uint64_t T0 = nowNs();
  auto Result = F();
  T.Ns[L] += nowNs() - T0;
  return Result;
}

void Pipeline::begin(const char *Segment, const std::string &Label) {
  T = Tally();
  if (Sink && Sink->enabled())
    SegmentSpan =
        Sink->beginSpan(Segment, 0, obs::Payload().add("workload", Label));
  MetricsBase = Tally();
  readMetrics(Met, MetricsBase);
  SegmentStartNs = nowNs();
}

Tally Pipeline::end() {
  T.WallNs = nowNs() - SegmentStartNs;
  if (SegmentSpan)
    Sink->endSpan(SegmentSpan);
  SegmentSpan = 0;
  if (Met) {
    Tally Now;
    readMetrics(Met, Now);
    const Tally &B = MetricsBase;
    T.TransformAttempts = Now.TransformAttempts - B.TransformAttempts;
    T.TransformRefusals = Now.TransformRefusals - B.TransformRefusals;
    T.TransformApplyNs = Now.TransformApplyNs - B.TransformApplyNs;
    T.ScratchClones = Now.ScratchClones - B.ScratchClones;
    T.SynthProposals = Now.SynthProposals - B.SynthProposals;
    T.MatchCalls = Now.MatchCalls - B.MatchCalls;
    T.MatchNs = Now.MatchNs - B.MatchNs;
    T.VerifyCalls = Now.VerifyCalls - B.VerifyCalls;
    T.VerifyNs = Now.VerifyNs - B.VerifyNs;
  }
  return std::move(T);
}

std::unique_ptr<isdl::Description> Pipeline::load(const std::string &Id) {
  auto D = timed(LDescLoad, Id.c_str(),
                 [&] { return descriptions::loadChecked(Id); });
  T.check(static_cast<bool>(D), "load " + Id + ": " +
                                    (D ? std::string() : D.fault().str()));
  return D ? std::move(*D) : nullptr;
}

search::SearchOutcome Pipeline::search(const isdl::Description &Op,
                                       const isdl::Description &Inst,
                                       search::SearchLimits Limits,
                                       const std::string &Label) {
  // Spans come from this file only; the searcher's own trace is off.
  Limits.Trace = nullptr;
  Limits.Metrics = Met;
  Limits.TraceLabel = Label;
  search::SearchOutcome Out = timed(LSearch, Label.c_str(), [&] {
    return search::searchDerivation(Op, Inst, Limits);
  });
  const search::SearchStats &S = Out.Stats;
  T.Expansions += S.NodesExpanded;
  T.Generated += S.NodesGenerated;
  T.Candidates += S.CandidatesTried;
  T.DeadEnds += S.DeadEnds;
  T.HashHits += S.HashHits;
  T.VerifyMemoHits += S.VerifyMemoHits;
  T.GoalChecks += S.GoalChecks;
  T.Reopened += S.Reopened;
  const std::string K = "search." + Label + ".";
  T.Signature[K + "found"] = Out.Found;
  T.Signature[K + "expanded"] = S.NodesExpanded;
  T.Signature[K + "generated"] = S.NodesGenerated;
  T.Signature[K + "candidates"] = S.CandidatesTried;
  T.Signature[K + "dead_ends"] = S.DeadEnds;
  T.Signature[K + "hash_hits"] = S.HashHits;
  T.Signature[K + "memo_hits"] = S.VerifyMemoHits;
  T.Signature[K + "goal_checks"] = S.GoalChecks;
  T.Signature[K + "reopened"] = S.Reopened;
  T.Signature[K + "steps_op"] = Out.OperatorScript.size();
  T.Signature[K + "steps_inst"] = Out.InstructionScript.size();
  return Out;
}

analysis::AnalysisResult
Pipeline::replay(const analysis::AnalysisCase &C, analysis::Mode M) {
  analysis::DiffOptions Opts;
  Opts.Metrics = Met;
  analysis::AnalysisResult R = timed(
      LReplay, C.Id.c_str(), [&] { return analysis::runAnalysis(C, M, Opts); });
  T.ReplaysVerified += R.Succeeded;
  T.Signature["replay." + C.Id] = R.Succeeded;
  return R;
}

unsigned Pipeline::importScripts(registry::RegistryBuilder &B,
                                 const std::string &Dir) {
  auto N = timed(LImport, Dir.c_str(), [&] { return B.importScriptsDir(Dir); });
  T.check(static_cast<bool>(N),
          "import " + Dir + ": " + (N ? std::string() : N.fault().str()));
  unsigned Admitted = N ? *N : 0;
  T.EntriesAdmitted += Admitted;
  T.Signature["import.admitted"] += Admitted;
  return Admitted;
}

unsigned Pipeline::bind(const registry::Registry &R, MachineKind MK,
                        codegen::Target &Tg) {
  const char *Name = registry::machineName(MK);
  unsigned N = timed(LBind, Name, [&] {
    return registry::loadRegistryBindings(R, Name, Tg);
  });
  T.BindingsLoaded += N;
  T.Signature[std::string("bind.") + Name] += N;
  return N;
}

std::optional<codegen::Program> Pipeline::parse(const std::string &Text) {
  DiagnosticEngine Diags;
  auto P = timed(LParse, "program",
                 [&] { return codegen::parseProgram(Text, Diags); });
  T.check(P.has_value(), "parse: " + Diags.str());
  return P;
}

SideRun Pipeline::compileAndRun(MachineKind MK, const codegen::Target &Tg,
                                const codegen::Program &P,
                                const ProgramCase &Case, const RefOutcome &Ref,
                                const char *Side) {
  // The same steps as registry::Harness, each one timed on its own.
  codegen::CodeGenResult Code = timed(LGenerate, Side, [&] {
    codegen::CodeGenResult C = Tg.generate(P);
    C.Asm = codegen::peephole(std::move(C.Asm));
    return C;
  });
  SideRun R;
  R.CodeLines = sim::codeSize(Code.Asm, ';');
  R.Exotic = Code.ExoticCount;
  R.Decomposed = Code.DecomposedCount;
  for (const codegen::SelectionNote &N : Code.Notes)
    R.Rewritten += N.Chosen.find("(rewritten)") != std::string::npos;

  sim::SimResult S = timed(LSim, Side, [&] {
    switch (MK) {
    case MachineKind::I8086:
      return sim::run8086(Code.Asm, Case.Mem, Case.Syms, SimMaxSteps);
    case MachineKind::Vax:
      return sim::runVax(Code.Asm, Case.Mem, Case.Syms, SimMaxSteps);
    case MachineKind::Ibm370:
      break;
    }
    return sim::run370(Code.Asm, Case.Mem, Case.Syms, SimMaxSteps);
  });
  R.Dispatches = S.Instructions;
  T.Dispatches += S.Instructions;
  T.MicroOps += S.MicroOps;

  std::string Where = Case.Name + " on " + registry::machineName(MK) + " (" +
                      Side + ")";
  std::string Error = S.Ok ? compareToReference(Ref, S.Mem, S.Regs)
                           : "simulation failed: " + S.Error;
  T.check(Error.empty(), Where + ": " + Error);
  const std::string K = "run." + Where + ".";
  T.Signature[K + "dispatches"] = S.Instructions;
  T.Signature[K + "micro_ops"] = S.MicroOps;
  T.Signature[K + "lines"] = R.CodeLines;
  T.Signature[K + "exotic"] = R.Exotic;
  T.Signature[K + "rewritten"] = R.Rewritten;
  return R;
}

TargetSet perfbench::bindTargets(Pipeline &PL, const registry::Registry &R) {
  TargetSet TS;
  for (MachineKind MK : registry::allMachines()) {
    auto WithReg = makeTarget(MK);
    WithReg->clearBindings(); // The hand tables are bootstrap only.
    PL.bind(R, MK, *WithReg);
    TS.WithRegistry[MK] = std::move(WithReg);
    auto Bare = makeTarget(MK);
    Bare->clearBindings();
    TS.Bare[MK] = std::move(Bare);
  }
  return TS;
}

void perfbench::runProgram(Pipeline &PL, const TargetSet &TS,
                           const ProgramCase &Case, const RefOutcome &Ref) {
  std::optional<codegen::Program> P = PL.parse(Case.Text);
  if (!P)
    return;
  Tally &T = PL.tally();
  ++T.Programs;
  for (MachineKind MK : registry::allMachines()) {
    if (Case.Wide && MK == MachineKind::I8086)
      continue;
    SideRun Reg = PL.compileAndRun(MK, *TS.WithRegistry.at(MK), *P, Case, Ref,
                                   "registry");
    SideRun Base = PL.compileAndRun(MK, *TS.Bare.at(MK), *P, Case, Ref,
                                    "decomposition");
    T.ExoticOps += Reg.Exotic;
    T.DecomposedOps += Reg.Decomposed;
    T.RewrittenOps += Reg.Rewritten;
    T.RegDispatches += Reg.Dispatches;
    T.RegCodeLines += Reg.CodeLines;
    T.MachineDispatches[MK].first += Reg.Dispatches;
    T.MachineDispatches[MK].second += Base.Dispatches;
  }
}
