//===- Bench.h - Fixed-work pipeline benchmark: shared pieces ---*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pipeline benchmark drives EXTRA from outside, through each
/// module's public functions, on one thread: ISDL text is loaded
/// (descriptions), searched (search), replayed (analysis), imported
/// (registry), lowered (registry -> codegen), compiled and simulated
/// (codegen, sim). Every output is checked against the benchmark's own
/// byte-level reference model, never against the compiler.
///
/// One *pass* is a fixed amount of work; a run repeats passes for the
/// requested number of seconds and reports medians. Per-layer figures
/// cover one set-up plus one pass.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "analysis/Analysis.h"
#include "codegen/Target.h"
#include "interp/Interp.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "registry/Harness.h"
#include "registry/RegistryBuilder.h"
#include "search/Searcher.h"
#include "sim/SimCommon.h"

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using extra::registry::MachineKind;

//===----------------------------------------------------------------------===//
// Arithmetic (Stats.cpp)
//===----------------------------------------------------------------------===//

/// Median of \p V (mean of the middle two for even sizes); 0 when empty.
double median(std::vector<double> V);
/// Geometric mean of positive values; 0 when empty or any value is <= 0.
double geomean(const std::vector<double> &V);
/// \p Num / \p Den, or 0 when \p Den is 0.
double ratio(double Num, double Den);

//===----------------------------------------------------------------------===//
// Reference model and program generator (RefModel.cpp, Programs.cpp)
//===----------------------------------------------------------------------===//

enum class OpKind { Move, Copy, Clear, Index, Equal };

/// How a length operand reaches the code generator.
enum class LenForm {
  Literal, ///< `move(d, s, 40)`.
  Const,   ///< `const n = 40; move(d, s, n)` (constant propagation).
  Range,   ///< `range n 1 255; move(d, s, n)`, n set at run time.
  Free,    ///< `move(d, s, n)`, n set at run time, no fact at all.
};

/// One high-level operation as the generator drew it.
struct OpSpec {
  OpKind K = OpKind::Move;
  uint64_t A = 0;   ///< dst (move/copy/clear), str (index), a (equal).
  uint64_t B = 0;   ///< src (move/copy), b (equal).
  uint64_t Len = 0; ///< Byte count (>= 1).
  LenForm Form = LenForm::Literal;
  int64_t RangeHi = 0; ///< Declared upper bound for LenForm::Range.
  uint8_t Ch = 0;      ///< Searched character (index).
  std::string Result;  ///< Result symbol (index, equal).
};

/// A generated program: the source text the front end parses, the
/// memory image and run-time symbol values it runs on, and the spec the
/// reference model evaluates.
struct ProgramCase {
  std::string Name;
  std::vector<OpSpec> Ops;
  bool NoOverlapAxiom = false;
  std::string Text;
  extra::interp::Memory Mem;
  std::map<std::string, int64_t> Syms;
  /// Needs more than 16-bit addresses or lengths: the 8086 cannot hold
  /// it, so it runs on the VAX and the 370 only.
  bool Wide = false;
};

/// The reference outcome of a program: final memory (absent = 0) and
/// every result symbol.
struct RefOutcome {
  std::vector<uint8_t> Mem;
  std::vector<uint64_t> NonZero; ///< Addresses whose final byte is not 0.
  std::map<std::string, int64_t> Results;
};

/// Evaluates \p P's ops over its memory image byte by byte.
RefOutcome referenceRun(const ProgramCase &P);

/// Empty when \p Final / \p Regs match \p Ref; else the first difference.
std::string compareToReference(const RefOutcome &Ref,
                               const extra::interp::Memory &Final,
                               const std::map<std::string, int64_t> &Regs);

/// Renders \p P.Ops (plus facts) as front-end source into \p P.Text and
/// records the run-time symbol values in \p P.Syms.
void renderProgram(ProgramCase &P);

/// The fixed program of the discovery workloads and the warm-up: every
/// operator once, with literal, constant, range-bounded and fact-free
/// lengths.
ProgramCase fixedProgram();

/// The seeded program set of `compile-run` (see WORKLOADS.md for why each
/// input property is drawn the way it is).
std::vector<ProgramCase> generatePrograms(uint64_t Seed);

//===----------------------------------------------------------------------===//
// Instrumented pipeline (Pipeline.cpp)
//===----------------------------------------------------------------------===//

/// The layers the benchmark times, one span name each.
enum Layer {
  LDescLoad,
  LSearch,
  LReplay,
  LImport,
  LBind,
  LParse,
  LGenerate,
  LSim,
  NumLayers
};

/// Everything one segment of work (a set-up or a pass) did.
struct Tally {
  std::array<uint64_t, NumLayers> Ns{};
  uint64_t WallNs = 0;

  // Exact counts from the program's public results.
  uint64_t Expansions = 0, Generated = 0, Candidates = 0, DeadEnds = 0,
           HashHits = 0, VerifyMemoHits = 0, GoalChecks = 0, Reopened = 0;
  uint64_t Pairings = 0, ReplaysVerified = 0, EntriesAdmitted = 0,
           BindingsVerified = 0, BindingsLoaded = 0;
  uint64_t Programs = 0, ExoticOps = 0, DecomposedOps = 0, RewrittenOps = 0;
  uint64_t Dispatches = 0, MicroOps = 0;          ///< All simulated runs.
  uint64_t RegDispatches = 0, RegCodeLines = 0;   ///< Registry side only.
  /// Per machine: {registry-side, decomposition-side} dispatches.
  std::map<MachineKind, std::pair<uint64_t, uint64_t>> MachineDispatches;

  /// Geometric mean over machines of registry over decomposition
  /// dispatches.
  double dispatchRatio() const;

  // Counts the program records into obs::Metrics (traced segments only).
  uint64_t TransformAttempts = 0, TransformRefusals = 0, TransformApplyNs = 0,
           ScratchClones = 0, SynthProposals = 0, MatchCalls = 0,
           MatchNs = 0, VerifyCalls = 0, VerifyNs = 0;

  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures;
  /// Order-independent record of every exact count, for the
  /// determinism guard.
  std::map<std::string, uint64_t> Signature;

  void fail(const std::string &Why);
  void check(bool Ok, const std::string &Why) {
    ++Attempted;
    if (!Ok)
      fail(Why);
  }
};

/// A compiled-and-simulated side of one program on one machine.
struct SideRun {
  unsigned CodeLines = 0, Exotic = 0, Decomposed = 0;
  unsigned Rewritten = 0; ///< Exotic ops emitted through a §6 rewrite.
  uint64_t Dispatches = 0;
};

/// Wraps each public call in a span (when tracing) and a clock, and adds
/// its outcome to the current Tally.
class Pipeline {
public:
  /// \p Sink and \p Met may be null (untraced).
  Pipeline(extra::obs::TraceSink *Sink, extra::obs::Metrics *Met);

  void begin(const char *Segment, const std::string &Label);
  Tally end();
  Tally &tally() { return T; }

  std::unique_ptr<extra::isdl::Description> load(const std::string &Id);
  extra::search::SearchOutcome
  search(const extra::isdl::Description &Op,
         const extra::isdl::Description &Inst,
         extra::search::SearchLimits Limits, const std::string &Label);
  extra::analysis::AnalysisResult replay(const extra::analysis::AnalysisCase &C,
                                         extra::analysis::Mode M);
  unsigned importScripts(extra::registry::RegistryBuilder &B,
                         const std::string &Dir);
  unsigned bind(const extra::registry::Registry &R, MachineKind MK,
                extra::codegen::Target &T);
  std::optional<extra::codegen::Program> parse(const std::string &Text);

  /// Compiles \p P with \p T, simulates it on \p MK and checks the final
  /// state against \p Ref.
  SideRun compileAndRun(MachineKind MK, const extra::codegen::Target &T,
                        const extra::codegen::Program &P,
                        const ProgramCase &Case, const RefOutcome &Ref,
                        const char *Side);

private:
  template <typename Fn> auto timed(Layer L, const char *Detail, Fn &&F);

  extra::obs::TraceSink *Sink;
  extra::obs::Metrics *Met;
  Tally T;
  Tally MetricsBase; ///< Cumulative metric reads at the segment's start.
  uint64_t SegmentSpan = 0;
  uint64_t SegmentStartNs = 0;
};

/// Targets with the registry's bindings (hand tables cleared) and bare
/// decomposition-only targets, one of each per machine.
struct TargetSet {
  std::map<MachineKind, std::unique_ptr<extra::codegen::Target>> WithRegistry;
  std::map<MachineKind, std::unique_ptr<extra::codegen::Target>> Bare;
};
TargetSet bindTargets(Pipeline &PL, const extra::registry::Registry &R);

/// Parses \p Case and runs it registry-side and decomposition-side on
/// every machine that can hold it, checking both against the reference.
void runProgram(Pipeline &PL, const TargetSet &TS, const ProgramCase &Case,
                const RefOutcome &Ref);

uint64_t nowNs();

//===----------------------------------------------------------------------===//
// Workloads (Workloads.cpp)
//===----------------------------------------------------------------------===//

/// One workload: set-up builds state from the seed, a pass does the fixed
/// work, both record into the Pipeline's tally.
class Workload {
public:
  virtual ~Workload();
  virtual void setup(Pipeline &PL) = 0;
  virtual void pass(Pipeline &PL, unsigned PassIndex) = 0;
};

struct WorkloadOptions {
  uint64_t Seed = 1;
  std::string WorkDir;
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const WorkloadOptions &Opts);
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
