//===- BenchDiff.h - Bench regression attribution ---------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Joins two generations of `BENCH_JSON` summaries (two runs of
/// `scripts/run_benches.sh`, say) and names *what* moved: which
/// benchmark, and which metric — `ns_per_op` or any embedded phase
/// counter (`search.expansions_per_sec`, cache hit counts, ...), as an
/// attribution table rather than one ratio.
///
/// A bench line is the one nested exception to the repo's flat-JSON
/// rule: `{"bench":..,"name":..,"iterations":..,"ns_per_op":..,
/// "counters":{...}}`. The parser here splits the counters object out
/// and runs the shared flat parser over both halves.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_OBS_BENCHDIFF_H
#define EXTRA_OBS_BENCHDIFF_H

#include <istream>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace extra {
namespace obs {

/// One parsed BENCH_JSON line.
struct BenchRecord {
  std::string Bench; ///< The emitting binary (e.g. "bench_search_discovery").
  std::string Name;  ///< The benchmark within it.
  uint64_t Iterations = 0;
  double NsPerOp = 0;
  std::map<std::string, double> Counters;

  std::string key() const { return Bench + "/" + Name; }
};

/// Parses one line; on failure returns nullopt and fills \p Error.
std::optional<BenchRecord> parseBenchLine(const std::string &Line,
                                          std::string *Error = nullptr);

/// Reads a whole summary file (one record per line, blanks skipped).
/// Any malformed line fails the read with its line number in \p Error.
std::optional<std::vector<BenchRecord>>
readBenchFile(std::istream &In, std::string *Error = nullptr);

/// One metric that moved between generations.
struct BenchDelta {
  std::string Key;    ///< bench/name.
  std::string Metric; ///< "ns_per_op" or a counter name.
  double Old = 0;
  double New = 0;
  /// New/Old (Old==0 reports infinity as 0-guarded ratio of 0).
  double ratio() const { return Old != 0 ? New / Old : 0; }
};

/// The joined comparison.
struct BenchDiffReport {
  /// Metrics whose relative change exceeds the threshold, worst first
  /// (by |log ratio|, so a 2x slowdown and a 0.5x speedup rank equal).
  std::vector<BenchDelta> Moved;
  /// Benchmarks present on only one side.
  std::vector<std::string> OnlyOld;
  std::vector<std::string> OnlyNew;
  unsigned Compared = 0; ///< Benchmarks present on both sides.

  bool anyMovement() const {
    return !Moved.empty() || !OnlyOld.empty() || !OnlyNew.empty();
  }
  /// The attribution table (empty-movement case says so explicitly).
  std::string str() const;
};

/// Diffs two generations. \p Threshold is the relative change that
/// counts as movement: 0.10 flags anything that moved more than 10%
/// in either direction.
BenchDiffReport diffBenches(const std::vector<BenchRecord> &Old,
                            const std::vector<BenchRecord> &New,
                            double Threshold = 0.10);

} // namespace obs
} // namespace extra

#endif // EXTRA_OBS_BENCHDIFF_H
