//===- Metrics.h - Counters and histograms for the pipeline -----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-light metrics registry: named monotonic counters and
/// log2-bucketed histograms, shared safely across the search batch
/// driver's worker threads. Instrumentation sites hold a `Metrics *`
/// that is null when metrics are off, so the disabled hot path is one
/// branch and no clock reads.
///
/// Naming convention (dots separate, dynamic components last):
///
///   rule.apply.<rule>            per-rule successful applications
///   rule.refuse.<rule>           per-rule applicability refusals
///   transform.apply_ns           latency of one Engine::apply
///   transform.scratch.reuse      COW applies served by the thread-local
///                                scratch working copy (clone-free)
///   transform.scratch.clone      COW applies that had to clone
///   verify.pass / verify.fail    differential step verifications
///   verify.ns                    latency of one differential check
///   match.attempt / match.success / match.fail.<cause>
///   search.prune.<reason>        score-cutoff | duplicate-fingerprint |
///                                verify-reject
///   search.verify.memo_hit       verifications answered by the
///                                deterministic verdict memo
///   search.outcome.hit           candidate attempts answered by a side
///                                version's expansion record
///   search.reopen.cheaper-line   transposition re-opens by a strictly
///                                shorter script
///   search.beam.children         children generated per depth
///   search.beam.occupancy        frontier size after truncation
///   synth.proposal.<kind>        proposals generated per kind
///   synth.accept / synth.reject  proposals surviving atomic application
///   batch.case_wall_ms           per-pairing discovery wall time
///
/// Adding a counter is one line at the instrumentation site:
/// `if (M) M->counter("my.metric").add();` — registration is implicit
/// and the returned reference is stable for the registry's lifetime.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_OBS_METRICS_H
#define EXTRA_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace extra {
namespace obs {

/// A monotonic counter. add() is lock-free.
class Counter {
public:
  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// A log2-bucketed histogram of non-negative integer samples (latencies
/// in ns, sizes, scores scaled to integers). record() is lock-free;
/// bucket B holds samples in [2^(B-1), 2^B) with bucket 0 holding 0.
class Histogram {
public:
  void record(uint64_t Sample);

  struct Snapshot {
    uint64_t Count = 0;
    uint64_t Sum = 0;
    uint64_t Min = 0;
    uint64_t Max = 0;
    /// Upper-bound estimates from the bucket boundaries.
    uint64_t P50 = 0;
    uint64_t P90 = 0;
    uint64_t P99 = 0;

    double mean() const { return Count ? double(Sum) / double(Count) : 0.0; }
  };
  Snapshot snapshot() const;

private:
  static constexpr unsigned NumBuckets = 65;
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Min{UINT64_MAX};
  std::atomic<uint64_t> Max{0};
};

/// The registry. counter()/histogram() create on first use and return
/// references that stay valid for the registry's lifetime (values are
/// heap-allocated; the name maps are guarded by a mutex taken only on
/// lookup, not on add()/record()).
class Metrics {
public:
  Counter &counter(std::string_view Name);
  Histogram &histogram(std::string_view Name);

  /// All counters, sorted by name. Zero-valued counters are included.
  std::vector<std::pair<std::string, uint64_t>> counters() const;
  /// All histogram snapshots, sorted by name.
  std::vector<std::pair<std::string, Histogram::Snapshot>> histograms() const;

  /// One JSON object:
  ///   {"counters":{"a.b":1,...},
  ///    "histograms":{"x":{"count":..,"sum":..,"min":..,"max":..,
  ///                       "mean":..,"p50":..,"p90":..,"p99":..},...}}
  std::string json() const;

private:
  mutable std::mutex Mu;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> Counters;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> Histograms;
};

} // namespace obs
} // namespace extra

#endif // EXTRA_OBS_METRICS_H
