//===- Metrics.cpp - Counters and histograms for the pipeline ---*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "support/Json.h"

#include <bit>
#include <cstdio>

using namespace extra;
using namespace extra::obs;
using support::jsonEscape;

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

namespace {

unsigned bucketOf(uint64_t Sample) {
  return Sample == 0 ? 0 : 64 - std::countl_zero(Sample);
}

/// Upper bound of bucket \p B (inclusive).
uint64_t bucketUpper(unsigned B) {
  return B == 0 ? 0 : (B >= 64 ? UINT64_MAX : (uint64_t(1) << B) - 1);
}

void atomicMin(std::atomic<uint64_t> &Slot, uint64_t V) {
  uint64_t Cur = Slot.load(std::memory_order_relaxed);
  while (V < Cur &&
         !Slot.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
    ;
}

void atomicMax(std::atomic<uint64_t> &Slot, uint64_t V) {
  uint64_t Cur = Slot.load(std::memory_order_relaxed);
  while (V > Cur &&
         !Slot.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
    ;
}

} // namespace

void Histogram::record(uint64_t Sample) {
  Buckets[bucketOf(Sample)].fetch_add(1, std::memory_order_relaxed);
  Count.fetch_add(1, std::memory_order_relaxed);
  Sum.fetch_add(Sample, std::memory_order_relaxed);
  atomicMin(Min, Sample);
  atomicMax(Max, Sample);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot S;
  uint64_t Counts[NumBuckets];
  for (unsigned B = 0; B < NumBuckets; ++B) {
    Counts[B] = Buckets[B].load(std::memory_order_relaxed);
    S.Count += Counts[B];
  }
  // Count is derived from the buckets, not the Count member, so the
  // percentile walk is internally consistent under concurrent record().
  S.Sum = Sum.load(std::memory_order_relaxed);
  S.Max = Max.load(std::memory_order_relaxed);
  uint64_t MinV = Min.load(std::memory_order_relaxed);
  S.Min = MinV == UINT64_MAX ? 0 : MinV;
  if (S.Count == 0)
    return S;

  auto Percentile = [&](double Q) {
    uint64_t Target = static_cast<uint64_t>(Q * double(S.Count - 1)) + 1;
    uint64_t Seen = 0;
    for (unsigned B = 0; B < NumBuckets; ++B) {
      Seen += Counts[B];
      if (Seen >= Target)
        return std::min(bucketUpper(B), S.Max);
    }
    return S.Max;
  };
  S.P50 = Percentile(0.50);
  S.P90 = Percentile(0.90);
  S.P99 = Percentile(0.99);
  return S;
}

//===----------------------------------------------------------------------===//
// Metrics registry
//===----------------------------------------------------------------------===//

Counter &Metrics::counter(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters.emplace(std::string(Name), std::make_unique<Counter>())
             .first;
  return *It->second;
}

Histogram &Metrics::histogram(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Histograms.find(Name);
  if (It == Histograms.end())
    It = Histograms.emplace(std::string(Name), std::make_unique<Histogram>())
             .first;
  return *It->second;
}

std::vector<std::pair<std::string, uint64_t>> Metrics::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::pair<std::string, uint64_t>> Out;
  Out.reserve(Counters.size());
  for (const auto &[Name, C] : Counters)
    Out.emplace_back(Name, C->value());
  return Out;
}

std::vector<std::pair<std::string, Histogram::Snapshot>>
Metrics::histograms() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::pair<std::string, Histogram::Snapshot>> Out;
  Out.reserve(Histograms.size());
  for (const auto &[Name, H] : Histograms)
    Out.emplace_back(Name, H->snapshot());
  return Out;
}

std::string Metrics::json() const {
  std::string Out = "{\"counters\":{";
  bool First = true;
  for (const auto &[Name, Value] : counters()) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"' + jsonEscape(Name) + "\":" + std::to_string(Value);
  }
  Out += "},\"histograms\":{";
  First = true;
  for (const auto &[Name, S] : histograms()) {
    if (!First)
      Out += ',';
    First = false;
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"count\":%llu,\"sum\":%llu,\"min\":%llu,\"max\":%llu,"
                  "\"mean\":%.3f,\"p50\":%llu,\"p90\":%llu,\"p99\":%llu}",
                  static_cast<unsigned long long>(S.Count),
                  static_cast<unsigned long long>(S.Sum),
                  static_cast<unsigned long long>(S.Min),
                  static_cast<unsigned long long>(S.Max), S.mean(),
                  static_cast<unsigned long long>(S.P50),
                  static_cast<unsigned long long>(S.P90),
                  static_cast<unsigned long long>(S.P99));
    Out += '"' + jsonEscape(Name) + "\":" + Buf;
  }
  Out += "}}";
  return Out;
}
