//===- Profile.cpp - Flame-graph rollups over JSONL traces ------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "obs/Profile.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

using namespace extra;
using namespace extra::obs;

uint64_t ProfileReport::selfTotalUs() const {
  uint64_t Sum = 0;
  for (const ProfileStat &S : ByLabel)
    Sum += S.SelfUs;
  return Sum;
}

namespace {

struct SpanNode {
  const TraceRecord *Rec = nullptr;
  uint64_t ChildWallUs = 0;
};

void appendTable(std::string &Out, const char *Title,
                 const std::vector<ProfileStat> &Rows, uint64_t Denom) {
  if (Rows.empty())
    return;
  Out += Title;
  Out += "\n  ";
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%-28s %10s %12s %12s %7s", "key", "count",
                "total_us", "self_us", "self%");
  Out += Buf;
  Out += '\n';
  for (const ProfileStat &S : Rows) {
    double Pct = Denom ? 100.0 * double(S.SelfUs) / double(Denom) : 0.0;
    std::snprintf(Buf, sizeof(Buf), "  %-28s %10llu %12llu %12llu %6.1f%%",
                  S.Key.c_str(), static_cast<unsigned long long>(S.Count),
                  static_cast<unsigned long long>(S.TotalUs),
                  static_cast<unsigned long long>(S.SelfUs), Pct);
    Out += Buf;
    Out += '\n';
  }
}

} // namespace

ProfileReport obs::profileTrace(const std::vector<TraceRecord> &Trace) {
  ProfileReport R;

  // Pass 1: index spans and charge each span's wall to its parent so
  // self time falls out in one subtraction.
  std::unordered_map<uint64_t, SpanNode> Spans;
  Spans.reserve(Trace.size());
  for (const TraceRecord &Rec : Trace)
    if (Rec.K == TraceRecord::Kind::Span && Rec.Id)
      Spans[Rec.Id].Rec = &Rec;
  for (const auto &[Id, Node] : Spans) {
    (void)Id;
    if (!Node.Rec->Parent)
      continue;
    auto It = Spans.find(Node.Rec->Parent);
    if (It != Spans.end())
      It->second.ChildWallUs += Node.Rec->WallUs;
  }

  std::map<std::string, ProfileStat> ByLabel;
  std::map<uint64_t, ProfileStat> ByDepth;

  for (const auto &[Id, Node] : Spans) {
    (void)Id;
    const TraceRecord &Rec = *Node.Rec;
    ++R.Spans;
    uint64_t Self = Rec.WallUs > Node.ChildWallUs
                        ? Rec.WallUs - Node.ChildWallUs
                        : 0;
    bool IsRoot = !Rec.Parent || !Spans.count(Rec.Parent);
    if (IsRoot)
      R.TracedWallUs += Rec.WallUs;

    ProfileStat &L = ByLabel[Rec.Name];
    L.Key = Rec.Name;
    ++L.Count;
    L.TotalUs += Rec.WallUs;
    L.SelfUs += Self;

    if (Rec.Name == "depth") {
      uint64_t D = Rec.fieldU64("depth");
      ProfileStat &DS = ByDepth[D];
      DS.Key = std::to_string(D);
      ++DS.Count;
      DS.TotalUs += Rec.WallUs;
      DS.SelfUs += Self;
    }
  }

  for (const TraceRecord &Rec : Trace)
    R.Events += Rec.K == TraceRecord::Kind::Event;

  R.ByLabel.reserve(ByLabel.size());
  for (auto &[K, S] : ByLabel) {
    (void)K;
    R.ByLabel.push_back(std::move(S));
  }
  std::stable_sort(R.ByLabel.begin(), R.ByLabel.end(),
                   [](const ProfileStat &A, const ProfileStat &B) {
                     return A.SelfUs > B.SelfUs;
                   });
  R.ByDepth.reserve(ByDepth.size());
  for (auto &[D, S] : ByDepth) {
    (void)D;
    R.ByDepth.push_back(std::move(S)); // Depth order, not time order.
  }
  return R;
}

std::string ProfileReport::str() const {
  std::string Out;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "profile: %llu spans, %llu events, traced wall %llu us, "
                "self-time accounted %llu us\n",
                static_cast<unsigned long long>(Spans),
                static_cast<unsigned long long>(Events),
                static_cast<unsigned long long>(TracedWallUs),
                static_cast<unsigned long long>(selfTotalUs()));
  Out += Buf;
  appendTable(Out, "\nby span label (self-time order):", ByLabel,
              TracedWallUs);
  appendTable(Out, "\nby beam depth:", ByDepth, TracedWallUs);
  return Out;
}

namespace {

/// Recomputes the per-span self time and stack path for collapsed
/// output. Kept separate from profileTrace so the report stays small.
struct CollapsedBuilder {
  std::unordered_map<uint64_t, const TraceRecord *> ById;
  std::unordered_map<uint64_t, uint64_t> ChildWall;
  std::unordered_map<uint64_t, std::string> PathCache;

  const std::string &pathOf(const TraceRecord &Rec) {
    auto It = PathCache.find(Rec.Id);
    if (It != PathCache.end())
      return It->second;
    std::string Path;
    auto Parent = ById.find(Rec.Parent);
    if (Rec.Parent && Parent != ById.end()) {
      Path = pathOf(*Parent->second);
      Path += ';';
    }
    Path += Rec.Name.empty() ? "<anon>" : Rec.Name;
    return PathCache.emplace(Rec.Id, std::move(Path)).first->second;
  }
};

} // namespace

std::string ProfileReport::collapsed() const {
  // The report only keeps aggregates; collapsed stacks come from the
  // per-label rollup when the caller did not keep the raw trace. The
  // CLI path uses collapsedStacks() below on the raw records instead.
  std::string Out;
  for (const ProfileStat &S : ByLabel) {
    Out += S.Key.empty() ? "<anon>" : S.Key;
    Out += ' ';
    Out += std::to_string(S.SelfUs);
    Out += '\n';
  }
  return Out;
}

namespace extra {
namespace obs {

std::string collapsedStacks(const std::vector<TraceRecord> &Trace) {
  CollapsedBuilder B;
  for (const TraceRecord &Rec : Trace)
    if (Rec.K == TraceRecord::Kind::Span && Rec.Id)
      B.ById[Rec.Id] = &Rec;
  for (const auto &[Id, Rec] : B.ById) {
    (void)Id;
    if (Rec->Parent && B.ById.count(Rec->Parent))
      B.ChildWall[Rec->Parent] += Rec->WallUs;
  }
  std::map<std::string, uint64_t> Stacks;
  for (const auto &[Id, Rec] : B.ById) {
    uint64_t Children = 0;
    auto It = B.ChildWall.find(Id);
    if (It != B.ChildWall.end())
      Children = It->second;
    uint64_t Self = Rec->WallUs > Children ? Rec->WallUs - Children : 0;
    Stacks[B.pathOf(*Rec)] += Self;
  }
  std::string Out;
  for (const auto &[Path, Us] : Stacks) {
    Out += Path;
    Out += ' ';
    Out += std::to_string(Us);
    Out += '\n';
  }
  return Out;
}

} // namespace obs
} // namespace extra
