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

/// One span of a trace and the wall time of its direct children.
struct SpanNode {
  const TraceRecord *Rec = nullptr;
  uint64_t ChildWallUs = 0;

  /// Wall time minus the direct children's, clamped at zero against
  /// clock skew.
  uint64_t selfUs() const {
    return Rec->WallUs > ChildWallUs ? Rec->WallUs - ChildWallUs : 0;
  }
};

using SpanIndex = std::unordered_map<uint64_t, SpanNode>;

/// The one pass both rollups start from: indexes the spans of \p Trace by
/// id and charges each span's wall time to its parent, so self time falls
/// out in one subtraction.
SpanIndex indexSpans(const std::vector<TraceRecord> &Trace) {
  SpanIndex Spans;
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
  return Spans;
}

/// The semicolon-joined labels from the root span down to \p Rec,
/// memoized per span id in \p Paths.
const std::string &stackPath(const TraceRecord &Rec, const SpanIndex &Spans,
                             std::unordered_map<uint64_t, std::string> &Paths) {
  auto It = Paths.find(Rec.Id);
  if (It != Paths.end())
    return It->second;
  std::string Path;
  auto Parent = Spans.find(Rec.Parent);
  if (Rec.Parent && Parent != Spans.end()) {
    Path = stackPath(*Parent->second.Rec, Spans, Paths);
    Path += ';';
  }
  Path += Rec.Name.empty() ? "<anon>" : Rec.Name;
  return Paths.emplace(Rec.Id, std::move(Path)).first->second;
}

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

  SpanIndex Spans = indexSpans(Trace);
  std::map<std::string, ProfileStat> ByLabel;
  std::map<uint64_t, ProfileStat> ByDepth;

  for (const auto &[Id, Node] : Spans) {
    (void)Id;
    const TraceRecord &Rec = *Node.Rec;
    ++R.Spans;
    uint64_t Self = Node.selfUs();
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

std::string obs::collapsedStacks(const std::vector<TraceRecord> &Trace) {
  SpanIndex Spans = indexSpans(Trace);
  std::unordered_map<uint64_t, std::string> Paths;
  std::map<std::string, uint64_t> Stacks;
  for (const auto &[Id, Node] : Spans) {
    (void)Id;
    Stacks[stackPath(*Node.Rec, Spans, Paths)] += Node.selfUs();
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
