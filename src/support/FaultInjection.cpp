//===- FaultInjection.cpp - Deterministic seeded fault injection *- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include "support/StringUtil.h"

#include <cstdlib>

using namespace extra;

namespace {

/// Per-thread injection context: the active scope hash and one decision
/// counter per configured site (indexed like FaultInjector::Sites).
struct TlState {
  uint64_t Scope = 0;
  unsigned SuppressDepth = 0;
  std::vector<uint64_t> Counts;
};

TlState &tl() {
  static thread_local TlState State;
  return State;
}

uint64_t fnv1a(std::string_view S) {
  uint64_t H = 1469598103934665603ull;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ull;
  }
  return H;
}

uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

} // namespace

FaultInjector &FaultInjector::instance() {
  static FaultInjector I;
  return I;
}

const std::vector<std::string> &FaultInjector::knownSites() {
  static const std::vector<std::string> Sites = {
      "parser", "validate", "interp", "rule-apply", "synth"};
  return Sites;
}

bool FaultInjector::configure(const std::string &Spec, std::string *Error) {
  for (const std::string &Part : split(Spec, ',')) {
    std::string Item(trim(Part));
    if (Item.empty())
      continue;
    size_t Eq = Item.find('=');
    if (Eq == std::string::npos) {
      if (Error)
        *Error = "bad injection spec '" + Item + "' (want <site>=<rate>)";
      return false;
    }
    std::string Name(trim(Item.substr(0, Eq)));
    std::string RateText(trim(Item.substr(Eq + 1)));
    bool Known = false;
    for (const std::string &S : knownSites())
      Known = Known || S == Name;
    if (!Known) {
      std::string All;
      for (const std::string &S : knownSites())
        All += (All.empty() ? "" : ", ") + S;
      if (Error)
        *Error = "unknown injection site '" + Name + "' (known: " + All + ")";
      return false;
    }
    errno = 0;
    char *End = nullptr;
    double Rate = std::strtod(RateText.c_str(), &End);
    if (End == RateText.c_str() || *End != '\0' || errno != 0 || Rate < 0 ||
        Rate > 1) {
      if (Error)
        *Error = "bad injection rate '" + RateText + "' for site '" + Name +
                 "' (want a number in [0,1])";
      return false;
    }
    Site *Slot = nullptr;
    for (Site &S : Sites)
      if (S.Name == Name)
        Slot = &S;
    if (!Slot) {
      Sites.emplace_back();
      Slot = &Sites.back();
      Slot->Name = Name;
      Slot->NameHash = fnv1a(Name);
    }
    Slot->Rate = Rate;
  }
  bool AnyArmed = false;
  for (const Site &S : Sites)
    AnyArmed = AnyArmed || S.Rate > 0;
  Armed.store(AnyArmed, std::memory_order_relaxed);
  return true;
}

bool FaultInjector::configureFromEnv(std::string *Error) {
  const char *Env = std::getenv("EXTRA_INJECT");
  if (!Env || !*Env)
    return true;
  return configure(Env, Error);
}

void FaultInjector::reset() {
  Armed.store(false, std::memory_order_relaxed);
  Sites.clear();
  Injected.store(0, std::memory_order_relaxed);
  Seed = 0x5EEDFA17;
  TlState &T = tl();
  T.Scope = 0;
  T.Counts.clear();
}

bool FaultInjector::shouldFailSlow(std::string_view Site) {
  TlState &T = tl();
  if (T.SuppressDepth)
    return false;
  for (size_t I = 0; I < Sites.size(); ++I) {
    struct Site &S = Sites[I];
    if (S.Name != Site)
      continue;
    if (S.Rate <= 0)
      return false;
    if (T.Counts.size() <= I)
      T.Counts.resize(Sites.size(), 0);
    uint64_t N = T.Counts[I]++;
    // The decision stream: a pure function of (seed, site, scope, N), so
    // a case replays identically on any thread and any schedule.
    uint64_t X = splitmix64(Seed ^ splitmix64(S.NameHash ^ splitmix64(
                                                  T.Scope ^ splitmix64(N))));
    double U = static_cast<double>(X >> 11) * (1.0 / 9007199254740992.0);
    if (U >= S.Rate)
      return false;
    S.Fired.fetch_add(1, std::memory_order_relaxed);
    Injected.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

std::vector<std::pair<std::string, uint64_t>>
FaultInjector::firedBySite() const {
  std::vector<std::pair<std::string, uint64_t>> Out;
  for (const Site &S : Sites)
    Out.emplace_back(S.Name, S.Fired.load(std::memory_order_relaxed));
  return Out;
}

FaultScope::FaultScope(std::string_view Label) {
  TlState &T = tl();
  SavedScope = T.Scope;
  SavedCounts = T.Counts;
  T.Scope = fnv1a(Label);
  T.Counts.assign(T.Counts.size(), 0);
}

FaultScope::~FaultScope() {
  TlState &T = tl();
  T.Scope = SavedScope;
  T.Counts = std::move(SavedCounts);
}

FaultSuppress::FaultSuppress() { ++tl().SuppressDepth; }
FaultSuppress::~FaultSuppress() { --tl().SuppressDepth; }
