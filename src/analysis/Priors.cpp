//===- Priors.cpp - Knowledge mined from the recorded derivations -*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "analysis/Priors.h"

#include "analysis/Derivations.h"

#include <algorithm>
#include <numeric>

using namespace extra;
using namespace extra::analysis;
using transform::Script;
using transform::Step;

namespace {

/// Splits a one-assignment prologue "lhs <- rhs;" into its two names.
/// Returns false for anything more complex — conventions are only mined
/// from the simple register-save idiom.
bool splitSave(const std::string &Code, std::string &Lhs, std::string &Rhs) {
  size_t Arrow = Code.find("<-");
  if (Arrow == std::string::npos)
    return false;
  auto Trim = [](std::string S) {
    size_t B = S.find_first_not_of(" \t\n;");
    size_t E = S.find_last_not_of(" \t\n;");
    return B == std::string::npos ? std::string() : S.substr(B, E - B + 1);
  };
  Lhs = Trim(Code.substr(0, Arrow));
  Rhs = Trim(Code.substr(Arrow + 2));
  if (Lhs.empty() || Rhs.empty())
    return false;
  // Reject anything beyond a plain identifier on either side.
  auto PlainName = [](const std::string &S) {
    return S.find_first_of(" \t\n;()+-*/<>=") == std::string::npos;
  };
  return PlainName(Lhs) && PlainName(Rhs);
}

} // namespace

Priors::Priors() {
  std::vector<const Script *> Corpus;
  for (const AnalysisCase &C : corpus()) {
    Corpus.push_back(&C.OperatorScript);
    Corpus.push_back(&C.InstructionScript);
  }

  for (const Script *S : Corpus) {
    // Rule bigrams, including the script-start pseudo-rule "".
    std::string Prev;
    for (const Step &St : *S) {
      ++Bigrams[Prev][St.Rule];
      Prev = St.Rule;
    }

    // Temp conventions: an allocate-temp whose name is later saved-into
    // by a one-assignment add-prologue keys the convention by the saved
    // register. Flag palette: the fresh names record-exit-cause was given,
    // in first-seen order.
    for (size_t I = 0; I < S->size(); ++I) {
      const Step &St = (*S)[I];
      if (St.Rule == "allocate-temp") {
        auto Name = St.Args.find("name");
        auto Type = St.Args.find("type");
        if (Name == St.Args.end() || Type == St.Args.end())
          continue;
        for (size_t J = I + 1; J < S->size(); ++J) {
          const Step &Later = (*S)[J];
          if (Later.Rule != "add-prologue")
            continue;
          auto Code = Later.Args.find("code");
          std::string Lhs, Rhs;
          if (Code == Later.Args.end() ||
              !splitSave(Code->second, Lhs, Rhs) || Lhs != Name->second)
            continue;
          auto Section = St.Args.find("section");
          Vocab.Temps.emplace(
              Rhs, synth::TempConvention{
                       Name->second, Type->second,
                       Section == St.Args.end() ? std::string("STATE")
                                                : Section->second});
          break;
        }
      }
      if (St.Rule == "record-exit-cause") {
        auto Flag = St.Args.find("flag");
        if (Flag != St.Args.end() &&
            std::find(Vocab.Flags.begin(), Vocab.Flags.end(), Flag->second) ==
                Vocab.Flags.end())
          Vocab.Flags.push_back(Flag->second);
      }
    }
  }
}

const Priors &Priors::instance() {
  static const Priors P;
  return P;
}

std::vector<uint32_t>
Priors::successorOrder(std::string_view Prev,
                       std::span<const std::string_view> Rules) const {
  std::vector<uint32_t> Order(Rules.size());
  std::iota(Order.begin(), Order.end(), 0u);
  auto Next = Bigrams.find(Prev);
  if (Next == Bigrams.end())
    return Order;
  std::vector<unsigned> Count(Rules.size(), 0);
  for (size_t I = 0; I < Rules.size(); ++I) {
    auto It = Next->second.find(Rules[I]);
    if (It != Next->second.end())
      Count[I] = It->second;
  }
  std::stable_sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return Count[A] > Count[B];
  });
  return Order;
}
