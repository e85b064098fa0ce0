//===- CorpusSweep.h - Rule sweeps along the recorded corpus ----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test helpers that walk every version along the 14 recorded derivations
/// and tally what the searcher's candidate rules do there. The tallies are
/// the oracle of the frozen rule tables: a rewrite of a rule's internals
/// must keep every refusal reason and every printed result.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_TESTS_CORPUSSWEEP_H
#define EXTRA_TESTS_CORPUSSWEEP_H

#include "analysis/Derivations.h"
#include "descriptions/Descriptions.h"
#include "isdl/Intern.h"
#include "isdl/Printer.h"
#include "search/Searcher.h"
#include "transform/Transform.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>

namespace extra {
namespace testing {

/// Calls \p Fn on every version along the recorded derivations: each
/// side's library description, then its result after each script step.
inline void forEachCorpusVersion(
    const std::function<void(const analysis::AnalysisCase &, bool Instruction,
                             size_t Step, const isdl::Description &)> &Fn) {
  for (const analysis::AnalysisCase &C : analysis::corpus())
    for (bool Inst : {false, true}) {
      const std::string &Id = Inst ? C.InstructionId : C.OperatorId;
      transform::Engine E(std::move(*descriptions::load(Id)));
      const transform::Script &S =
          Inst ? C.InstructionScript : C.OperatorScript;
      Fn(C, Inst, 0, E.current());
      for (size_t I = 0; I < S.size(); ++I) {
        ASSERT_TRUE(E.apply(S[I]).Applied) << C.Id << " " << S[I].str();
        Fn(C, Inst, I + 1, E.current());
      }
    }
}

/// What one rule did among the searcher's candidates: attempts,
/// applications, and an FNV-1a digest over each attempt's step and its
/// refusal reason or printed result.
struct RuleTally {
  unsigned Attempts = 0, Applied = 0;
  uint64_t Hash = 0xcbf29ce484222325ULL;

  std::string str() const {
    std::ostringstream Out;
    Out << Attempts << "/" << Applied << ":" << std::hex << Hash;
    return Out.str();
  }
};

/// Tallies, by case and rule, every candidate search::enumerateCandidates
/// proposes on every version of both sides of every recorded derivation
/// (only the rules in \p Only, when given). Each candidate runs on a
/// scratch engine over the shared version, as in the searcher, so a
/// refusal that dirtied the reused working copy shows in a later result.
inline std::map<std::string, std::map<std::string, RuleTally>>
ruleTallies(const std::set<std::string> &Only = {}) {
  std::map<std::string, std::map<std::string, RuleTally>> ByCase;
  forEachCorpusVersion([&](const analysis::AnalysisCase &C, bool Inst, size_t,
                           const isdl::Description &D) {
    isdl::DescHandle Version(D.clone());
    for (const transform::Step &S : search::enumerateCandidates(D, D, Inst)) {
      if (!Only.empty() && !Only.count(S.Rule))
        continue;
      transform::Engine Scratch(Version);
      transform::ApplyResult R = Scratch.apply(S);
      RuleTally &T = ByCase[C.Id][S.Rule];
      ++T.Attempts;
      T.Applied += R.Applied;
      std::string Text =
          S.str() + "\n" +
          (R.Applied ? isdl::printDescription(Scratch.current()) : R.Reason) +
          "\n";
      for (unsigned char Ch : Text)
        T.Hash = (T.Hash ^ Ch) * 0x100000001b3ULL;
    }
  });
  return ByCase;
}

/// What the six rules that read dataflow do along one case's derivation,
/// one line per case: `rule=attempts/applied:digest` for each rule.
inline std::map<std::string, std::string> ruleTable() {
  static const char *const Rules[] = {"copy-propagate",  "dead-assign-elim",
                                      "move-up",         "move-down",
                                      "fuse-load-store", "count-up-to-down"};
  std::map<std::string, std::string> Out;
  for (const auto &[Case, ByRule] :
       ruleTallies(std::set<std::string>(std::begin(Rules), std::end(Rules)))) {
    std::ostringstream Line;
    for (const char *Rule : Rules) {
      auto It = ByRule.find(Rule);
      Line << (Line.tellp() ? " " : "") << Rule << "="
           << (It == ByRule.end() ? RuleTally() : It->second).str();
    }
    Out[Case] = Line.str();
  }
  return Out;
}

} // namespace testing
} // namespace extra

#endif // EXTRA_TESTS_CORPUSSWEEP_H
