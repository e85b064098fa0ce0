//===- Priors.h - Knowledge mined from the recorded derivations -*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recorded Table-2 derivation scripts are transcripts of an expert
/// 1982 user; this module mines them once, at first use, for reusable
/// regularities:
///
///  * *rule bigrams* — how often rule Y follows rule X in a recorded
///    script. The searcher orders candidate expansion and the cleanup
///    closure by these counts, so the expansion tries the expert's
///    continuations first instead of a fixed hand-built list;
///
///  * *naming conventions* — the allocate-temp name/type/section used
///    when a prologue saves a given machine register (`temp <- di`,
///    `rb <- r1`, ...), and the fresh-flag names given to
///    record-exit-cause. These feed synth::Vocabulary, so synthesized
///    arguments reproduce the recorded spellings (the names surface in
///    binding-derived constraint notes, where spelling matters).
///
/// Only the scripts' *shape* is consulted — never which case they solve;
/// autonomous discovery still has to find every step itself.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_ANALYSIS_PRIORS_H
#define EXTRA_ANALYSIS_PRIORS_H

#include "synth/Synth.h"

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace extra {
namespace analysis {

class Priors {
public:
  /// The process-wide priors, mined from the recorded derivation library
  /// on first use. Immutable afterwards; safe to share across threads.
  static const Priors &instance();

  /// The positions of \p Rules, stable-sorted by how often each rule
  /// follows rule \p Prev in a recorded script, most often first (\p Prev
  /// empty means "at the start of a script"). Each rule is looked up once.
  /// Rules the corpus never saw after \p Prev keep their relative order,
  /// so orderings remain deterministic and total coverage is unchanged.
  std::vector<uint32_t>
  successorOrder(std::string_view Prev,
                 std::span<const std::string_view> Rules) const;

  /// Naming conventions for synthesized arguments.
  const synth::Vocabulary &vocabulary() const { return Vocab; }

private:
  Priors();
  /// Bigrams[Prev][Next]: how often rule Next follows rule Prev.
  std::map<std::string, std::map<std::string, unsigned, std::less<>>,
           std::less<>>
      Bigrams;
  synth::Vocabulary Vocab;
};

} // namespace analysis
} // namespace extra

#endif // EXTRA_ANALYSIS_PRIORS_H
