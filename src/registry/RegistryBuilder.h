//===- RegistryBuilder.h - Import discovery artifacts -----------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds a binding registry from the discovery pipeline's artifacts:
///
///  * the recorded derivation corpus, the `scripts/` files compiled into
///    the binary (Table 2, the extended cases, §4.3);
///  * a directory of script files in the same layout (`--from-scripts`);
///  * a search's own verified results (`extra-cli search --registry`).
///
/// Every admitted pairing has been replayed through
/// `analysis::runAnalysis`: imports replay the derivation before
/// admitting it, and a search result brings the end-to-end replay that
/// verified it, so it is not replayed twice. Entries deduplicate by
/// canonical pairing key, later admissions winning, so a search run
/// with `--registry` layers its discoveries over the file's entries.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_REGISTRY_REGISTRYBUILDER_H
#define EXTRA_REGISTRY_REGISTRYBUILDER_H

#include "analysis/Derivations.h"
#include "registry/Registry.h"
#include "search/BatchDriver.h"

#include <optional>
#include <string>
#include <vector>

namespace extra {
namespace registry {

/// The canonical identity of one (operator, instruction, mode) pairing,
/// rendered as "0x%016llx" — the dedup key of the binding registry.
/// Loads both descriptions from the library (Store fault on unknown
/// ids), combines their canonical fingerprints with isdl::pairKey, and
/// perturbs the key in Extension mode (the two modes are distinct
/// entries: Extension changes what the analysis may conclude).
Expected<std::string> pairingKeyHex(const std::string &OperatorId,
                                    const std::string &InstructionId,
                                    analysis::Mode M);

/// One case the builder looked at and did not admit, with the reason —
/// the import paths never fail wholesale over one bad pairing.
struct BuildNote {
  std::string CaseId;
  std::string Detail;
};

class RegistryBuilder {
public:
  /// Imports the recorded corpus (analysis::shippedScripts()) as
  /// "recorded" entries. Returns the number of entries admitted.
  Expected<unsigned> addRecordedCases();

  /// Imports the `*.script` files in \p Dir as "scripts" entries.
  Expected<unsigned> importScriptsDir(const std::string &Dir);

  /// Imports each `<case>.operator.script` in \p Files with its
  /// `.instruction.script`, as \p Source: parses both, substitutes them
  /// into the corpus case named by the file (the id's '/' written '_')
  /// and replays it (cheap differential budget) to regenerate the
  /// constraints and binding. A file that does not parse is noted with
  /// its name and the parser's diagnostics. Returns the number admitted.
  unsigned admitScriptFiles(const analysis::ScriptFiles &Files,
                            const std::string &Source);

  /// Admits a search result as a "search" entry, filled from the
  /// search's own end-to-end replay (no second replay). \p L and
  /// \p WallMs are provenance: the budget the binding was found at and
  /// the search-plus-replay time. Notes and returns false unless \p D is
  /// Verified.
  bool admitDiscovery(const search::BatchCase &C,
                      const search::DiscoveryResult &D,
                      const search::SearchLimits &L, double WallMs);

  Registry &registry() { return Reg; }
  const Registry &registry() const { return Reg; }
  const std::vector<BuildNote> &notes() const { return Notes; }

private:
  /// Replays \p Case and admits it as \p Source; notes and returns false
  /// when the replay fails or identity derivation faults.
  bool admitCase(const analysis::AnalysisCase &Case, const std::string &Source);

  /// The entry for \p Case, filled from its successful replay \p R;
  /// nullopt (with a note) when the pairing cannot be keyed.
  std::optional<RegistryEntry> entryFor(const analysis::AnalysisCase &Case,
                                        const analysis::AnalysisResult &R,
                                        const std::string &Source,
                                        double WallMs);

  Registry Reg;
  std::vector<BuildNote> Notes;
};

/// The recorded corpus (RegistryBuilder::addRecordedCases), built and
/// replay-verified once per process: the registry the built-in targets
/// are compiled from when no registry file is given.
const Registry &recordedCorpus();

} // namespace registry
} // namespace extra

#endif // EXTRA_REGISTRY_REGISTRYBUILDER_H
