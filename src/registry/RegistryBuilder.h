//===- RegistryBuilder.h - Import discovery artifacts -----------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds a binding registry from the discovery pipeline's artifacts:
///
///  * the recorded derivation corpus built into the binary
///    (analysis/Derivations.cpp — Table 2, the extended cases, §4.3);
///  * the shipped `scripts/` directory (extra-cli export-script text);
///  * a MemoStore file written by the discovery server;
///  * a batch checkpoint file.
///
/// Every imported pairing is *re-verified* by replaying its derivation
/// through `analysis::runAnalysis` before it is admitted — except memo
/// imports, whose entries were verified by the server when stored and
/// carry the rendered constraint/binding text verbatim. Imports
/// deduplicate by canonical pairing key, later sources winning, so
/// `build --from-scripts --from-memo` layers a live store over the
/// shipped corpus.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_REGISTRY_REGISTRYBUILDER_H
#define EXTRA_REGISTRY_REGISTRYBUILDER_H

#include "registry/Registry.h"

#include <string>
#include <vector>

namespace extra {
namespace registry {

/// One case the builder looked at and did not admit, with the reason —
/// the import paths never fail wholesale over one bad pairing.
struct BuildNote {
  std::string CaseId;
  std::string Detail;
};

class RegistryBuilder {
public:
  /// Imports every built-in recorded derivation, replaying each analysis
  /// (cheap differential budget) to regenerate constraints and binding.
  /// Returns the number of entries admitted.
  Expected<unsigned> addRecordedCases();

  /// Imports `<dir>/<case>.operator.script` + `.instruction.script`
  /// pairs (case id encoded with '/' as '_'), verifying each pair by
  /// substituting the parsed scripts into the library case and replaying.
  Expected<unsigned> importScriptsDir(const std::string &Dir);

  /// Imports verified entries from a memo-store file. The file is read
  /// lock-free (no MemoStore::open, no sidecar lock), so a live server's
  /// store can be exported under it; stored constraint/binding text is
  /// trusted as server-verified. Faults on foreign/future headers.
  Expected<unsigned> importMemoFile(const std::string &Path);

  /// Imports Verified records from a batch checkpoint file. Checkpoint
  /// records carry no scripts, so the library derivation for each case id
  /// is replayed to regenerate the payload.
  Expected<unsigned> importCheckpoint(const std::string &Path);

  Registry &registry() { return Reg; }
  const Registry &registry() const { return Reg; }
  const std::vector<BuildNote> &notes() const { return Notes; }

private:
  /// Replays \p Case and admits it as \p Source; notes and returns false
  /// when the replay fails or identity derivation faults.
  bool admitCase(const analysis::AnalysisCase &Case, const std::string &Source);

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
