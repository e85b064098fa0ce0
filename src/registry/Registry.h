//===- Registry.h - The deployable binding registry -------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deployment format that closes the paper's §6 loop: a discovered,
/// verified operator/instruction binding leaves the discovery pipeline
/// (a search run, a scripts directory, the recorded corpus) as one registry
/// entry — pairing key, canonical fingerprints, constraint set,
/// derivation scripts, and provenance — and re-enters a production code
/// generator through the BindingCompiler, which lowers entries back into
/// live `codegen::InstructionBinding`s at target-load time. "Once found,
/// the instruction sequences are hard-wired" into the generator; the
/// registry is the wire.
///
/// Serialization is the repo-wide versioned JSONL scheme (one
/// `extra-registry` v1 header line, tolerated-if-absent on read, foreign
/// and future versions rejected with typed Store faults, torn tails
/// skipped, later-records-win by pairing key) via support/VersionedFile.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_REGISTRY_REGISTRY_H
#define EXTRA_REGISTRY_REGISTRY_H

#include "analysis/Analysis.h"
#include "support/Error.h"
#include "support/VersionedFile.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace extra {
namespace registry {

/// Format tag and highest version this build reads and writes.
inline constexpr const char *kRegistryFormat = "extra-registry";
inline constexpr uint32_t kRegistryVersion = 1;

/// The registry file format, as the shared versioned-file layer sees it.
support::FileFormat registryFileFormat();

/// One deployable binding: everything a production code generator needs
/// to reconstruct the `InstructionBinding`, plus the provenance to audit
/// where it came from.
struct RegistryEntry {
  //===--- Identity -------------------------------------------------------===//
  std::string Key;           ///< Canonical pairing key ("0x%016llx").
  std::string AnalysisId;    ///< e.g. "i8086.scasb/rigel.index".
  std::string OperatorId;    ///< Description library id.
  std::string InstructionId; ///< Description library id.
  analysis::Mode M = analysis::Mode::Base;
  uint64_t FpOp = 0;         ///< Canonical fingerprint, operator side.
  uint64_t FpInst = 0;       ///< Canonical fingerprint, instruction side.

  //===--- Code generation ------------------------------------------------===//
  std::string Machine;     ///< "i8086" / "vax" / "ibm370" (instruction id
                           ///< prefix).
  std::string Mnemonic;    ///< "scasb" (instruction id suffix).
  std::string Op;          ///< codegen::opKindName text; empty when the
                           ///< operator maps to no code-generator OpKind
                           ///< (the entry still round-trips).
  std::string Constraints; ///< ConstraintSet::str() text.
  std::string OpScript;    ///< transform::printScript text, operator side.
  std::string InstScript;  ///< Instruction side.
  std::string Binding;     ///< isdl::NameBinding text ("name <-> reg").

  //===--- Provenance -----------------------------------------------------===//
  std::string Source; ///< "recorded" / "scripts" / "search".
  unsigned BeamWidth = 0; ///< Discovery budgets (0 for replayed sources).
  unsigned MaxDepth = 0;
  unsigned Widenings = 0;
  uint64_t MaxNodes = 0;
  uint64_t TimeBudgetMs = 0;
  double WallMs = 0; ///< Discovery (or verification replay) wall time.

  /// One complete JSON object line (no trailing newline).
  std::string toJsonLine() const;
  /// Parses a registry line; nullopt on malformed or foreign input.
  static std::optional<RegistryEntry> fromJsonLine(std::string_view Line);
};

/// The machine name encoded in an instruction id ("i8086.scasb" ->
/// "i8086"); empty when the id has no dot.
std::string machineOfInstruction(const std::string &InstructionId);

/// The mnemonic encoded in an instruction id ("i8086.scasb" -> "scasb").
std::string mnemonicOfInstruction(const std::string &InstructionId);

/// The code-generator operator kind implemented by a library operator
/// ("rigel.index" -> "StrIndex"); empty for operators outside the
/// OpKind vocabulary (e.g. "rigel.span").
std::string opKindOfOperator(const std::string &OperatorId);

/// An in-memory registry: entries deduplicated by pairing key,
/// later-records-win, with versioned load/save.
class Registry {
public:
  /// Inserts or replaces the entry with \p E's key (later records win).
  void upsert(RegistryEntry E);

  /// Entry by pairing key; null when absent.
  const RegistryEntry *find(const std::string &Key) const;

  /// All entries in key order (deterministic for save and display).
  std::vector<const RegistryEntry *> entries() const;

  size_t size() const { return ByKey.size(); }
  bool empty() const { return ByKey.empty(); }

  /// Reads a registry file. A missing file reads as empty; torn lines
  /// are skipped; an absent header is tolerated; foreign and future
  /// headers are typed Store faults.
  static Expected<Registry> load(const std::string &Path);

  /// Writes header + every entry (key order) through a temp file +
  /// rename.
  Expected<bool> save(const std::string &Path) const;

private:
  std::map<std::string, RegistryEntry> ByKey;
};

} // namespace registry
} // namespace extra

#endif // EXTRA_REGISTRY_REGISTRY_H
