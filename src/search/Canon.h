//===- Canon.h - Canonical-form fingerprints for search ---------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rename-invariant structural hashing of descriptions, the memoization
/// backbone of the derivation searcher. The paper's common-form test
/// (isdl::matchDescriptions) walks two descriptions in lockstep and asks
/// whether they are identical except for names; `fingerprint` linearizes
/// exactly the structure that walk observes — entry routine first, then
/// every routine reachable through call sites, with names replaced by
/// first-mention indices — and hashes it.
///
/// Consequences the searcher relies on:
///
///  * two descriptions that reach common form have equal fingerprints, so
///    the goal test is an integer compare (confirmed by a full match only
///    on fingerprint equality);
///  * a search state revisited under different fresh names (`p0` vs `p1`)
///    hashes identically and is pruned by the transposition table in
///    O(1) instead of being re-expanded.
///
/// Unreachable routines and unreferenced declarations are deliberately
/// excluded: the common-form matcher never sees them, so states differing
/// only in dead text are interchangeable for search purposes.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_SEARCH_CANON_H
#define EXTRA_SEARCH_CANON_H

#include "analysis/Analysis.h"
#include "isdl/AST.h"
#include "support/Error.h"

#include <cstdint>
#include <string>

namespace extra {
namespace search {

/// Rename-invariant structural hash of the match-relevant part of \p D
/// (the entry routine and everything reachable from it).
///
/// Guarantee: if `matchDescriptions(A, B).Matched` then
/// `fingerprint(A) == fingerprint(B)`. The converse holds modulo 64-bit
/// collisions, which the searcher tolerates (a collision can at worst
/// prune one reachable state).
///
/// One direct walk over \p D (isdl::canonicalFingerprint); a search reads
/// it once per version from the version's isdl::DescHandle. Values are
/// persistent registry keys. tests/intern_test.cpp freezes them for the
/// whole library and checks them against a map-based reference walk kept
/// there.
uint64_t fingerprint(const isdl::Description &D);

/// Combines the two side fingerprints of a search state into one
/// transposition-table key. Not commutative: the operator and the
/// instruction side play different roles.
uint64_t pairKey(uint64_t OperatorFp, uint64_t InstructionFp);

/// The canonical identity of one (operator, instruction, mode) pairing,
/// rendered as a stable hex string — the dedup key of the binding
/// registry. Loads both descriptions from the library (Store fault on
/// unknown ids), fingerprints them, combines with pairKey, and perturbs
/// the key in Extension mode (the two modes are distinct entries:
/// Extension changes what the analysis may conclude).
Expected<std::string> pairingKeyHex(const std::string &OperatorId,
                                    const std::string &InstructionId,
                                    analysis::Mode M);

} // namespace search
} // namespace extra

#endif // EXTRA_SEARCH_CANON_H
