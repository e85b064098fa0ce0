//===- Intern.h - Description keys and COW description handles --*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The searcher's hot path pays `clone + apply + fingerprint` per candidate
/// (ROADMAP, "hot-path raw speed"). This module holds what it reads of a
/// description version besides the text itself:
///
///  * `canonicalFingerprint` and `identity` — the two 64-bit keys of a
///    description, each one direct FNV-1a walk over the AST. The
///    fingerprint is rename-invariant: it is the paper's §3 test,
///    "identical except for variable and register names", as a hash, and
///    the registry's pairing keys are built from it. The identity is
///    name-sensitive and keys the searcher's caches. Both are pure
///    functions of the description.
///
///  * `FeatureVec` — the structural-distance feature vector as a fixed
///    array instead of a `std::map<std::string,int>`: building one is a
///    single allocation-free walk, and the L1 distance is a flat loop.
///    Slots count syntactic categories, operators by spelling (binary `-`
///    and unary negation share one slot); tests/intern_test.cpp checks it
///    against a map-keyed reference.
///
///  * `DescHandle` — a refcounted copy-on-write handle to an immutable
///    `Description` version. Search nodes hold handles, so a child shares
///    its untouched side with its parent as a pointer copy; the
///    fingerprint, the identity and the feature vector are computed once
///    per version and cached on the payload. Mutation goes through
///    `clone()` (materialize a private deep copy), never through the
///    shared payload.
///
/// Thread model: a handle may be read from several threads. Each cache is
/// filled once, under a `std::once_flag`, by the first read on any thread,
/// and the payload description itself is immutable once wrapped.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_ISDL_INTERN_H
#define EXTRA_ISDL_INTERN_H

#include "isdl/AST.h"

#include <cstdint>
#include <memory>
#include <mutex>

namespace extra {
namespace isdl {

/// Rename-invariant canonical fingerprint of \p D: the entry routine and
/// every routine reachable from it, with each name replaced by its
/// first-mention index. Values are registry dedup keys and appear in
/// recorded traces, so tests/intern_test.cpp freezes them and checks them
/// against a map-based reference walk.
///
/// Guarantee: if `matchDescriptions(A, B).Matched` then the fingerprints
/// are equal, so the searcher's goal test is an integer compare confirmed
/// by a full match. The converse holds modulo 64-bit collisions, which the
/// searcher tolerates (a collision can at worst prune one reachable
/// state).
uint64_t canonicalFingerprint(const Description &D);

/// Name-sensitive structural identity of \p D: the entry routine, every
/// declaration's name and type, and every routine's name, result type and
/// body, in section order. Equal identities imply equal canonical
/// fingerprints, candidate pools and verify verdicts. 64-bit, the same
/// collision tolerance as the transposition table; the values are not
/// persistent.
uint64_t identity(const Description &D);

/// Combines the keys of a search state's two sides (fingerprints or
/// identities) into one. Not commutative: the operator and the
/// instruction side play different roles. The registry's pairing keys
/// are built with it, so its values are persistent too.
uint64_t pairKey(uint64_t OperatorKey, uint64_t InstructionKey);

//===----------------------------------------------------------------------===//
// FeatureVec
//===----------------------------------------------------------------------===//

/// Fixed-slot feature vector of a description's syntactic categories:
/// statement kinds, input/output arity, routine and declaration counts,
/// memory references, calls, literals and operators. Zero distance does
/// not imply equivalence; it is a search heuristic only.
struct FeatureVec {
  enum Slot : unsigned {
    Routines,
    Decls,
    Assign,
    If,
    Repeat,
    Exit,
    InputArity,
    OutputArity,
    Constrain,
    Assert,
    Mem,
    Call,
    Lit,
    // Operators, one slot per spelling. Binary minus and unary negation
    // share a spelling and therefore a slot.
    OpAdd,
    OpSubOrNeg,
    OpMul,
    OpDiv,
    OpAnd,
    OpOr,
    OpEq,
    OpNe,
    OpLt,
    OpLe,
    OpGt,
    OpGe,
    OpNot,
    NumSlots
  };

  int32_t C[NumSlots] = {0};

  /// One full walk of \p D, no allocations.
  static FeatureVec of(const Description &D);

  /// L1 distance, the beam's structural-distance signal.
  unsigned distance(const FeatureVec &O) const {
    unsigned D = 0;
    for (unsigned I = 0; I < NumSlots; ++I) {
      int32_t Diff = C[I] - O.C[I];
      D += static_cast<unsigned>(Diff < 0 ? -Diff : Diff);
    }
    return D;
  }
};

//===----------------------------------------------------------------------===//
// DescHandle
//===----------------------------------------------------------------------===//

/// Refcounted copy-on-write handle to one immutable description version.
/// Copying a handle is the "refcounted handle copy" the searcher uses to
/// share a child's untouched side with its parent; `clone()` materializes
/// a private mutable deep copy for the transform engine.
class DescHandle {
public:
  DescHandle() = default;
  explicit DescHandle(Description D)
      : P(std::make_shared<Payload>(std::move(D))) {}

  bool valid() const { return P != nullptr; }
  const Description &get() const { return P->D; }
  const Description &operator*() const { return P->D; }
  const Description *operator->() const { return &P->D; }

  /// Same underlying version (pointer equality) — the short-circuit for
  /// shared untouched sides.
  bool same(const DescHandle &O) const { return P == O.P; }

  /// Deep copy for mutation.
  Description clone() const { return P->D.clone(); }

  /// Moves the description out when this handle is the sole owner, else
  /// deep-copies. Invalidates this handle.
  Description take() &&;

  /// Canonical fingerprint, computed once per version (then a load).
  uint64_t fingerprint() const;

  /// isdl::identity of this version, computed once per version (then a
  /// load).
  uint64_t identity() const;

  /// Feature vector, computed once per version (then a load).
  const FeatureVec &features() const;

  /// Cached-distance entry point: 0 on pointer-equal handles, otherwise
  /// L1 over the cached feature vectors.
  static unsigned distance(const DescHandle &A, const DescHandle &B) {
    if (A.same(B))
      return 0;
    return A.features().distance(B.features());
  }

private:
  struct Payload {
    explicit Payload(Description D) : D(std::move(D)) {}
    Description D;
    std::once_flag FpOnce, IdOnce, FVOnce;
    uint64_t Fp = 0;
    uint64_t Id = 0;
    FeatureVec FV;
  };
  std::shared_ptr<Payload> P;
};

} // namespace isdl
} // namespace extra

#endif // EXTRA_ISDL_INTERN_H
