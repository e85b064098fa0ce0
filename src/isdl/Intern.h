//===- Intern.h - Hash-consed AST arena and COW description handles -*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The searcher's hot path pays `clone + apply + fingerprint` per candidate
/// (ROADMAP, "hot-path raw speed"). This module is the raw-speed layer under
/// it:
///
///  * `Interner` — a thread-local arena that hash-conses expression and
///    statement subtrees: structurally equal subtrees are interned to one
///    shared node, each node's structural hash is memoized at construction,
///    and a whole-description canonical fingerprint memo answers repeat
///    fingerprints of structurally identical descriptions without
///    re-walking them (widening rounds and transposition re-reaches hit
///    this constantly).
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
///    its untouched side with its parent as a pointer copy; the canonical
///    fingerprint, the feature vector and the interned identity are
///    computed once per version and cached on the payload. Mutation goes
///    through `clone()` (materialize a private deep copy), never through
///    the shared payload.
///
/// Thread model: the interner is `thread_local` (each batch worker owns an
/// arena; no locks on the hot path). The fingerprint and feature caches use
/// atomics with idempotent-recompute races, so handles may be read from
/// several threads, but the payload description itself is immutable once
/// wrapped. The identity cache belongs to the arena of the thread that
/// built the payload; any other thread recomputes in its own arena.
///
/// Interner NodeRefs are transient: nothing outside a call chain stores
/// them, so the arena can be reset when it grows past its soft cap without
/// invalidating any cached fingerprint *values*. Identity values hash
/// NodeRefs and SymIds, so a cached identity is stamped with its arena's
/// epoch and recomputed after a reset.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_ISDL_INTERN_H
#define EXTRA_ISDL_INTERN_H

#include "isdl/AST.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace extra {
namespace isdl {

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
// Interner
//===----------------------------------------------------------------------===//

/// Thread-local hash-consing arena over ISDL subtrees, plus the canonical
/// fingerprint memo keyed by whole-description structural identity.
class Interner {
public:
  using NodeRef = uint32_t;
  using SymId = uint32_t;
  static constexpr NodeRef NoNode = ~NodeRef(0);

  /// This thread's arena.
  static Interner &local();

  /// Interned symbol id of \p S (stable for the arena's lifetime).
  SymId symbol(const std::string &S);
  const std::string &symbolName(SymId Id) const { return SymNames[Id]; }

  /// Arena node. `Kids` holds child NodeRefs, except for Input nodes
  /// where the entries are SymIds of the target names.
  struct Node {
    enum class K : uint8_t {
      IntLit,
      CharLit,
      VarRef,
      MemRef,
      CallE,
      Unary,
      Binary,
      AssignS,
      IfS,
      RepeatS,
      ExitWhenS,
      InputS,
      OutputS,
      ConstrainS,
      AssertS,
      List,
    };
    K Kind;
    uint8_t Op = 0;        ///< Unary/binary operator, when applicable.
    int64_t Value = 0;     ///< Literal value or SymId payload.
    uint64_t Hash = 0;     ///< Structural hash, memoized at construction.
    NodeRef Next = NoNode; ///< Hash-bucket chain.
    std::vector<NodeRef> Kids;
  };

  /// Interns a subtree; structurally equal subtrees return the same ref.
  NodeRef intern(const Expr &E);
  NodeRef intern(const Stmt &S);
  NodeRef intern(const StmtList &L);

  const Node &node(NodeRef R) const { return Nodes[R]; }

  /// Structural identity of the whole description (names and declared
  /// types included): equal identities imply equal canonical fingerprints,
  /// candidate pools and verify verdicts. 64-bit, same collision tolerance
  /// as the transposition table.
  uint64_t identity(const Description &D);

  /// Rename-invariant canonical fingerprint, memoized by `identity`. Values
  /// are registry dedup keys and appear in recorded traces, so they are
  /// frozen by tests/intern_test.cpp.
  uint64_t canonicalFingerprint(const Description &D);
  /// The same, given \p Identity == identity(D) in this arena and epoch.
  uint64_t canonicalFingerprint(const Description &D, uint64_t Identity);

  /// Nodes currently interned (tests and the soft-cap policy).
  size_t nodeCount() const { return Nodes.size(); }
  /// Canonical-fingerprint memo entries answered without a re-walk.
  uint64_t memoHits() const { return MemoHits; }

  /// Drops the arena, symbol table and memos and starts a new epoch.
  /// Cached fingerprint *values* held elsewhere stay valid; only transient
  /// NodeRefs die, and with them every identity of the old epoch. Called
  /// automatically past the soft cap.
  void reset();

  /// Process-unique number of this arena: no two interners, on live or
  /// finished threads, share one.
  uint64_t serial() const { return Serial; }
  /// Resets so far.
  uint64_t epoch() const { return Epoch; }

private:
  Interner();

  NodeRef internNode(Node::K Kind, uint8_t Op, int64_t Value,
                     std::vector<NodeRef> Kids);

  std::vector<Node> Nodes;
  std::unordered_map<uint64_t, NodeRef> Buckets;
  std::unordered_map<std::string, SymId> Syms;
  std::vector<std::string> SymNames;
  /// identity -> canonical fingerprint.
  std::unordered_map<uint64_t, uint64_t> FpMemo;
  uint64_t MemoHits = 0;
  /// Resets so far, mixed into every identity: identities hash symbol and
  /// node numbers that a reset hands out again.
  uint64_t Epoch = 0;
  const uint64_t Serial;

  /// Soft cap on arena size; `intern` resets everything past it. Sized so
  /// a full 14-pairing batch never trips it in practice.
  static constexpr size_t SoftNodeCap = 1u << 22;
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

  /// Interner::identity of this version in the calling thread's arena.
  /// Computed once per version and arena epoch on the thread that built
  /// the payload; a reset, or a read from another thread, recomputes.
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
    explicit Payload(Description D);
    Description D;
    std::atomic<uint64_t> Fp{0};
    std::atomic<bool> FpReady{false};
    FeatureVec FV;
    std::atomic<bool> FVReady{false};
    /// Serial of the arena that owns the identity cache: only its thread
    /// reads or writes Id and IdEpoch, so they need no atomics.
    const uint64_t IdOwner;
    uint64_t Id = 0;
    uint64_t IdEpoch = ~uint64_t(0);
  };
  std::shared_ptr<Payload> P;
};

/// Rename-invariant canonical fingerprint of \p D through the thread-local
/// interner (memoized). search::fingerprint delegates here.
uint64_t canonicalFingerprint(const Description &D);

} // namespace isdl
} // namespace extra

#endif // EXTRA_ISDL_INTERN_H
