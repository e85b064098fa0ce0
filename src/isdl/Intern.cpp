//===- Intern.cpp - Hash-consed AST arena and COW handles -------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "isdl/Intern.h"

#include "isdl/Traverse.h"

#include <cassert>

using namespace extra;
using namespace extra::isdl;

//===----------------------------------------------------------------------===//
// FeatureVec
//===----------------------------------------------------------------------===//

namespace {

unsigned binarySlot(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return FeatureVec::OpAdd;
  case BinaryOp::Sub:
    return FeatureVec::OpSubOrNeg;
  case BinaryOp::Mul:
    return FeatureVec::OpMul;
  case BinaryOp::Div:
    return FeatureVec::OpDiv;
  case BinaryOp::And:
    return FeatureVec::OpAnd;
  case BinaryOp::Or:
    return FeatureVec::OpOr;
  case BinaryOp::Eq:
    return FeatureVec::OpEq;
  case BinaryOp::Ne:
    return FeatureVec::OpNe;
  case BinaryOp::Lt:
    return FeatureVec::OpLt;
  case BinaryOp::Le:
    return FeatureVec::OpLe;
  case BinaryOp::Gt:
    return FeatureVec::OpGt;
  case BinaryOp::Ge:
    return FeatureVec::OpGe;
  }
  return FeatureVec::OpAdd;
}

} // namespace

FeatureVec FeatureVec::of(const Description &D) {
  FeatureVec F;
  std::vector<const Routine *> Routines = D.routines();
  F.C[FeatureVec::Routines] = static_cast<int32_t>(Routines.size());
  F.C[FeatureVec::Decls] = static_cast<int32_t>(D.decls().size());
  for (const Routine *R : Routines) {
    forEachStmt(R->Body, [&](const Stmt &S) {
      switch (S.getKind()) {
      case Stmt::Kind::Assign:
        ++F.C[FeatureVec::Assign];
        break;
      case Stmt::Kind::If:
        ++F.C[FeatureVec::If];
        break;
      case Stmt::Kind::Repeat:
        ++F.C[FeatureVec::Repeat];
        break;
      case Stmt::Kind::ExitWhen:
        ++F.C[FeatureVec::Exit];
        break;
      case Stmt::Kind::Input:
        F.C[FeatureVec::InputArity] +=
            static_cast<int32_t>(cast<InputStmt>(&S)->getTargets().size());
        break;
      case Stmt::Kind::Output:
        F.C[FeatureVec::OutputArity] +=
            static_cast<int32_t>(cast<OutputStmt>(&S)->getValues().size());
        break;
      case Stmt::Kind::Constrain:
        ++F.C[FeatureVec::Constrain];
        break;
      case Stmt::Kind::Assert:
        ++F.C[FeatureVec::Assert];
        break;
      }
      forEachExpr(S, [&](const Expr &E) {
        switch (E.getKind()) {
        case Expr::Kind::Binary:
          ++F.C[binarySlot(cast<BinaryExpr>(&E)->getOp())];
          break;
        case Expr::Kind::Unary:
          // Operators are counted by spelling: unary negation shares
          // the "-" slot with binary subtraction.
          ++F.C[cast<UnaryExpr>(&E)->getOp() == UnaryOp::Not
                    ? FeatureVec::OpNot
                    : FeatureVec::OpSubOrNeg];
          break;
        case Expr::Kind::MemRef:
          ++F.C[FeatureVec::Mem];
          break;
        case Expr::Kind::Call:
          ++F.C[FeatureVec::Call];
          break;
        case Expr::Kind::IntLit:
          ++F.C[FeatureVec::Lit];
          break;
        default:
          break;
        }
      });
    });
  }
  return F;
}

//===----------------------------------------------------------------------===//
// Interner: arena and hash-consing
//===----------------------------------------------------------------------===//

namespace {

/// Source of Interner::serial(). Constant-initialized, so an arena built
/// during static initialization still draws a fresh number.
std::atomic<uint64_t> NextSerial{0};

} // namespace

Interner::Interner()
    : Serial(NextSerial.fetch_add(1, std::memory_order_relaxed)) {}

Interner &Interner::local() {
  thread_local Interner I;
  return I;
}

Interner::SymId Interner::symbol(const std::string &S) {
  auto [It, Inserted] = Syms.emplace(S, static_cast<SymId>(SymNames.size()));
  if (Inserted)
    SymNames.push_back(S);
  return It->second;
}

namespace {

uint64_t fnvMix(uint64_t H, uint64_t V) {
  for (int I = 0; I < 8; ++I) {
    H ^= (V >> (I * 8)) & 0xFF;
    H *= 1099511628211ULL;
  }
  return H;
}

constexpr uint64_t FnvBasis = 14695981039346656037ULL;

} // namespace

Interner::NodeRef Interner::internNode(Node::K Kind, uint8_t Op, int64_t Value,
                                       std::vector<NodeRef> Kids) {
  // Shallow structural hash: children are already interned, so their refs
  // stand in for their whole subtrees. O(1) per node.
  uint64_t H = fnvMix(FnvBasis, static_cast<uint64_t>(Kind));
  H = fnvMix(H, Op);
  H = fnvMix(H, static_cast<uint64_t>(Value));
  H = fnvMix(H, Kids.size());
  for (NodeRef K : Kids)
    H = fnvMix(H, K);

  auto [It, Inserted] = Buckets.try_emplace(H, NoNode);
  if (!Inserted) {
    for (NodeRef R = It->second; R != NoNode; R = Nodes[R].Next) {
      const Node &N = Nodes[R];
      if (N.Hash == H && N.Kind == Kind && N.Op == Op && N.Value == Value &&
          N.Kids == Kids)
        return R;
    }
  }
  NodeRef R = static_cast<NodeRef>(Nodes.size());
  Nodes.push_back(Node{Kind, Op, Value, H, It->second, std::move(Kids)});
  It->second = R;
  return R;
}

Interner::NodeRef Interner::intern(const Expr &E) {
  switch (E.getKind()) {
  case Expr::Kind::IntLit:
    return internNode(Node::K::IntLit, 0, cast<IntLit>(&E)->getValue(), {});
  case Expr::Kind::CharLit:
    return internNode(Node::K::CharLit, 0, cast<CharLit>(&E)->getValue(), {});
  case Expr::Kind::VarRef:
    return internNode(Node::K::VarRef, 0,
                      symbol(cast<VarRef>(&E)->getName()), {});
  case Expr::Kind::MemRef:
    return internNode(Node::K::MemRef, 0, 0,
                      {intern(*cast<MemRef>(&E)->getAddress())});
  case Expr::Kind::Call:
    return internNode(Node::K::CallE, 0,
                      symbol(cast<CallExpr>(&E)->getCallee()), {});
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(&E);
    return internNode(Node::K::Unary, static_cast<uint8_t>(U->getOp()), 0,
                      {intern(*U->getOperand())});
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    NodeRef L = intern(*B->getLHS());
    NodeRef R = intern(*B->getRHS());
    return internNode(Node::K::Binary, static_cast<uint8_t>(B->getOp()), 0,
                      {L, R});
  }
  }
  assert(false && "unknown expression kind");
  return NoNode;
}

Interner::NodeRef Interner::intern(const Stmt &S) {
  switch (S.getKind()) {
  case Stmt::Kind::Assign: {
    const auto *A = cast<AssignStmt>(&S);
    NodeRef T = intern(*A->getTarget());
    NodeRef V = intern(*A->getValue());
    return internNode(Node::K::AssignS, 0, 0, {T, V});
  }
  case Stmt::Kind::If: {
    const auto *If = cast<IfStmt>(&S);
    NodeRef C = intern(*If->getCond());
    NodeRef T = intern(If->getThen());
    NodeRef E = intern(If->getElse());
    return internNode(Node::K::IfS, 0, 0, {C, T, E});
  }
  case Stmt::Kind::Repeat:
    return internNode(Node::K::RepeatS, 0, 0,
                      {intern(cast<RepeatStmt>(&S)->getBody())});
  case Stmt::Kind::ExitWhen:
    return internNode(Node::K::ExitWhenS, 0, 0,
                      {intern(*cast<ExitWhenStmt>(&S)->getCond())});
  case Stmt::Kind::Input: {
    const auto *In = cast<InputStmt>(&S);
    std::vector<NodeRef> Targets;
    Targets.reserve(In->getTargets().size());
    for (const std::string &T : In->getTargets())
      Targets.push_back(symbol(T)); // SymIds, per the Node contract.
    return internNode(Node::K::InputS, 0, 0, std::move(Targets));
  }
  case Stmt::Kind::Output: {
    const auto *Out = cast<OutputStmt>(&S);
    std::vector<NodeRef> Values;
    Values.reserve(Out->getValues().size());
    for (const ExprPtr &V : Out->getValues())
      Values.push_back(intern(*V));
    return internNode(Node::K::OutputS, 0, 0, std::move(Values));
  }
  case Stmt::Kind::Constrain: {
    const auto *C = cast<ConstrainStmt>(&S);
    return internNode(Node::K::ConstrainS, 0, symbol(C->getTag()),
                      {intern(*C->getPred())});
  }
  case Stmt::Kind::Assert:
    return internNode(Node::K::AssertS, 0, 0,
                      {intern(*cast<AssertStmt>(&S)->getPred())});
  }
  assert(false && "unknown statement kind");
  return NoNode;
}

Interner::NodeRef Interner::intern(const StmtList &L) {
  std::vector<NodeRef> Kids;
  Kids.reserve(L.size());
  for (const StmtPtr &S : L)
    Kids.push_back(intern(*S));
  return internNode(Node::K::List, 0, 0, std::move(Kids));
}

uint64_t Interner::identity(const Description &D) {
  // Arena soft cap, checked only at this entry point: a reset during a
  // recursive intern would invalidate sibling NodeRefs held by callers.
  // NodeRefs are transient by contract, so resetting here only costs warm
  // caches, never correctness.
  if (Nodes.size() > SoftNodeCap)
    reset();
  // Everything the caches keyed by identity can observe: the entry
  // routine choice, every routine's name, result type and (interned) body
  // in order, and every declaration's name and type. The canonical
  // fingerprint needs only the names, but candidate enumeration does not
  // (flag rules need a one-bit type) and neither does a verify verdict
  // (register widths and routine result types mask values). Including
  // dead text the matcher never sees over-approximates identity, which
  // only costs memo hits, never correctness.
  uint64_t H = fnvMix(FnvBasis, Epoch);
  auto MixType = [&H](const TypeRef &T) {
    H = fnvMix(H, static_cast<uint64_t>(T.K));
    H = fnvMix(H, static_cast<uint64_t>(static_cast<uint32_t>(T.Hi)));
    H = fnvMix(H, static_cast<uint64_t>(static_cast<uint32_t>(T.Lo)));
  };
  const Routine *Entry = D.entryRoutine();
  H = fnvMix(H, Entry ? symbol(Entry->Name) + 1 : 0);
  for (const Section &Sec : D.getSections())
    for (const SectionItem &It : Sec.Items) {
      if (It.K == SectionItem::Kind::Decl) {
        H = fnvMix(H, 0x9E3779B97F4A7C15ULL);
        H = fnvMix(H, symbol(It.D.Name));
        MixType(It.D.Type);
      } else {
        H = fnvMix(H, 0xC2B2AE3D27D4EB4FULL);
        H = fnvMix(H, symbol(It.R->Name));
        MixType(It.R->ResultType);
        H = fnvMix(H, intern(It.R->Body));
      }
    }
  return H;
}

void Interner::reset() {
  ++Epoch;
  Nodes.clear();
  Buckets.clear();
  Syms.clear();
  SymNames.clear();
  FpMemo.clear();
}

//===----------------------------------------------------------------------===//
// Canonical fingerprint over the interned DAG
//===----------------------------------------------------------------------===//

namespace {

/// Streams the canonical token stream of a description over interned nodes,
/// with a flat vector keyed by SymId as the rename map. The token layout
/// mirrors the lockstep order of isdl::matchStmts/matchExpr, so two
/// matchable descriptions emit identical streams. The values are
/// persistent registry keys: tests/intern_test.cpp freezes them and checks
/// this walk against the map-based reference Canonicalizer kept there.
class DagCanonicalizer {
public:
  DagCanonicalizer(Interner &I, const Description &D) : I(I), D(D) {}

  uint64_t run() {
    const Routine *Entry = D.entryRoutine();
    if (!Entry) {
      mix(Tag::NoEntry);
      return H;
    }
    // Pre-intern every routine body and classify every declared name; the
    // walk below then never consults the description again.
    for (const Routine *R : D.routines()) {
      Interner::SymId S = I.symbol(R->Name);
      // First routine with a name wins, like Description::findRoutine.
      if (kindOf(S) == NameKind::Unknown) {
        setKind(S, NameKind::RoutineName);
        RoutineBody.emplace_back(S, I.intern(R->Body));
      }
    }
    for (const Decl *Dl : D.decls()) {
      Interner::SymId S = I.symbol(Dl->Name);
      if (kindOf(S) == NameKind::Unknown)
        setKind(S, NameKind::DeclaredVar);
    }

    nameId(I.symbol(Entry->Name));
    while (NextToExpand < Mentioned.size()) {
      Interner::SymId S = Mentioned[NextToExpand++];
      const Interner::NodeRef *Body = bodyOf(S);
      if (!Body)
        continue;
      mix(Tag::RoutineBody);
      walkList(*Body);
      mix(Tag::End);
    }
    return H;
  }

private:
  // Tag values are part of every fingerprint: never renumber them.
  enum class Tag : uint64_t {
    NoEntry = 1,
    RoutineBody,
    End,
    Assign,
    AssignToMem,
    If,
    Else,
    Repeat,
    ExitWhen,
    Input,
    Output,
    Constrain,
    Assert,
    IntLit,
    CharLit,
    VarRef,
    MemRef,
    Call,
    Unary,
    Binary,
    DeclaredVar,
    UndeclaredVar,
    RoutineName,
  };

  enum class NameKind : uint8_t { Unknown, RoutineName, DeclaredVar };

  void mix(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (I * 8)) & 0xFF;
      H *= 1099511628211ULL;
    }
  }
  void mix(Tag T) { mix(static_cast<uint64_t>(T)); }

  /// Flat-vector accessors, grown on demand: SymIds are small dense ints,
  /// so the rename map and the kind table are plain indexed loads instead
  /// of ordered string lookups.
  void growTo(Interner::SymId S) {
    if (S >= CanonId.size()) {
      CanonId.resize(S + 1, NoId);
      Kind.resize(S + 1, NameKind::Unknown);
    }
  }
  NameKind kindOf(Interner::SymId S) {
    growTo(S);
    return Kind[S];
  }
  void setKind(Interner::SymId S, NameKind K) {
    growTo(S);
    Kind[S] = K;
  }
  const Interner::NodeRef *bodyOf(Interner::SymId S) const {
    for (const auto &[Sym, Body] : RoutineBody)
      if (Sym == S)
        return &Body;
    return nullptr;
  }

  void nameId(Interner::SymId S) {
    growTo(S);
    if (CanonId[S] == NoId) {
      CanonId[S] = static_cast<uint32_t>(Mentioned.size());
      Mentioned.push_back(S);
      switch (Kind[S]) {
      case NameKind::RoutineName:
        mix(Tag::RoutineName);
        break;
      case NameKind::DeclaredVar:
        mix(Tag::DeclaredVar);
        break;
      case NameKind::Unknown:
        mix(Tag::UndeclaredVar);
        break;
      }
    }
    mix(CanonId[S]);
  }

  void walk(Interner::NodeRef R) {
    const Interner::Node &N = I.node(R);
    using K = Interner::Node::K;
    switch (N.Kind) {
    case K::IntLit:
      mix(Tag::IntLit);
      mix(static_cast<uint64_t>(N.Value));
      return;
    case K::CharLit:
      mix(Tag::CharLit);
      mix(static_cast<uint64_t>(N.Value));
      return;
    case K::VarRef:
      mix(Tag::VarRef);
      nameId(static_cast<Interner::SymId>(N.Value));
      return;
    case K::MemRef:
      mix(Tag::MemRef);
      walk(N.Kids[0]);
      return;
    case K::CallE:
      mix(Tag::Call);
      nameId(static_cast<Interner::SymId>(N.Value));
      return;
    case K::Unary:
      mix(Tag::Unary);
      mix(N.Op);
      walk(N.Kids[0]);
      return;
    case K::Binary:
      mix(Tag::Binary);
      mix(N.Op);
      walk(N.Kids[0]);
      walk(N.Kids[1]);
      return;
    case K::AssignS:
      mix(I.node(N.Kids[0]).Kind == K::MemRef ? Tag::AssignToMem
                                              : Tag::Assign);
      walk(N.Kids[0]);
      walk(N.Kids[1]);
      return;
    case K::IfS:
      mix(Tag::If);
      walk(N.Kids[0]);
      walkList(N.Kids[1]);
      mix(Tag::Else);
      walkList(N.Kids[2]);
      mix(Tag::End);
      return;
    case K::RepeatS:
      mix(Tag::Repeat);
      walkList(N.Kids[0]);
      mix(Tag::End);
      return;
    case K::ExitWhenS:
      mix(Tag::ExitWhen);
      walk(N.Kids[0]);
      return;
    case K::InputS:
      mix(Tag::Input);
      mix(N.Kids.size());
      for (Interner::NodeRef T : N.Kids)
        nameId(static_cast<Interner::SymId>(T));
      return;
    case K::OutputS:
      mix(Tag::Output);
      mix(N.Kids.size());
      for (Interner::NodeRef V : N.Kids)
        walk(V);
      return;
    case K::ConstrainS:
      mix(Tag::Constrain);
      for (char Ch : I.symbolName(static_cast<Interner::SymId>(N.Value)))
        mix(static_cast<uint64_t>(Ch));
      walk(N.Kids[0]);
      return;
    case K::AssertS:
      mix(Tag::Assert);
      walk(N.Kids[0]);
      return;
    case K::List:
      walkList(R);
      return;
    }
  }

  void walkList(Interner::NodeRef R) {
    const Interner::Node &N = I.node(R);
    for (Interner::NodeRef S : N.Kids)
      walk(S);
  }

  static constexpr uint32_t NoId = ~uint32_t(0);

  Interner &I;
  const Description &D;
  uint64_t H = FnvBasis;
  std::vector<uint32_t> CanonId;
  std::vector<NameKind> Kind;
  std::vector<Interner::SymId> Mentioned;
  std::vector<std::pair<Interner::SymId, Interner::NodeRef>> RoutineBody;
  size_t NextToExpand = 0;
};

} // namespace

uint64_t Interner::canonicalFingerprint(const Description &D) {
  return canonicalFingerprint(D, identity(D));
}

uint64_t Interner::canonicalFingerprint(const Description &D, uint64_t Id) {
  auto It = FpMemo.find(Id);
  if (It != FpMemo.end()) {
    ++MemoHits;
    return It->second;
  }
  uint64_t Fp = DagCanonicalizer(*this, D).run();
  FpMemo.emplace(Id, Fp);
  return Fp;
}

uint64_t isdl::canonicalFingerprint(const Description &D) {
  return Interner::local().canonicalFingerprint(D);
}

//===----------------------------------------------------------------------===//
// DescHandle
//===----------------------------------------------------------------------===//

DescHandle::Payload::Payload(Description D)
    : D(std::move(D)), IdOwner(Interner::local().serial()) {}

Description DescHandle::take() && {
  assert(P && "take() on an empty handle");
  Description Out = P.use_count() == 1 ? std::move(P->D) : P->D.clone();
  P.reset();
  return Out;
}

uint64_t DescHandle::fingerprint() const {
  assert(P && "fingerprint() on an empty handle");
  if (P->FpReady.load(std::memory_order_acquire))
    return P->Fp.load(std::memory_order_relaxed);
  // Idempotent recompute: a racing thread lands on the same value.
  uint64_t Fp = Interner::local().canonicalFingerprint(P->D, identity());
  P->Fp.store(Fp, std::memory_order_relaxed);
  P->FpReady.store(true, std::memory_order_release);
  return Fp;
}

uint64_t DescHandle::identity() const {
  assert(P && "identity() on an empty handle");
  Interner &I = Interner::local();
  // Another thread's identities hash its own SymIds and NodeRefs: it
  // computes one and leaves the owner's cache alone.
  if (I.serial() != P->IdOwner)
    return I.identity(P->D);
  if (P->IdEpoch != I.epoch()) {
    P->Id = I.identity(P->D);
    // Read after the call: identity() itself may reset a full arena.
    P->IdEpoch = I.epoch();
  }
  return P->Id;
}

const FeatureVec &DescHandle::features() const {
  assert(P && "features() on an empty handle");
  if (!P->FVReady.load(std::memory_order_acquire)) {
    P->FV = FeatureVec::of(P->D);
    P->FVReady.store(true, std::memory_order_release);
  }
  return P->FV;
}
