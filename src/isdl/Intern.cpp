//===- Intern.cpp - Description keys and COW handles ------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "isdl/Intern.h"

#include "isdl/Traverse.h"

#include <cassert>
#include <string>
#include <vector>

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
// The two keys, one direct walk each
//===----------------------------------------------------------------------===//

namespace {

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
  // Identity only.
  Decl,
  Routine,
};

/// FNV-1a over a stream of 64-bit tokens, one byte at a time.
struct Fnv {
  uint64_t H = 14695981039346656037ULL; // FNV offset basis.

  void mixByte(uint8_t B) {
    H ^= B;
    H *= 1099511628211ULL;
  }
  void mix(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      mixByte(static_cast<uint8_t>(V >> (I * 8)));
  }
  void mix(Tag T) { mix(static_cast<uint64_t>(T)); }
};

/// Streams the canonical token stream of a description. The token layout
/// mirrors the lockstep order of isdl::matchStmts/matchExpr, so two
/// matchable descriptions emit identical streams. The values are
/// persistent registry keys: tests/intern_test.cpp freezes them and checks
/// this walk against the map-based reference Canonicalizer kept there,
/// from which it differs only in its name table.
class Canonicalizer : Fnv {
public:
  explicit Canonicalizer(const Description &D) : D(D) {}

  uint64_t run() {
    const Routine *Entry = D.entryRoutine();
    if (!Entry) {
      mix(Tag::NoEntry);
      return H;
    }
    nameId(Entry->Name);
    // Expand routines in first-mention order. Matching binds routines at
    // call sites; because both sides of a successful match mention bound
    // routines in the same lockstep order, first-mention expansion is
    // isomorphism-invariant (unlike alphabetical order, which depends on
    // the very names we are abstracting away).
    for (size_t Next = 0; Next < Mentioned.size(); ++Next) {
      const Routine *R = Mentioned[Next].R;
      if (!R)
        continue;
      mix(Tag::RoutineBody);
      walk(R->Body);
      mix(Tag::End);
    }
    return H;
  }

private:
  /// Canonical index of a name, assigned at first mention. The first
  /// mention also records what kind of thing the name is on this side
  /// (routine / declared variable / undeclared), because the matcher
  /// insists the two sides agree on that.
  void nameId(const std::string &Name) {
    size_t Id = 0;
    while (Id < Mentioned.size() && *Mentioned[Id].Name != Name)
      ++Id;
    if (Id == Mentioned.size()) {
      const Routine *R = D.findRoutine(Name);
      Mentioned.push_back({&Name, R});
      if (R)
        mix(Tag::RoutineName);
      else
        mix(D.findDecl(Name) ? Tag::DeclaredVar : Tag::UndeclaredVar);
    }
    mix(Id);
  }

  void walk(const Expr &E) {
    switch (E.getKind()) {
    case Expr::Kind::IntLit:
      mix(Tag::IntLit);
      mix(static_cast<uint64_t>(cast<IntLit>(&E)->getValue()));
      return;
    case Expr::Kind::CharLit:
      mix(Tag::CharLit);
      mix(cast<CharLit>(&E)->getValue());
      return;
    case Expr::Kind::VarRef:
      mix(Tag::VarRef);
      nameId(cast<VarRef>(&E)->getName());
      return;
    case Expr::Kind::MemRef:
      mix(Tag::MemRef);
      walk(*cast<MemRef>(&E)->getAddress());
      return;
    case Expr::Kind::Call:
      mix(Tag::Call);
      nameId(cast<CallExpr>(&E)->getCallee());
      return;
    case Expr::Kind::Unary: {
      const auto *U = cast<UnaryExpr>(&E);
      mix(Tag::Unary);
      mix(static_cast<uint64_t>(U->getOp()));
      walk(*U->getOperand());
      return;
    }
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(&E);
      mix(Tag::Binary);
      mix(static_cast<uint64_t>(B->getOp()));
      walk(*B->getLHS());
      walk(*B->getRHS());
      return;
    }
    }
  }

  void walk(const Stmt &S) {
    switch (S.getKind()) {
    case Stmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      mix(isa<MemRef>(A->getTarget()) ? Tag::AssignToMem : Tag::Assign);
      walk(*A->getTarget());
      walk(*A->getValue());
      return;
    }
    case Stmt::Kind::If: {
      const auto *If = cast<IfStmt>(&S);
      mix(Tag::If);
      walk(*If->getCond());
      walk(If->getThen());
      mix(Tag::Else);
      walk(If->getElse());
      mix(Tag::End);
      return;
    }
    case Stmt::Kind::Repeat:
      mix(Tag::Repeat);
      walk(cast<RepeatStmt>(&S)->getBody());
      mix(Tag::End);
      return;
    case Stmt::Kind::ExitWhen:
      mix(Tag::ExitWhen);
      walk(*cast<ExitWhenStmt>(&S)->getCond());
      return;
    case Stmt::Kind::Input: {
      const auto *In = cast<InputStmt>(&S);
      mix(Tag::Input);
      mix(In->getTargets().size());
      for (const std::string &T : In->getTargets())
        nameId(T);
      return;
    }
    case Stmt::Kind::Output: {
      const auto *Out = cast<OutputStmt>(&S);
      mix(Tag::Output);
      mix(Out->getValues().size());
      for (const ExprPtr &V : Out->getValues())
        walk(*V);
      return;
    }
    case Stmt::Kind::Constrain: {
      const auto *C = cast<ConstrainStmt>(&S);
      mix(Tag::Constrain);
      for (char Ch : C->getTag())
        mix(static_cast<uint64_t>(Ch));
      walk(*C->getPred());
      return;
    }
    case Stmt::Kind::Assert:
      mix(Tag::Assert);
      walk(*cast<AssertStmt>(&S)->getPred());
      return;
    }
  }

  void walk(const StmtList &Stmts) {
    for (const StmtPtr &S : Stmts)
      walk(*S);
  }

  /// A name mentioned so far, and the routine it names (null for none).
  struct Mention {
    const std::string *Name;
    const Routine *R;
  };

  const Description &D;
  /// Names in first-mention order; a name's index is its canonical id.
  std::vector<Mention> Mentioned;
};

/// Streams a description's identity tokens: every node kind tagged, every
/// list and name prefixed with its length, so two descriptions that
/// differ anywhere the walk looks stream differently.
class IdentityWalk : Fnv {
public:
  uint64_t run(const Description &D) {
    // Everything the caches keyed by identity can observe. The canonical
    // fingerprint needs only the names, but candidate enumeration does not
    // (flag rules need a one-bit type) and neither does a verify verdict
    // (register widths and routine result types mask values). Including
    // dead text the matcher never sees over-approximates identity, which
    // only costs memo hits, never correctness.
    const Routine *Entry = D.entryRoutine();
    mix(Entry != nullptr);
    if (Entry)
      text(Entry->Name);
    for (const Section &Sec : D.getSections())
      for (const SectionItem &It : Sec.Items) {
        if (It.K == SectionItem::Kind::Decl) {
          mix(Tag::Decl);
          text(It.D.Name);
          type(It.D.Type);
        } else {
          mix(Tag::Routine);
          text(It.R->Name);
          type(It.R->ResultType);
          walk(It.R->Body);
        }
      }
    return H;
  }

private:
  void text(const std::string &S) {
    mix(S.size());
    for (char Ch : S)
      mixByte(static_cast<uint8_t>(Ch));
  }

  void type(const TypeRef &T) {
    mix(static_cast<uint64_t>(T.K));
    mix(static_cast<uint64_t>(static_cast<uint32_t>(T.Hi)));
    mix(static_cast<uint64_t>(static_cast<uint32_t>(T.Lo)));
  }

  void walk(const Expr &E) {
    switch (E.getKind()) {
    case Expr::Kind::IntLit:
      mix(Tag::IntLit);
      mix(static_cast<uint64_t>(cast<IntLit>(&E)->getValue()));
      return;
    case Expr::Kind::CharLit:
      mix(Tag::CharLit);
      mix(cast<CharLit>(&E)->getValue());
      return;
    case Expr::Kind::VarRef:
      mix(Tag::VarRef);
      text(cast<VarRef>(&E)->getName());
      return;
    case Expr::Kind::MemRef:
      mix(Tag::MemRef);
      walk(*cast<MemRef>(&E)->getAddress());
      return;
    case Expr::Kind::Call:
      mix(Tag::Call);
      text(cast<CallExpr>(&E)->getCallee());
      return;
    case Expr::Kind::Unary: {
      const auto *U = cast<UnaryExpr>(&E);
      mix(Tag::Unary);
      mix(static_cast<uint64_t>(U->getOp()));
      walk(*U->getOperand());
      return;
    }
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(&E);
      mix(Tag::Binary);
      mix(static_cast<uint64_t>(B->getOp()));
      walk(*B->getLHS());
      walk(*B->getRHS());
      return;
    }
    }
  }

  void walk(const Stmt &S) {
    switch (S.getKind()) {
    case Stmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      mix(Tag::Assign);
      walk(*A->getTarget());
      walk(*A->getValue());
      return;
    }
    case Stmt::Kind::If: {
      const auto *If = cast<IfStmt>(&S);
      mix(Tag::If);
      walk(*If->getCond());
      walk(If->getThen());
      walk(If->getElse());
      return;
    }
    case Stmt::Kind::Repeat:
      mix(Tag::Repeat);
      walk(cast<RepeatStmt>(&S)->getBody());
      return;
    case Stmt::Kind::ExitWhen:
      mix(Tag::ExitWhen);
      walk(*cast<ExitWhenStmt>(&S)->getCond());
      return;
    case Stmt::Kind::Input: {
      const auto *In = cast<InputStmt>(&S);
      mix(Tag::Input);
      mix(In->getTargets().size());
      for (const std::string &T : In->getTargets())
        text(T);
      return;
    }
    case Stmt::Kind::Output: {
      const auto *Out = cast<OutputStmt>(&S);
      mix(Tag::Output);
      mix(Out->getValues().size());
      for (const ExprPtr &V : Out->getValues())
        walk(*V);
      return;
    }
    case Stmt::Kind::Constrain: {
      const auto *C = cast<ConstrainStmt>(&S);
      mix(Tag::Constrain);
      text(C->getTag());
      walk(*C->getPred());
      return;
    }
    case Stmt::Kind::Assert:
      mix(Tag::Assert);
      walk(*cast<AssertStmt>(&S)->getPred());
      return;
    }
  }

  void walk(const StmtList &Stmts) {
    mix(Stmts.size());
    for (const StmtPtr &S : Stmts)
      walk(*S);
  }
};

} // namespace

uint64_t isdl::canonicalFingerprint(const Description &D) {
  return Canonicalizer(D).run();
}

uint64_t isdl::identity(const Description &D) { return IdentityWalk().run(D); }

//===----------------------------------------------------------------------===//
// DescHandle
//===----------------------------------------------------------------------===//

Description DescHandle::take() && {
  assert(P && "take() on an empty handle");
  Description Out = P.use_count() == 1 ? std::move(P->D) : P->D.clone();
  P.reset();
  return Out;
}

uint64_t DescHandle::fingerprint() const {
  assert(P && "fingerprint() on an empty handle");
  std::call_once(P->FpOnce, [this] { P->Fp = canonicalFingerprint(P->D); });
  return P->Fp;
}

uint64_t DescHandle::identity() const {
  assert(P && "identity() on an empty handle");
  std::call_once(P->IdOnce, [this] { P->Id = isdl::identity(P->D); });
  return P->Id;
}

const FeatureVec &DescHandle::features() const {
  assert(P && "features() on an empty handle");
  std::call_once(P->FVOnce, [this] { P->FV = FeatureVec::of(P->D); });
  return P->FV;
}
