//===- Traverse.cpp - AST walking and rewriting helpers ---------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "isdl/Traverse.h"

using namespace extra;
using namespace extra::isdl;

void isdl::forEachExpr(const Expr &E,
                       const std::function<void(const Expr &)> &Fn) {
  Fn(E);
  switch (E.getKind()) {
  case Expr::Kind::MemRef:
    forEachExpr(*cast<MemRef>(&E)->getAddress(), Fn);
    break;
  case Expr::Kind::Unary:
    forEachExpr(*cast<UnaryExpr>(&E)->getOperand(), Fn);
    break;
  case Expr::Kind::Binary:
    forEachExpr(*cast<BinaryExpr>(&E)->getLHS(), Fn);
    forEachExpr(*cast<BinaryExpr>(&E)->getRHS(), Fn);
    break;
  default:
    break;
  }
}

void isdl::forEachExpr(const Stmt &S,
                       const std::function<void(const Expr &)> &Fn) {
  switch (S.getKind()) {
  case Stmt::Kind::Assign: {
    const auto *A = cast<AssignStmt>(&S);
    forEachExpr(*A->getTarget(), Fn);
    forEachExpr(*A->getValue(), Fn);
    break;
  }
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(&S);
    forEachExpr(*I->getCond(), Fn);
    forEachExpr(I->getThen(), Fn);
    forEachExpr(I->getElse(), Fn);
    break;
  }
  case Stmt::Kind::Repeat:
    forEachExpr(cast<RepeatStmt>(&S)->getBody(), Fn);
    break;
  case Stmt::Kind::ExitWhen:
    forEachExpr(*cast<ExitWhenStmt>(&S)->getCond(), Fn);
    break;
  case Stmt::Kind::Input:
    break;
  case Stmt::Kind::Output:
    for (const ExprPtr &V : cast<OutputStmt>(&S)->getValues())
      forEachExpr(*V, Fn);
    break;
  case Stmt::Kind::Constrain:
    forEachExpr(*cast<ConstrainStmt>(&S)->getPred(), Fn);
    break;
  case Stmt::Kind::Assert:
    forEachExpr(*cast<AssertStmt>(&S)->getPred(), Fn);
    break;
  }
}

void isdl::forEachExpr(const StmtList &Stmts,
                       const std::function<void(const Expr &)> &Fn) {
  for (const StmtPtr &S : Stmts)
    forEachExpr(*S, Fn);
}

void isdl::forEachStmt(const Stmt &S,
                       const std::function<void(const Stmt &)> &Fn) {
  Fn(S);
  switch (S.getKind()) {
  case Stmt::Kind::If:
    forEachStmt(cast<IfStmt>(&S)->getThen(), Fn);
    forEachStmt(cast<IfStmt>(&S)->getElse(), Fn);
    break;
  case Stmt::Kind::Repeat:
    forEachStmt(cast<RepeatStmt>(&S)->getBody(), Fn);
    break;
  default:
    break;
  }
}

void isdl::forEachStmt(const StmtList &Stmts,
                       const std::function<void(const Stmt &)> &Fn) {
  for (const StmtPtr &S : Stmts)
    forEachStmt(*S, Fn);
}

void isdl::forEachExprSlot(ExprPtr &Slot,
                           const std::function<void(ExprPtr &)> &Fn) {
  assert(Slot && "null expression slot");
  switch (Slot->getKind()) {
  case Expr::Kind::MemRef: {
    auto *M = cast<MemRef>(Slot.get());
    ExprPtr Addr = M->takeAddress();
    forEachExprSlot(Addr, Fn);
    M->setAddress(std::move(Addr));
    break;
  }
  case Expr::Kind::Unary: {
    auto *U = cast<UnaryExpr>(Slot.get());
    ExprPtr Op = U->takeOperand();
    forEachExprSlot(Op, Fn);
    U->setOperand(std::move(Op));
    break;
  }
  case Expr::Kind::Binary: {
    auto *B = cast<BinaryExpr>(Slot.get());
    ExprPtr L = B->takeLHS();
    forEachExprSlot(L, Fn);
    B->setLHS(std::move(L));
    ExprPtr R = B->takeRHS();
    forEachExprSlot(R, Fn);
    B->setRHS(std::move(R));
    break;
  }
  default:
    break;
  }
  Fn(Slot);
}

void isdl::forEachOwnExprSlot(Stmt &S,
                              const std::function<void(ExprPtr &)> &Fn) {
  switch (S.getKind()) {
  case Stmt::Kind::Assign: {
    auto *A = cast<AssignStmt>(&S);
    // The target slot is visited too; callers must preserve the VarRef/
    // MemRef invariant when rewriting it.
    if (auto *M = dyn_cast<MemRef>(A->getTarget())) {
      ExprPtr Addr = M->takeAddress();
      forEachExprSlot(Addr, Fn);
      M->setAddress(std::move(Addr));
    }
    ExprPtr V = A->takeValue();
    forEachExprSlot(V, Fn);
    A->setValue(std::move(V));
    break;
  }
  case Stmt::Kind::If: {
    auto *I = cast<IfStmt>(&S);
    ExprPtr C = I->takeCond();
    forEachExprSlot(C, Fn);
    I->setCond(std::move(C));
    break;
  }
  case Stmt::Kind::ExitWhen: {
    auto *E = cast<ExitWhenStmt>(&S);
    ExprPtr C = E->takeCond();
    forEachExprSlot(C, Fn);
    E->setCond(std::move(C));
    break;
  }
  case Stmt::Kind::Output:
    for (ExprPtr &V : cast<OutputStmt>(&S)->getValues())
      forEachExprSlot(V, Fn);
    break;
  case Stmt::Kind::Repeat:
  case Stmt::Kind::Input:
    break;
  case Stmt::Kind::Constrain:
  case Stmt::Kind::Assert:
    // Constraint/assertion predicates describe operand conditions; they are
    // rewritten only by dedicated constraint transformations.
    break;
  }
}

void isdl::forEachExprSlot(Stmt &S, const std::function<void(ExprPtr &)> &Fn) {
  forEachOwnExprSlot(S, Fn);
  if (auto *I = dyn_cast<IfStmt>(&S)) {
    forEachExprSlot(I->getThen(), Fn);
    forEachExprSlot(I->getElse(), Fn);
  } else if (auto *R = dyn_cast<RepeatStmt>(&S)) {
    forEachExprSlot(R->getBody(), Fn);
  }
}

void isdl::forEachExprSlot(StmtList &Stmts,
                           const std::function<void(ExprPtr &)> &Fn) {
  for (StmtPtr &S : Stmts)
    forEachExprSlot(*S, Fn);
}

bool isdl::mentionsVar(const Expr &E, const std::string &Name) {
  bool Found = false;
  forEachExpr(E, [&](const Expr &Sub) {
    if (const auto *V = dyn_cast<VarRef>(&Sub))
      if (V->getName() == Name)
        Found = true;
  });
  return Found;
}

bool isdl::mentionsVar(const Stmt &S, const std::string &Name) {
  bool Found = false;
  forEachExpr(S, [&](const Expr &Sub) {
    if (const auto *V = dyn_cast<VarRef>(&Sub))
      if (V->getName() == Name)
        Found = true;
  });
  if (const auto *In = dyn_cast<InputStmt>(&S))
    for (const std::string &T : In->getTargets())
      if (T == Name)
        Found = true;
  return Found;
}

bool isdl::hasCallOrMem(const Expr &E) {
  bool Found = false;
  forEachExpr(E, [&](const Expr &Sub) {
    if (isa<CallExpr>(&Sub) || isa<MemRef>(&Sub))
      Found = true;
  });
  return Found;
}

std::set<std::string> isdl::referencedVars(const Stmt &S) {
  std::set<std::string> Out;
  forEachExpr(S, [&](const Expr &Sub) {
    if (const auto *V = dyn_cast<VarRef>(&Sub))
      Out.insert(V->getName());
  });
  forEachStmt(S, [&](const Stmt &Sub) {
    if (const auto *In = dyn_cast<InputStmt>(&Sub))
      for (const std::string &T : In->getTargets())
        Out.insert(T);
  });
  return Out;
}

std::set<std::string> isdl::referencedVars(const StmtList &Stmts) {
  std::set<std::string> Out;
  for (const StmtPtr &S : Stmts) {
    std::set<std::string> Sub = referencedVars(*S);
    Out.insert(Sub.begin(), Sub.end());
  }
  return Out;
}

std::set<std::string> isdl::calledRoutines(const StmtList &Stmts) {
  std::set<std::string> Out;
  forEachExpr(Stmts, [&](const Expr &Sub) {
    if (const auto *C = dyn_cast<CallExpr>(&Sub))
      Out.insert(C->getCallee());
  });
  return Out;
}

void isdl::renameVar(Stmt &S, const std::string &From, const std::string &To) {
  forEachExprSlot(S, [&](ExprPtr &Slot) {
    if (auto *V = dyn_cast<VarRef>(Slot.get()))
      if (V->getName() == From)
        V->setName(To);
  });
  // Assignment targets that are plain VarRefs are not visited as slots;
  // handle them, input lists, and annotation predicates (which the slot
  // walker deliberately skips) explicitly — a rename must reach every
  // mention of the name.
  std::function<void(Expr &)> RenameIn = [&](Expr &E) {
    forEachExpr(E, [&](const Expr &Sub) {
      if (const auto *V = dyn_cast<VarRef>(&Sub))
        if (V->getName() == From)
          const_cast<VarRef *>(V)->setName(To);
    });
  };
  forEachStmt(S, [&](const Stmt &Sub) {
    auto &MutSub = const_cast<Stmt &>(Sub);
    if (auto *A = dyn_cast<AssignStmt>(&MutSub)) {
      if (auto *V = dyn_cast<VarRef>(A->getTarget()))
        if (V->getName() == From)
          V->setName(To);
    } else if (auto *In = dyn_cast<InputStmt>(&MutSub)) {
      for (std::string &T : In->getTargets())
        if (T == From)
          T = To;
    } else if (auto *As = dyn_cast<AssertStmt>(&MutSub)) {
      RenameIn(*As->getPred());
    } else if (auto *C = dyn_cast<ConstrainStmt>(&MutSub)) {
      RenameIn(*C->getPred());
    }
  });
}

void isdl::renameVar(StmtList &Stmts, const std::string &From,
                     const std::string &To) {
  for (StmtPtr &S : Stmts)
    renameVar(*S, From, To);
}

void isdl::renameCall(StmtList &Stmts, const std::string &From,
                      const std::string &To) {
  forEachExprSlot(Stmts, [&](ExprPtr &Slot) {
    if (auto *C = dyn_cast<CallExpr>(Slot.get()))
      if (C->getCallee() == From)
        C->setCallee(To);
  });
}

StmtLocus isdl::resolvePath(StmtList &Body, const StmtPath &Path) {
  StmtList *List = &Body;
  StmtLocus Out;
  for (size_t I = 0; I < Path.size(); ++I) {
    unsigned Index = Path[I];
    if (Index >= List->size())
      return StmtLocus();
    Out.List = List;
    Out.Index = Index;
    if (I + 1 == Path.size())
      return Out;
    Stmt *S = (*List)[Index].get();
    if (auto *If = dyn_cast<IfStmt>(S)) {
      ++I;
      if (I >= Path.size())
        return StmtLocus();
      unsigned Arm = Path[I];
      if (Arm == 0)
        List = &If->getThen();
      else if (Arm == 1)
        List = &If->getElse();
      else
        return StmtLocus();
    } else if (auto *Rep = dyn_cast<RepeatStmt>(S)) {
      List = &Rep->getBody();
    } else {
      return StmtLocus();
    }
  }
  return StmtLocus();
}
