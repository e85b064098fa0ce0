//===- LoopTransforms.cpp - Loop manipulation rules -------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "Loop transformations ... especially necessary to manipulate the
/// counting loops for string oriented instructions" (§5). The big three:
///
///  * `record-exit-cause` rewrites a two-exit loop whose post-loop code
///    re-tests the first exit's condition into the flag-discriminated
///    form the 8086 string instructions use (zf tells which exit fired);
///  * `index-to-pointer` strength-reduces base+index string access into
///    the moving-pointer access of real string hardware (di/si);
///  * `rotate-while-to-dowhile` + `shift-counter` reshape a pre-tested
///    counting loop into the post-tested, length-minus-one-encoded loop
///    of the IBM 370 `mvc` (§4.2).
///
/// Every rule documents and checks the conditions under which it is a
/// semantics-preserving rewrite; the analysis driver additionally
/// validates each application differentially.
///
//===----------------------------------------------------------------------===//

#include "transform/RuleHelpers.h"

#include "dataflow/CFG.h"
#include "dataflow/Liveness.h"
#include "isdl/Equiv.h"

using namespace extra;
using namespace extra::transform;
using namespace extra::transform::detail;
using namespace extra::isdl;
using dataflow::EffectSummary;

namespace {

bool intersects(const std::set<std::string> &A,
                const std::set<std::string> &B) {
  for (const std::string &X : A)
    if (B.count(X))
      return true;
  return false;
}

/// Locates the unique repeat loop of \p R together with its owning list,
/// so statements can be placed before/after it.
StmtLocus findLoop(Routine &R, std::string &Reason) {
  bool Several = false;
  StmtLocus Found = findUnique(
      R.Body, [](const Stmt &S) { return isa<RepeatStmt>(&S); }, Several);
  if (!Found.isValid())
    Reason = "routine '" + R.Name + "' contains " +
             (Several ? "more than one" : "no") + " repeat loop";
  return Found;
}

unsigned countExitsIn(const Stmt &S) {
  unsigned N = 0;
  forEachStmt(S, [&](const Stmt &Sub) {
    if (isa<ExitWhenStmt>(&Sub))
      ++N;
  });
  return N;
}

/// Narrow implication check: does asserted predicate \p P imply that
/// variable \p V is nonzero (so `exit_when (V = 0)` cannot fire)?
/// Handles conjunctions of  V >= k (k>=1),  V > k (k>=0),  k <= V,
/// k < V,  and V <> 0.
bool impliesNonZero(const Expr &P, const std::string &V) {
  if (const auto *B = dyn_cast<BinaryExpr>(&P)) {
    if (B->getOp() == BinaryOp::And)
      return impliesNonZero(*B->getLHS(), V) ||
             impliesNonZero(*B->getRHS(), V);
    const auto *L = dyn_cast<VarRef>(B->getLHS());
    const auto *RLit = dyn_cast<IntLit>(B->getRHS());
    if (L && RLit && L->getName() == V) {
      switch (B->getOp()) {
      case BinaryOp::Ge:
        return RLit->getValue() >= 1;
      case BinaryOp::Gt:
        return RLit->getValue() >= 0;
      case BinaryOp::Ne:
        return RLit->getValue() == 0;
      default:
        return false;
      }
    }
    const auto *LLit = dyn_cast<IntLit>(B->getLHS());
    const auto *Rv = dyn_cast<VarRef>(B->getRHS());
    if (LLit && Rv && Rv->getName() == V) {
      switch (B->getOp()) {
      case BinaryOp::Le:
        return LLit->getValue() >= 1;
      case BinaryOp::Lt:
        return LLit->getValue() >= 0;
      default:
        return false;
      }
    }
  }
  return false;
}

/// True when `exit_when (V = 0)` or `exit_when (0 = V)` for variable V;
/// returns the name through \p VOut.
bool isExitOnZero(const Stmt &S, std::string &VOut) {
  const auto *E = dyn_cast<ExitWhenStmt>(&S);
  if (!E)
    return false;
  const auto *B = dyn_cast<BinaryExpr>(E->getCond());
  if (!B || B->getOp() != BinaryOp::Eq)
    return false;
  const auto *L = dyn_cast<VarRef>(B->getLHS());
  const auto *RLit = dyn_cast<IntLit>(B->getRHS());
  if (L && RLit && RLit->getValue() == 0) {
    VOut = L->getName();
    return true;
  }
  return false;
}

/// True when `V <- V - 1`.
bool isDecrement(const Stmt &S, const std::string &V) {
  const auto *A = dyn_cast<AssignStmt>(&S);
  if (!A || A->targetVarName() != V)
    return false;
  const auto *B = dyn_cast<BinaryExpr>(A->getValue());
  if (!B || B->getOp() != BinaryOp::Sub)
    return false;
  const auto *L = dyn_cast<VarRef>(B->getLHS());
  const auto *RLit = dyn_cast<IntLit>(B->getRHS());
  return L && L->getName() == V && RLit && RLit->getValue() == 1;
}

/// True when `V <- V + 1`.
bool isIncrement(const Stmt &S, const std::string &V) {
  const auto *A = dyn_cast<AssignStmt>(&S);
  if (!A || A->targetVarName() != V)
    return false;
  const auto *B = dyn_cast<BinaryExpr>(A->getValue());
  if (!B || B->getOp() != BinaryOp::Add)
    return false;
  const auto *L = dyn_cast<VarRef>(B->getLHS());
  const auto *RLit = dyn_cast<IntLit>(B->getRHS());
  return L && L->getName() == V && RLit && RLit->getValue() == 1;
}

ApplyResult recordExitCause(TransformContext &Ctx) {
  std::string Reason;
  Routine *R = Ctx.routine(Reason);
  if (!R)
    return ApplyResult::failure(Reason);
  std::string Flag = Ctx.arg("flag", Reason);
  if (Flag.empty())
    return ApplyResult::failure(Reason);

  const Decl *FlagDecl = Ctx.Desc.findDecl(Flag);
  if (!FlagDecl || !FlagDecl->Type.isFlag())
    return ApplyResult::failure("'" + Flag +
                                "' is not a declared one-bit flag");
  if (isReferenced(Ctx.Desc, Flag))
    return ApplyResult::failure("flag '" + Flag +
                                "' is already referenced; need a fresh flag");

  StmtLocus LoopLocus = findLoop(*R, Reason);
  if (!LoopLocus.isValid())
    return ApplyResult::failure(Reason);
  auto *Loop = cast<RepeatStmt>(LoopLocus.get());
  StmtList &Body = Loop->getBody();

  if (countExitsIn(*LoopLocus.get()) != 2)
    return ApplyResult::failure("loop must contain exactly two exit_when "
                                "statements");
  if (Body.empty() || !isa<ExitWhenStmt>(Body.front().get()))
    return ApplyResult::failure("first statement of the loop body must be "
                                "the primary exit_when");
  auto *FirstExit = cast<ExitWhenStmt>(Body.front().get());
  if (hasCallOrMem(*FirstExit->getCond()))
    return ApplyResult::failure("primary exit condition must be pure");

  size_t SecondIdx = 0;
  for (size_t I = 1; I < Body.size(); ++I)
    if (isa<ExitWhenStmt>(Body[I].get())) {
      SecondIdx = I;
      break;
    }
  if (SecondIdx == 0)
    return ApplyResult::failure("secondary exit_when must be a top-level "
                                "statement of the loop body");

  // Statements between the two exits must not disturb the primary
  // condition (so its value at the secondary exit is still false).
  std::set<std::string> CondReads;
  dataflow::collectExprEffects(Ctx.Desc, *FirstExit->getCond(), CondReads,
                               nullptr);
  for (size_t I = 1; I < SecondIdx; ++I) {
    EffectSummary Eff = dataflow::summarizeStmt(Ctx.Desc, *Body[I]);
    if (intersects(Eff.Writes, CondReads))
      return ApplyResult::failure(
          "statement between the exits writes a variable of the primary "
          "exit condition");
  }

  // The statement following the loop must re-test the primary condition.
  StmtList &Outer = *LoopLocus.List;
  size_t LoopIdx = LoopLocus.Index;
  if (LoopIdx + 1 >= Outer.size() || !isa<IfStmt>(Outer[LoopIdx + 1].get()))
    return ApplyResult::failure("loop must be followed by an if statement "
                                "re-testing the primary exit condition");
  auto *PostIf = cast<IfStmt>(Outer[LoopIdx + 1].get());
  if (!exactEqual(*PostIf->getCond(), *FirstExit->getCond()))
    return ApplyResult::failure("post-loop if condition differs from the "
                                "primary exit condition");

  // Rewrite. 1) flag <- 0 before the loop.
  Outer.insert(Outer.begin() + static_cast<long>(LoopIdx),
               assign(Flag, intLit(0)));
  // (the loop moved one slot later; PostIf pointer is unaffected)

  // 2) secondary `exit_when (C)` becomes `if C then f<-1 else f<-0;
  //    exit_when (f)`.
  auto *SecondExit = cast<ExitWhenStmt>(Body[SecondIdx].get());
  ExprPtr C = SecondExit->takeCond();
  StmtList Then, Else;
  Then.push_back(assign(Flag, intLit(1)));
  Else.push_back(assign(Flag, intLit(0)));
  StmtPtr FlagIf = ifStmt(std::move(C), std::move(Then), std::move(Else));
  Body[SecondIdx] = exitWhen(varRef(Flag));
  Body.insert(Body.begin() + static_cast<long>(SecondIdx), std::move(FlagIf));

  // 3) post-loop discriminator: `if D then A else B` -> `if f then B
  //    else A` (f set exactly when the secondary exit fired).
  StmtList NewThen = std::move(PostIf->getElse());
  StmtList NewElse = std::move(PostIf->getThen());
  PostIf->setCond(varRef(Flag));
  PostIf->getThen() = std::move(NewThen);
  PostIf->getElse() = std::move(NewElse);

  return ApplyResult::success(SemanticsEffect::Preserving,
                              "loop exit cause recorded in flag '" + Flag +
                                  "'");
}

ApplyResult indexToPointer(TransformContext &Ctx) {
  std::string Reason;
  Routine *Entry = Ctx.routine(Reason);
  if (!Entry)
    return ApplyResult::failure(Reason);
  std::string IVar = Ctx.arg("index-var", Reason);
  std::string BVar = Ctx.arg("base-var", Reason);
  std::string PVar = Ctx.arg("pointer-var", Reason);
  if (IVar.empty() || BVar.empty() || PVar.empty())
    return ApplyResult::failure(Reason);

  Description &D = Ctx.Desc;
  const Decl *BDecl = D.findDecl(BVar);
  if (!BDecl)
    return ApplyResult::failure("base '" + BVar + "' is not declared");
  if (D.findDecl(PVar) || D.findRoutine(PVar) || isReferenced(D, PVar))
    return ApplyResult::failure("pointer name '" + PVar + "' is not fresh");

  // Base must be written exactly once — by the entry input statement.
  if (countWrites(D, BVar) != 1)
    return ApplyResult::failure("base '" + BVar +
                                "' must be written only by input");
  std::vector<std::string> *InputTargets = nullptr;
  for (StmtPtr &S : Entry->Body)
    if (auto *In = dyn_cast<InputStmt>(S.get()))
      for (std::string &T : In->getTargets())
        if (T == BVar)
          InputTargets = &In->getTargets();
  if (!InputTargets)
    return ApplyResult::failure("base '" + BVar +
                                "' is not an entry input operand");

  // Index: exactly two writes, `I <- 0` at entry top level and one
  // `I <- I + 1` anywhere.
  if (countWrites(D, IVar) != 2)
    return ApplyResult::failure("index '" + IVar +
                                "' must be written exactly twice (zero "
                                "initialization and one increment)");
  size_t ZeroInitIdx = Entry->Body.size();
  for (size_t I = 0; I < Entry->Body.size(); ++I) {
    const auto *A = dyn_cast<AssignStmt>(Entry->Body[I].get());
    if (A && A->targetVarName() == IVar) {
      const auto *Lit = dyn_cast<IntLit>(A->getValue());
      if (Lit && Lit->getValue() == 0)
        ZeroInitIdx = I;
    }
  }
  if (ZeroInitIdx == Entry->Body.size())
    return ApplyResult::failure("index '" + IVar +
                                "' has no top-level `" + IVar +
                                " <- 0` in the entry routine");
  // No statement before the zero-init may read the index or call a
  // routine (which could read it indirectly).
  for (size_t I = 0; I < ZeroInitIdx; ++I) {
    EffectSummary Eff = dataflow::summarizeStmt(D, *Entry->Body[I]);
    if (Eff.Reads.count(IVar))
      return ApplyResult::failure("index '" + IVar +
                                  "' is read before its zero initialization");
  }

  // Find the unique increment across all routines.
  Stmt *Increment = nullptr;
  for (Routine *Rt : D.routines())
    forEachStmt(Rt->Body, [&](const Stmt &S) {
      if (isIncrement(S, IVar))
        Increment = const_cast<Stmt *>(&S);
    });
  if (!Increment)
    return ApplyResult::failure("index '" + IVar + "' has no `" + IVar +
                                " <- " + IVar + " + 1` increment");

  // Declare the pointer with the base's type, next to the base.
  for (Section &Sec : D.getSections())
    for (size_t I = 0; I < Sec.Items.size(); ++I)
      if (Sec.Items[I].K == SectionItem::Kind::Decl &&
          Sec.Items[I].D.Name == BVar) {
        Decl P;
        P.Name = PVar;
        P.Type = BDecl->Type;
        P.Comment = "moving pointer for " + BVar + "+" + IVar;
        Sec.Items.insert(Sec.Items.begin() + static_cast<long>(I) + 1,
                         SectionItem::decl(std::move(P)));
      }

  // Rewrites, in dependency order:
  // a) the increment becomes `P <- P + 1`;
  {
    auto *A = cast<AssignStmt>(Increment);
    A->setTarget(varRef(PVar));
    A->setValue(binary(BinaryOp::Add, varRef(PVar), intLit(1)));
  }
  // b) every `Mb[B + I]` / `Mb[I + B]` address becomes `Mb[P]` (first
  //    pass, before the leaf rewrite below can disturb the pattern), and
  //    any other read of I becomes `P - B` (the induction invariant
  //    I = P - B);
  auto RewriteMem = [&](ExprPtr &Slot) {
    auto *M = dyn_cast<MemRef>(Slot.get());
    if (!M)
      return;
    const auto *Add = dyn_cast<BinaryExpr>(M->getAddress());
    if (!Add || Add->getOp() != BinaryOp::Add)
      return;
    const auto *L = dyn_cast<VarRef>(Add->getLHS());
    const auto *Rv = dyn_cast<VarRef>(Add->getRHS());
    bool Matches =
        (L && Rv) &&
        ((L->getName() == BVar && Rv->getName() == IVar) ||
         (L->getName() == IVar && Rv->getName() == BVar));
    if (Matches)
      M->setAddress(varRef(PVar));
  };
  auto RewriteLeaf = [&](ExprPtr &Slot) {
    if (auto *V = dyn_cast<VarRef>(Slot.get()))
      if (V->getName() == IVar)
        Slot = binary(BinaryOp::Sub, varRef(PVar), varRef(BVar));
  };
  // Assignment targets `Mb[B + I] <- ...` are not expression slots; apply
  // the memory-pattern rewrite to them directly.
  auto RewriteStoreTarget = [&](Stmt &S) {
    auto *A = dyn_cast<AssignStmt>(&S);
    if (!A)
      return;
    auto *M = dyn_cast<MemRef>(A->getTarget());
    if (!M)
      return;
    const auto *Add = dyn_cast<BinaryExpr>(M->getAddress());
    if (!Add || Add->getOp() != BinaryOp::Add)
      return;
    const auto *L = dyn_cast<VarRef>(Add->getLHS());
    const auto *Rv = dyn_cast<VarRef>(Add->getRHS());
    bool Matches =
        (L && Rv) &&
        ((L->getName() == BVar && Rv->getName() == IVar) ||
         (L->getName() == IVar && Rv->getName() == BVar));
    if (Matches)
      M->setAddress(varRef(PVar));
  };
  for (Routine *Rt : D.routines())
    for (StmtPtr &S : Rt->Body) {
      forEachStmt(*S, [&](const Stmt &Sub) {
        RewriteStoreTarget(const_cast<Stmt &>(Sub));
      });
      forEachExprSlot(*S, RewriteMem);
    }
  for (Routine *Rt : D.routines())
    for (StmtPtr &S : Rt->Body)
      forEachExprSlot(*S, RewriteLeaf);
  // c) the zero-init is deleted (the invariant holds with P = B there);
  Entry->Body.erase(Entry->Body.begin() + static_cast<long>(ZeroInitIdx));
  // d) the input operand B becomes P, and `B <- P` is inserted directly
  //    after the input statement to preserve the base for index
  //    reconstruction.
  for (std::string &T : *InputTargets)
    if (T == BVar)
      T = PVar;
  for (size_t I = 0; I < Entry->Body.size(); ++I)
    if (isa<InputStmt>(Entry->Body[I].get())) {
      Entry->Body.insert(Entry->Body.begin() + static_cast<long>(I) + 1,
                         assign(BVar, varRef(PVar)));
      break;
    }
  // Remaining reads of I were rewritten in step (b); I's declaration is
  // now unused and removable by dead-decl-elim.

  return ApplyResult::success(SemanticsEffect::Preserving,
                              "reduced " + BVar + "+" + IVar +
                                  " indexing to pointer '" + PVar + "'");
}

ApplyResult rotateWhileToDoWhile(TransformContext &Ctx) {
  std::string Reason;
  Routine *R = Ctx.routine(Reason);
  if (!R)
    return ApplyResult::failure(Reason);

  StmtLocus LoopLocus = findLoop(*R, Reason);
  if (!LoopLocus.isValid())
    return ApplyResult::failure(Reason);
  auto *Loop = cast<RepeatStmt>(LoopLocus.get());
  StmtList &Body = Loop->getBody();

  std::string V;
  if (Body.empty() || !isExitOnZero(*Body.front(), V))
    return ApplyResult::failure("loop body must begin with `exit_when "
                                "(v = 0)`");

  // A dominating assert immediately before the loop must rule out v = 0
  // on entry.
  StmtList &Outer = *LoopLocus.List;
  size_t LoopIdx = LoopLocus.Index;
  bool Justified = false;
  if (LoopIdx > 0) {
    if (const auto *A = dyn_cast<AssertStmt>(Outer[LoopIdx - 1].get()))
      Justified = impliesNonZero(*A->getPred(), V);
  }
  if (!Justified)
    return ApplyResult::failure(
        "no `assert` immediately before the loop implies " + V +
        " <> 0 on entry; the first test cannot be removed");

  StmtPtr Exit = std::move(Body.front());
  Body.erase(Body.begin());
  Body.push_back(std::move(Exit));
  return ApplyResult::success(SemanticsEffect::Preserving,
                              "rotated pre-tested loop into post-tested "
                              "form (first test discharged by assert)");
}

ApplyResult shiftCounter(TransformContext &Ctx) {
  std::string Reason;
  Routine *R = Ctx.routine(Reason);
  if (!R)
    return ApplyResult::failure(Reason);
  std::string V = Ctx.arg("old-var", Reason);
  std::string W = Ctx.arg("new-var", Reason);
  if (V.empty() || W.empty())
    return ApplyResult::failure(Reason);

  Description &D = Ctx.Desc;
  StmtLocus LoopLocus = findLoop(*R, Reason);
  if (!LoopLocus.isValid())
    return ApplyResult::failure(Reason);
  auto *Loop = cast<RepeatStmt>(LoopLocus.get());
  StmtList &Body = Loop->getBody();

  // Loop must end [..., v <- v - 1, exit_when (v = 0)].
  std::string ExitVar;
  if (Body.size() < 2 || !isExitOnZero(*Body.back(), ExitVar) ||
      ExitVar != V || !isDecrement(*Body[Body.size() - 2], V))
    return ApplyResult::failure("loop must end with `" + V + " <- " + V +
                                " - 1; exit_when (" + V + " = 0)`");

  // Initialization `v <- w + 1` at entry top level, before the loop.
  StmtList &Outer = *LoopLocus.List;
  size_t LoopIdx = LoopLocus.Index;
  size_t InitIdx = Outer.size();
  for (size_t I = 0; I < LoopIdx && I < Outer.size(); ++I) {
    const auto *A = dyn_cast<AssignStmt>(Outer[I].get());
    if (!A || A->targetVarName() != V)
      continue;
    const auto *B = dyn_cast<BinaryExpr>(A->getValue());
    if (!B || B->getOp() != BinaryOp::Add)
      continue;
    const auto *L = dyn_cast<VarRef>(B->getLHS());
    const auto *RLit = dyn_cast<IntLit>(B->getRHS());
    if (L && L->getName() == W && RLit && RLit->getValue() == 1)
      InitIdx = I;
  }
  if (InitIdx == Outer.size())
    return ApplyResult::failure("no `" + V + " <- " + W +
                                " + 1` initialization before the loop");

  // v must have exactly those two writes and no other reads; w must be
  // written only by input and be unread outside the init.
  if (countWrites(D, V) != 2)
    return ApplyResult::failure("'" + V + "' is written elsewhere");
  if (countWrites(D, W) != 1)
    return ApplyResult::failure("'" + W + "' must be written only by input");
  unsigned VReads = countReads(D, V);
  unsigned WReads = countReads(D, W);
  // v reads: decrement RHS + exit test. (The init writes v, reads w.)
  if (VReads != 2)
    return ApplyResult::failure("'" + V + "' is read outside the loop "
                                "counter pattern");
  if (WReads != 1)
    return ApplyResult::failure("'" + W + "' is read outside the "
                                "initialization");

  // Rewrite: drop the init; loop tail becomes
  //   exit_when (w = 0); w <- w - 1;
  Outer.erase(Outer.begin() + static_cast<long>(InitIdx));
  Body.pop_back();
  Body.pop_back();
  Body.push_back(exitWhen(binary(BinaryOp::Eq, varRef(W), intLit(0))));
  Body.push_back(assign(W, binary(BinaryOp::Sub, varRef(W), intLit(1))));

  return ApplyResult::success(SemanticsEffect::Preserving,
                              "shifted loop counter from '" + V + "' to '" +
                                  W + "' (one-less encoding)");
}

ApplyResult countUpToDown(TransformContext &Ctx) {
  std::string Reason;
  Routine *R = Ctx.routine(Reason);
  if (!R)
    return ApplyResult::failure(Reason);
  std::string I = Ctx.arg("index-var", Reason);
  std::string N = Ctx.arg("bound-var", Reason);
  std::string C = Ctx.arg("counter-var", Reason);
  if (I.empty() || N.empty() || C.empty())
    return ApplyResult::failure(Reason);

  Description &D = Ctx.Desc;
  bool ReuseBound = C == N;
  if (!ReuseBound && (D.findDecl(C) || isReferenced(D, C)))
    return ApplyResult::failure("counter name '" + C + "' is not fresh");
  const Decl *NDecl = D.findDecl(N);
  if (!NDecl)
    return ApplyResult::failure("bound '" + N + "' is not declared");
  TypeRef NType = NDecl->Type;

  StmtLocus LoopLocus = findLoop(*R, Reason);
  if (!LoopLocus.isValid())
    return ApplyResult::failure(Reason);
  auto *Loop = cast<RepeatStmt>(LoopLocus.get());
  StmtList &Body = Loop->getBody();

  // Pattern: [exit_when (i = n); BODY...; i <- i + 1] and `i <- 0` before
  // the loop, with i referenced nowhere else and n loop-invariant.
  const auto *Exit0 = Body.empty() ? nullptr
                                   : dyn_cast<ExitWhenStmt>(Body.front().get());
  if (!Exit0)
    return ApplyResult::failure("loop must begin with `exit_when (" + I +
                                " = " + N + ")`");
  const auto *Cmp = dyn_cast<BinaryExpr>(Exit0->getCond());
  bool HeadOk = false;
  if (Cmp && Cmp->getOp() == BinaryOp::Eq) {
    const auto *L = dyn_cast<VarRef>(Cmp->getLHS());
    const auto *Rv = dyn_cast<VarRef>(Cmp->getRHS());
    HeadOk = L && Rv && L->getName() == I && Rv->getName() == N;
  }
  if (!HeadOk)
    return ApplyResult::failure("loop must begin with `exit_when (" + I +
                                " = " + N + ")`");
  if (Body.size() < 2 || !isIncrement(*Body.back(), I))
    return ApplyResult::failure("loop must end with `" + I + " <- " + I +
                                " + 1`");

  StmtList &Outer = *LoopLocus.List;
  size_t LoopIdx = LoopLocus.Index;
  size_t InitIdx = Outer.size();
  for (size_t K = 0; K < LoopIdx; ++K) {
    const auto *A = dyn_cast<AssignStmt>(Outer[K].get());
    if (A && A->targetVarName() == I) {
      const auto *Lit = dyn_cast<IntLit>(A->getValue());
      if (Lit && Lit->getValue() == 0)
        InitIdx = K;
    }
  }
  if (InitIdx == Outer.size())
    return ApplyResult::failure("no `" + I + " <- 0` before the loop");

  if (countWrites(D, I) != 2)
    return ApplyResult::failure("'" + I + "' is written elsewhere");
  unsigned IReads = countReads(D, I);
  if (IReads != 2) // exit test + increment RHS
    return ApplyResult::failure("'" + I + "' is read by the loop body; "
                                "convert indexing to pointers first");
  if (countWrites(D, N) != 1)
    return ApplyResult::failure("bound '" + N + "' must be loop-invariant "
                                "(written only by input)");
  if (countReads(D, N) != 1)
    return ApplyResult::failure("bound '" + N + "' must be read only by "
                                "the loop head test");
  // i must not be read after the loop (its final value i = n has no new
  // home); i is unread elsewhere (checked above). n is never written, so
  // later reads of n are unaffected — but be conservative and require n
  // dead on the exit edge as well.
  {
    dataflow::CFG G = dataflow::CFG::build(D, *R);
    dataflow::Liveness L(G);
    if (L.liveOnExit(Exit0, N))
      return ApplyResult::failure("bound '" + N + "' is read after the loop");
  }

  if (ReuseBound) {
    // In-place reuse: the bound itself becomes the down counter (it is
    // dead after the loop, so destroying its value is unobservable).
    // `i <- 0` disappears; head exit tests n = 0; the tail increment
    // becomes `n <- n - 1`.
    Outer.erase(Outer.begin() + static_cast<long>(InitIdx));
    cast<ExitWhenStmt>(Body.front().get())
        ->setCond(binary(BinaryOp::Eq, varRef(N), intLit(0)));
    Body.back() = assign(N, binary(BinaryOp::Sub, varRef(N), intLit(1)));
    return ApplyResult::success(SemanticsEffect::Preserving,
                                "converted up-counting loop over '" + I +
                                    "' to count '" + N + "' down in place");
  }

  // Declare c like n.
  for (Section &Sec : D.getSections())
    for (size_t K = 0; K < Sec.Items.size(); ++K)
      if (Sec.Items[K].K == SectionItem::Kind::Decl &&
          Sec.Items[K].D.Name == N) {
        Decl CD;
        CD.Name = C;
        CD.Type = NType;
        CD.Comment = "down counter replacing " + I + "/" + N;
        Sec.Items.insert(Sec.Items.begin() + static_cast<long>(K) + 1,
                         SectionItem::decl(std::move(CD)));
      }

  // Rewrite: `i <- 0` becomes `c <- n`; head exit tests c = 0; tail
  // increment becomes `c <- c - 1`.
  Outer[InitIdx] = assign(C, varRef(N));
  cast<ExitWhenStmt>(Body.front().get())
      ->setCond(binary(BinaryOp::Eq, varRef(C), intLit(0)));
  Body.back() = assign(C, binary(BinaryOp::Sub, varRef(C), intLit(1)));

  return ApplyResult::success(SemanticsEffect::Preserving,
                              "converted up-counting loop over '" + I +
                                  "' to down counter '" + C + "'");
}

} // namespace

void transform::registerLoopTransforms(Registry &R) {
  R.add(std::make_unique<StmtRule>(
      "split-exit-disjunction", Category::Loop,
      "exit_when (a or b) -> exit_when (a); exit_when (b)  (b pure)",
      [](const Stmt &S, const Description &) {
        const auto *E = dyn_cast<ExitWhenStmt>(&S);
        if (!E)
          return false;
        const auto *B = dyn_cast<BinaryExpr>(E->getCond());
        return B && B->getOp() == BinaryOp::Or && isPure(*B->getRHS());
      },
      [](StmtPtr S, const Description &) {
        auto *E = cast<ExitWhenStmt>(S.get());
        ExprPtr Cond = E->takeCond();
        auto *B = cast<BinaryExpr>(Cond.get());
        StmtList Out;
        Out.push_back(exitWhen(B->takeLHS()));
        Out.push_back(exitWhen(B->takeRHS()));
        return Out;
      }));

  R.add(std::make_unique<LambdaRule>(
      "merge-exits", Category::Loop,
      "exit_when (a); exit_when (b) -> exit_when (a or b)  (b pure)",
      [](TransformContext &Ctx) {
        std::string Reason;
        Routine *R = Ctx.routine(Reason);
        if (!R)
          return ApplyResult::failure(Reason);
        bool Done = !walkStmts(R->Body, [](StmtSite &Site) {
          StmtList &List = Site.List;
          size_t I = Site.Index;
          auto *A = dyn_cast<ExitWhenStmt>(List[I].get());
          auto *B = I + 1 < List.size()
                        ? dyn_cast<ExitWhenStmt>(List[I + 1].get())
                        : nullptr;
          if (!A || !B || !isPure(*B->getCond()))
            return Walk::Continue;
          A->setCond(binary(BinaryOp::Or, A->takeCond(), B->takeCond()));
          List.erase(List.begin() + static_cast<long>(I) + 1);
          return Walk::Stop;
        });
        if (!Done)
          return ApplyResult::failure("no adjacent exit_when pair with a "
                                      "pure second condition");
        return ApplyResult::success(SemanticsEffect::Preserving,
                                    "merged adjacent exits");
      }));

  R.add(std::make_unique<LambdaRule>(
      "record-exit-cause", Category::Loop,
      "discriminate a two-exit loop through a fresh flag; the post-loop "
      "re-test of the primary condition becomes a flag test (the zf idiom "
      "of the 8086 string instructions)",
      recordExitCause));

  R.add(std::make_unique<LambdaRule>(
      "index-to-pointer", Category::Loop,
      "strength-reduce base+index string access to a moving pointer "
      "(args: index-var, base-var, pointer-var)",
      indexToPointer));

  R.add(std::make_unique<LambdaRule>(
      "rotate-while-to-dowhile", Category::Loop,
      "move a leading `exit_when (v = 0)` to the end of the loop; an "
      "assert before the loop must rule out v = 0 on entry",
      rotateWhileToDoWhile));

  R.add(std::make_unique<LambdaRule>(
      "shift-counter", Category::Loop,
      "replace counter v (initialized w + 1, post-decrement tested) by w "
      "directly — the mvc length-minus-one loop shape (args: old-var, "
      "new-var)",
      shiftCounter));

  R.add(std::make_unique<LambdaRule>(
      "count-up-to-down", Category::Loop,
      "turn `i <- 0 ... exit_when (i = n) ... i <- i + 1` into a fresh "
      "down counter `c <- n ... exit_when (c = 0) ... c <- c - 1` "
      "(args: index-var, bound-var, counter-var)",
      countUpToDown));
}
