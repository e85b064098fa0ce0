//===- RoutineTransforms.cpp - Routine structuring rules --------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "Routine structuring transformations which change how a description is
/// structured into different routines. For instance, a routine with
/// several calls may be changed into several routines each with a single
/// call" (§5). Also the alpha-renaming rules that tidy a description
/// toward its partner's vocabulary without affecting the name-insensitive
/// common-form check.
///
//===----------------------------------------------------------------------===//

#include "transform/RuleHelpers.h"

#include "isdl/Equiv.h"

using namespace extra;
using namespace extra::transform;
using namespace extra::transform::detail;
using namespace extra::isdl;

namespace {

/// Walks the expressions of \p S in interpreter evaluation order and
/// reports whether the first impure node (call or memory access) is a
/// call of \p Callee.
bool firstImpureIsCall(const Stmt &S, const std::string &Callee) {
  bool Decided = false, Result = false;
  std::function<void(const Expr &)> Visit = [&](const Expr &E) {
    if (Decided)
      return;
    switch (E.getKind()) {
    case Expr::Kind::Call:
      Decided = true;
      Result = cast<CallExpr>(&E)->getCallee() == Callee;
      return;
    case Expr::Kind::MemRef:
      Visit(*cast<MemRef>(&E)->getAddress());
      if (Decided)
        return;
      Decided = true;
      Result = false;
      return;
    case Expr::Kind::Unary:
      Visit(*cast<UnaryExpr>(&E)->getOperand());
      return;
    case Expr::Kind::Binary:
      Visit(*cast<BinaryExpr>(&E)->getLHS());
      if (!Decided)
        Visit(*cast<BinaryExpr>(&E)->getRHS());
      return;
    default:
      return;
    }
  };
  switch (S.getKind()) {
  case Stmt::Kind::Assign: {
    const auto *A = cast<AssignStmt>(&S);
    // The interpreter evaluates the value first, then a memory target's
    // address.
    Visit(*A->getValue());
    if (!Decided)
      if (const auto *M = dyn_cast<MemRef>(A->getTarget()))
        Visit(*M->getAddress());
    break;
  }
  case Stmt::Kind::If:
    Visit(*cast<IfStmt>(&S)->getCond());
    break;
  case Stmt::Kind::ExitWhen:
    Visit(*cast<ExitWhenStmt>(&S)->getCond());
    break;
  case Stmt::Kind::Output:
    for (const ExprPtr &V : cast<OutputStmt>(&S)->getValues()) {
      Visit(*V);
      if (Decided)
        break;
    }
    break;
  default:
    break;
  }
  return Decided && Result;
}

/// Adds a declaration for \p Name with \p Type into the section that
/// holds \p Near (or the first section).
void declareNear(Description &D, const std::string &Name, TypeRef Type,
                 const std::string &Near, const std::string &Comment) {
  for (Section &S : D.getSections())
    for (const SectionItem &I : S.Items) {
      bool Hit = (I.K == SectionItem::Kind::Decl && I.D.Name == Near) ||
                 (I.K == SectionItem::Kind::Routine && I.R->Name == Near);
      if (Hit) {
        Decl Dl;
        Dl.Name = Name;
        Dl.Type = Type;
        Dl.Comment = Comment;
        S.Items.push_back(SectionItem::decl(std::move(Dl)));
        return;
      }
    }
  D.addDecl(D.getSections().empty() ? "STATE" : D.getSections().front().Name,
            Decl{Name, Type, Comment, {}});
}

} // namespace

void transform::registerRoutineTransforms(Registry &R) {
  R.add(std::make_unique<LambdaRule>(
      "extract-call-to-temp", Category::RoutineStructuring,
      "hoist a call `f()` buried in an expression into `t <- f()` before "
      "the statement (args: callee, temp; the call must be the first "
      "impure operation of the statement)",
      [](TransformContext &Ctx) {
        std::string Reason;
        Routine *R = Ctx.routine(Reason);
        if (!R)
          return ApplyResult::failure(Reason);
        std::string Callee = Ctx.arg("callee", Reason);
        std::string Temp = Ctx.arg("temp", Reason);
        if (Callee.empty() || Temp.empty())
          return ApplyResult::failure(Reason);
        Description &D = Ctx.Desc;
        const Routine *F = D.findRoutine(Callee);
        if (!F)
          return ApplyResult::failure("no routine named '" + Callee + "'");
        if (D.findDecl(Temp) || isReferenced(D, Temp))
          return ApplyResult::failure("temp name '" + Temp +
                                      "' is not fresh");

        bool Done = !walkStmts(R->Body, [&](StmtSite &Site) {
          Stmt &S = Site.stmt();
          bool HasCall = false;
          forEachExpr(S, [&](const Expr &E) {
            if (const auto *C = dyn_cast<CallExpr>(&E))
              if (C->getCallee() == Callee)
                HasCall = true;
          });
          // Skip the trivial form `x <- f()` with a plain variable target
          // (nothing to extract); a memory-target store still benefits.
          if (const auto *A = dyn_cast<AssignStmt>(&S))
            if (isa<VarRef>(A->getTarget()) && isa<CallExpr>(A->getValue()) &&
                cast<CallExpr>(A->getValue())->getCallee() == Callee)
              HasCall = false;
          if (!HasCall || !firstImpureIsCall(S, Callee))
            return Walk::Continue;
          bool Replaced = false;
          forEachExprSlot(S, [&](ExprPtr &Slot) {
            if (Replaced)
              return;
            if (const auto *C = dyn_cast<CallExpr>(Slot.get()))
              if (C->getCallee() == Callee) {
                Slot = varRef(Temp);
                Replaced = true;
              }
          });
          if (!Replaced)
            return Walk::Continue;
          Site.List.insert(Site.List.begin() + static_cast<long>(Site.Index),
                           assign(Temp, call(Callee)));
          return Walk::Stop;
        });
        if (!Done)
          return ApplyResult::failure(
              "no extractable call of '" + Callee +
              "' (the call must be the statement's first impure operation)");
        declareNear(D, Temp, F->ResultType, Callee,
                    "holds the result of " + Callee + "()");
        return ApplyResult::success(SemanticsEffect::Preserving,
                                    "extracted call of '" + Callee +
                                        "' into '" + Temp + "'");
      }));

  R.add(std::make_unique<LambdaRule>(
      "inline-routine", Category::RoutineStructuring,
      "replace one `x <- f()` call statement by f's body, renaming the "
      "return accumulator to a fresh temp (args: callee, temp)",
      [](TransformContext &Ctx) {
        std::string Reason;
        Routine *R = Ctx.routine(Reason);
        if (!R)
          return ApplyResult::failure(Reason);
        std::string Callee = Ctx.arg("callee", Reason);
        std::string Temp = Ctx.arg("temp", Reason);
        if (Callee.empty() || Temp.empty())
          return ApplyResult::failure(Reason);
        Description &D = Ctx.Desc;
        Routine *F = D.findRoutine(Callee);
        if (!F)
          return ApplyResult::failure("no routine named '" + Callee + "'");
        if (D.findDecl(Temp) || isReferenced(D, Temp))
          return ApplyResult::failure("temp name '" + Temp +
                                      "' is not fresh");
        // The callee must not itself contain calls of the enclosing
        // routine (no recursion in well-formed descriptions anyway).
        bool Done = !walkStmts(R->Body, [&](StmtSite &Site) {
          const auto *A = dyn_cast<AssignStmt>(&Site.stmt());
          const auto *C = A ? dyn_cast<CallExpr>(A->getValue()) : nullptr;
          if (!C || C->getCallee() != Callee || !isa<VarRef>(A->getTarget()))
            return Walk::Continue;
          StmtList Inlined = cloneStmts(F->Body);
          renameVar(Inlined, Callee, Temp);
          Inlined.push_back(assign(A->targetVarName(), varRef(Temp)));
          Site.splice(std::move(Inlined));
          return Walk::Stop;
        });
        if (!Done)
          return ApplyResult::failure("no `x <- " + Callee +
                                      "()` call statement to inline");
        declareNear(D, Temp, F->ResultType, Callee,
                    "inlined return accumulator of " + Callee + "()");
        return ApplyResult::success(SemanticsEffect::Preserving,
                                    "inlined one call of '" + Callee + "'");
      }));

  R.add(std::make_unique<LambdaRule>(
      "rename-variable", Category::RoutineStructuring,
      "alpha-rename a declared variable everywhere (args: from, to)",
      [](TransformContext &Ctx) {
        std::string Reason;
        std::string From = Ctx.arg("from", Reason);
        std::string To = Ctx.arg("to", Reason);
        if (From.empty() || To.empty())
          return ApplyResult::failure(Reason);
        Description &D = Ctx.Desc;
        Decl *Dl = D.findDecl(From);
        if (!Dl)
          return ApplyResult::failure("'" + From + "' is not declared");
        if (D.findDecl(To) || D.findRoutine(To) || isReferenced(D, To))
          return ApplyResult::failure("'" + To + "' is not fresh");
        Dl->Name = To;
        for (Routine *R : D.routines())
          renameVar(R->Body, From, To);
        return ApplyResult::success(SemanticsEffect::Preserving,
                                    "renamed '" + From + "' to '" + To + "'");
      }));

  R.add(std::make_unique<LambdaRule>(
      "rename-routine", Category::RoutineStructuring,
      "alpha-rename a routine and all of its call sites (args: from, to)",
      [](TransformContext &Ctx) {
        std::string Reason;
        std::string From = Ctx.arg("from", Reason);
        std::string To = Ctx.arg("to", Reason);
        if (From.empty() || To.empty())
          return ApplyResult::failure(Reason);
        Description &D = Ctx.Desc;
        Routine *F = D.findRoutine(From);
        if (!F)
          return ApplyResult::failure("no routine named '" + From + "'");
        if (D.findDecl(To) || D.findRoutine(To) || isReferenced(D, To))
          return ApplyResult::failure("'" + To + "' is not fresh");
        // The return accumulator shares the routine's name.
        renameVar(F->Body, From, To);
        F->Name = To;
        for (Routine *R : D.routines())
          renameCall(R->Body, From, To);
        return ApplyResult::success(SemanticsEffect::Preserving,
                                    "renamed routine '" + From + "' to '" +
                                        To + "'");
      }));

  R.add(std::make_unique<LambdaRule>(
      "split-routine", Category::RoutineStructuring,
      "duplicate routine `name` as `new-name` and retarget one call site "
      "(args: name, new-name, occurrence)",
      [](TransformContext &Ctx) {
        std::string Reason;
        std::string Name = Ctx.arg("name", Reason);
        std::string NewName = Ctx.arg("new-name", Reason);
        if (Name.empty() || NewName.empty())
          return ApplyResult::failure(Reason);
        Description &D = Ctx.Desc;
        Routine *F = D.findRoutine(Name);
        if (!F)
          return ApplyResult::failure("no routine named '" + Name + "'");
        if (D.findDecl(NewName) || D.findRoutine(NewName))
          return ApplyResult::failure("'" + NewName + "' is not fresh");
        std::optional<long> Occurrence = Ctx.occurrence(Reason, 0);
        if (!Occurrence)
          return ApplyResult::failure(Reason);

        // Retarget the chosen call site.
        long Seen = 0;
        bool Retargeted = false;
        for (Routine *R : D.routines())
          for (StmtPtr &S : R->Body)
            forEachExprSlot(*S, [&](ExprPtr &Slot) {
              if (auto *C = dyn_cast<CallExpr>(Slot.get()))
                if (C->getCallee() == Name) {
                  if (Seen++ == *Occurrence && !Retargeted) {
                    C->setCallee(NewName);
                    Retargeted = true;
                  }
                }
            });
        if (!Retargeted)
          return ApplyResult::failure("no call site #" +
                                      std::to_string(*Occurrence) + " of '" +
                                      Name + "'");

        // Clone the routine body under the new name.
        Routine Copy = F->clone();
        renameVar(Copy.Body, Name, NewName);
        Copy.Name = NewName;
        for (Section &S : D.getSections())
          for (size_t I = 0; I < S.Items.size(); ++I)
            if (S.Items[I].K == SectionItem::Kind::Routine &&
                S.Items[I].R->Name == Name) {
              S.Items.insert(S.Items.begin() + static_cast<long>(I) + 1,
                             SectionItem::routine(std::move(Copy)));
              return ApplyResult::success(SemanticsEffect::Preserving,
                                          "split routine '" + Name + "'");
            }
        return ApplyResult::failure("routine section not found");
      }));

  R.add(std::make_unique<LambdaRule>(
      "merge-identical-routines", Category::RoutineStructuring,
      "delete routine `b` whose body is identical to routine `a`, "
      "retargeting b's call sites to a (args: a, b)",
      [](TransformContext &Ctx) {
        std::string Reason;
        std::string A = Ctx.arg("a", Reason);
        std::string B = Ctx.arg("b", Reason);
        if (A.empty() || B.empty())
          return ApplyResult::failure(Reason);
        Description &D = Ctx.Desc;
        Routine *RA = D.findRoutine(A);
        Routine *RB = D.findRoutine(B);
        if (!RA || !RB)
          return ApplyResult::failure("both routines must exist");
        // Compare modulo the accumulator name.
        Routine Probe = RB->clone();
        renameVar(Probe.Body, B, A);
        if (!exactEqual(RA->Body, Probe.Body))
          return ApplyResult::failure("routine bodies differ");
        for (Routine *R : D.routines())
          renameCall(R->Body, B, A);
        for (Section &S : D.getSections())
          for (size_t I = 0; I < S.Items.size(); ++I)
            if (S.Items[I].K == SectionItem::Kind::Routine &&
                S.Items[I].R->Name == B) {
              S.Items.erase(S.Items.begin() + static_cast<long>(I));
              return ApplyResult::success(SemanticsEffect::Preserving,
                                          "merged '" + B + "' into '" + A +
                                              "'");
            }
        return ApplyResult::failure("routine section not found");
      }));
}
