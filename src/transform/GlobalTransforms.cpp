//===- GlobalTransforms.cpp - Whole-description rules -----------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "Global transformations which must look at potentially the entire
/// description. For instance, copy propagation and dead variable
/// elimination both use information that may be a long distance textually
/// from where it is used" (§5).
///
/// `global-constant-propagate` is the workhorse of instruction
/// simplification: after `fix-operand-value` plants `df <- 0`, it carries
/// the constant into every use — including uses inside other routines
/// such as scasb's `fetch()` — which constant folding then collapses
/// (§4.1, Figures 3→4).
///
//===----------------------------------------------------------------------===//

#include "transform/RuleHelpers.h"

#include "dataflow/Liveness.h"
#include "dataflow/ReachingDefs.h"

using namespace extra;
using namespace extra::transform;
using namespace extra::transform::detail;
using namespace extra::isdl;

namespace {

/// Replaces read references of \p Var under \p S with clones of \p
/// Replacement (assignment targets and input lists untouched).
void replaceReads(Stmt &S, const std::string &Var, const Expr &Replacement) {
  forEachExprSlot(S, [&](ExprPtr &Slot) {
    if (const auto *V = dyn_cast<VarRef>(Slot.get()))
      if (V->getName() == Var)
        Slot = Replacement.clone();
  });
}

/// True when \p R assigns \p Var a value satisfying \p Value somewhere:
/// an exact pre-check that spares a rule the CFG when it cannot apply.
bool hasAssignTo(const Routine &R, const std::string &Var,
                 bool (*Value)(const Expr &)) {
  bool Found = false;
  forEachStmt(R.Body, [&](const Stmt &S) {
    if (const AssignStmt *A = assignTo(S, Var))
      Found = Found || Value(*A->getValue());
  });
  return Found;
}

ApplyResult globalConstantPropagate(TransformContext &Ctx) {
  std::string Reason;
  std::string Var = Ctx.arg("var", Reason);
  if (Var.empty())
    return ApplyResult::failure(Reason);
  Description &D = Ctx.Desc;
  Routine *Entry = D.entryRoutine();
  if (!Entry)
    return ApplyResult::failure("description has no entry routine");

  if (countWrites(D, Var) != 1)
    return ApplyResult::failure("'" + Var + "' must have exactly one write "
                                "in the whole description");

  // The single write must be a top-level `var <- k` in the entry routine.
  size_t DefIdx = Entry->Body.size();
  int64_t K = 0;
  for (size_t I = 0; I < Entry->Body.size(); ++I) {
    const auto *A = dyn_cast<AssignStmt>(Entry->Body[I].get());
    if (A && A->targetVarName() == Var) {
      const auto *Lit = dyn_cast<IntLit>(A->getValue());
      if (!Lit)
        return ApplyResult::failure("the definition of '" + Var +
                                    "' is not a literal");
      DefIdx = I;
      K = Lit->getValue();
    }
  }
  if (DefIdx == Entry->Body.size())
    return ApplyResult::failure("the single write of '" + Var +
                                "' is not a top-level entry statement");

  // Nothing before the definition may read the variable (directly or via
  // a call).
  for (size_t I = 0; I < DefIdx; ++I) {
    dataflow::EffectSummary Eff =
        dataflow::summarizeStmt(D, *Entry->Body[I]);
    if (Eff.Reads.count(Var))
      return ApplyResult::failure("'" + Var + "' is read before its "
                                  "definition");
  }

  // Respect the declared width: the stored value is masked.
  if (const Decl *Dl = D.findDecl(Var)) {
    unsigned W = Dl->Type.widthInBits();
    if (W > 0 && W < 64)
      K &= (int64_t(1) << W) - 1;
  }

  unsigned Before = countReads(D, Var);
  if (Before == 0)
    return ApplyResult::failure("'" + Var + "' has no uses to propagate "
                                "into");
  IntLit Lit(K);
  for (Routine *R : D.routines())
    for (StmtPtr &S : R->Body)
      replaceReads(*S, Var, Lit);

  return ApplyResult::success(SemanticsEffect::Preserving,
                              "propagated " + Var + " = " +
                                  std::to_string(K) + " into " +
                                  std::to_string(Before) + " use(s)");
}

ApplyResult copyPropagate(TransformContext &Ctx) {
  std::string Reason;
  Routine *R = Ctx.routine(Reason);
  if (!R)
    return ApplyResult::failure(Reason);
  std::string Var = Ctx.arg("var", Reason);
  if (Var.empty())
    return ApplyResult::failure(Reason);
  Description &D = Ctx.Desc;
  std::string NoCopy = "no uses of '" + Var + "' with a unique reaching copy";
  // Only a copy `var <- y` can be the unique reaching definition.
  if (!hasAssignTo(*R, Var, [](const Expr &V) { return isa<VarRef>(&V); }))
    return ApplyResult::failure(NoCopy);

  dataflow::CFG G = dataflow::CFG::build(D, *R);
  dataflow::ReachingDefs RD(G);

  unsigned Replaced = 0;
  forEachStmt(R->Body, [&](const Stmt &SC) {
    auto &S = const_cast<Stmt &>(SC);
    int Node = G.nodeFor(&S);
    if (Node < 0 || !mentionsVar(S, Var))
      return;
    std::vector<int> Defs = RD.defsReaching(Node, Var);
    if (Defs.size() != 1)
      return;
    const dataflow::CFGNode &DefNode =
        G.nodes()[static_cast<size_t>(Defs.front())];
    const auto *DefAssign = dyn_cast<AssignStmt>(DefNode.S);
    if (!DefAssign || DefAssign->targetVarName() != Var)
      return;
    const auto *Src = dyn_cast<VarRef>(DefAssign->getValue());
    if (!Src)
      return;
    // The copied-from variable must have a single description-wide write
    // that reaches the copy (so its value cannot change between the copy
    // and this use).
    if (countWrites(D, Src->getName()) != 1)
      return;
    if (RD.defsReaching(Defs.front(), Src->getName()).size() > 1)
      return;
    replaceReads(S, Var, *DefAssign->getValue());
    ++Replaced;
  });

  if (Replaced == 0)
    return ApplyResult::failure(NoCopy);
  return ApplyResult::success(SemanticsEffect::Preserving,
                              "propagated copy into " +
                                  std::to_string(Replaced) + " statement(s)");
}

ApplyResult deadAssignElim(TransformContext &Ctx) {
  std::string Reason;
  Routine *R = Ctx.routine(Reason);
  if (!R)
    return ApplyResult::failure(Reason);
  std::string Var = Ctx.arg("var", Reason);
  if (Var.empty())
    return ApplyResult::failure(Reason);
  std::string NoDead =
      "no dead assignment to '" + Var + "' in routine '" + R->Name + "'";
  // Only an assignment of a pure value is a candidate for removal.
  if (!hasAssignTo(*R, Var, isPure))
    return ApplyResult::failure(NoDead);

  dataflow::CFG G = dataflow::CFG::build(Ctx.Desc, *R);
  dataflow::Liveness L(G);

  unsigned Removed = 0;
  walkStmts(R->Body, [&](StmtSite &Site) {
    const AssignStmt *A = assignTo(Site.stmt(), Var);
    if (A && isPure(*A->getValue()) && L.deadAfter(A, Var)) {
      Site.splice({});
      ++Removed;
    }
    return Walk::Continue;
  });

  if (Removed == 0)
    return ApplyResult::failure(NoDead);
  return ApplyResult::success(SemanticsEffect::Preserving,
                              "removed " + std::to_string(Removed) +
                                  " dead assignment(s)");
}

ApplyResult deadVarElim(TransformContext &Ctx) {
  std::string Reason;
  std::string Var = Ctx.arg("var", Reason);
  if (Var.empty())
    return ApplyResult::failure(Reason);
  Description &D = Ctx.Desc;

  if (!D.findDecl(Var))
    return ApplyResult::failure("'" + Var + "' is not declared");
  if (countReads(D, Var) != 0)
    return ApplyResult::failure("'" + Var + "' is still read");
  for (const Routine *R : D.routines())
    for (const StmtPtr &S : R->Body)
      if (const auto *In = dyn_cast<InputStmt>(S.get()))
        for (const std::string &T : In->getTargets())
          if (T == Var)
            return ApplyResult::failure("'" + Var + "' is an input operand; "
                                        "fix or remove the operand first");

  // Every assignment goes, so every right-hand side must be pure; check
  // before the first removal (refusal purity, Transformation::apply).
  for (const Routine *R : D.routines())
    if (hasAssignTo(*R, Var, [](const Expr &V) { return !isPure(V); }))
      return ApplyResult::failure("an assignment to '" + Var +
                                  "' has an impure right-hand side");
  unsigned Removed = 0;
  for (Routine *R : D.routines())
    walkStmts(R->Body, [&](StmtSite &Site) {
      if (assignTo(Site.stmt(), Var)) {
        Site.splice({});
        ++Removed;
      }
      return Walk::Continue;
    });
  D.removeDecl(Var);
  return ApplyResult::success(SemanticsEffect::Preserving,
                              "eliminated dead variable '" + Var + "' (" +
                                  std::to_string(Removed) +
                                  " assignment(s) removed)");
}

} // namespace

void transform::registerGlobalTransforms(Registry &R) {
  R.add(std::make_unique<LambdaRule>(
      "global-constant-propagate", Category::Global,
      "propagate the single description-wide literal definition of `var` "
      "into every use, across routine boundaries",
      globalConstantPropagate));

  R.add(std::make_unique<LambdaRule>(
      "copy-propagate", Category::Global,
      "replace uses of `var` whose unique reaching definition is a copy "
      "`var <- u` by u (u single-assignment)",
      copyPropagate));

  R.add(std::make_unique<LambdaRule>(
      "dead-assign-elim", Category::Global,
      "remove assignments to `var` whose value is dead (liveness-checked) "
      "and whose right-hand side is pure",
      deadAssignElim));

  R.add(std::make_unique<LambdaRule>(
      "dead-var-elim", Category::Global,
      "remove a never-read variable: all its assignments and its "
      "declaration",
      deadVarElim));

  R.add(std::make_unique<LambdaRule>(
      "dead-decl-elim", Category::Global,
      "remove the declaration of `var` when nothing references it",
      [](TransformContext &Ctx) {
        std::string Reason;
        std::string Var = Ctx.arg("var", Reason);
        if (Var.empty())
          return ApplyResult::failure(Reason);
        if (!Ctx.Desc.findDecl(Var))
          return ApplyResult::failure("'" + Var + "' is not declared");
        if (detail::isReferenced(Ctx.Desc, Var))
          return ApplyResult::failure("'" + Var + "' is still referenced");
        Ctx.Desc.removeDecl(Var);
        return ApplyResult::success(SemanticsEffect::Preserving,
                                    "removed unused declaration '" + Var +
                                        "'");
      }));

  R.add(std::make_unique<LambdaRule>(
      "dead-routine-elim", Category::Global,
      "remove routine `name` when it is never called",
      [](TransformContext &Ctx) {
        std::string Reason;
        std::string Name = Ctx.arg("name", Reason);
        if (Name.empty())
          return ApplyResult::failure(Reason);
        Description &D = Ctx.Desc;
        if (!D.findRoutine(Name))
          return ApplyResult::failure("no routine named '" + Name + "'");
        if (D.entryRoutine() && D.entryRoutine()->Name == Name)
          return ApplyResult::failure("cannot remove the entry routine");
        for (const Routine *R : D.routines())
          if (calledRoutines(R->Body).count(Name))
            return ApplyResult::failure("routine '" + Name +
                                        "' is still called");
        for (Section &S : D.getSections())
          for (size_t I = 0; I < S.Items.size(); ++I)
            if (S.Items[I].K == SectionItem::Kind::Routine &&
                S.Items[I].R->Name == Name) {
              S.Items.erase(S.Items.begin() + static_cast<long>(I));
              return ApplyResult::success(SemanticsEffect::Preserving,
                                          "removed dead routine '" + Name +
                                              "'");
            }
        return ApplyResult::failure("routine not found");
      }));

  R.add(std::make_unique<LambdaRule>(
      "fold-constants", Category::Global,
      "composite: apply all folding identities to a fixed point in the "
      "routine",
      foldConstants));

  R.add(std::make_unique<StmtRule>(
      "remove-assert", Category::Global,
      "delete an assert (its fact is retained by the recorded constraint "
      "set)",
      [](const Stmt &S, const Description &) { return isa<AssertStmt>(&S); },
      [](StmtPtr, const Description &) { return StmtList(); }));
}
