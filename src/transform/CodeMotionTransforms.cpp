//===- CodeMotionTransforms.cpp - Statement reordering rules ----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "Code motion transformations which move statements with respect to one
/// another, such as reversing the order of two statements or moving one
/// statement into the body of another when possible" (§5).
///
/// The load-bearing rule is the hop across an `exit_when`: a statement may
/// cross a loop exit only when everything it writes is dead along the
/// taken (loop-leaving) path and it does not disturb the exit condition.
/// This is what lets the Rigel `index` counter decrement move from the
/// bottom of the loop to the position the 8086 `scasb` dictates (§4.1).
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
using dataflow::CFG;
using dataflow::EffectSummary;
using dataflow::Liveness;

namespace {

bool intersects(const std::set<std::string> &A,
                const std::set<std::string> &B) {
  for (const std::string &X : A)
    if (B.count(X))
      return true;
  return false;
}

bool containsExit(const Stmt &S) {
  bool Found = false;
  forEachStmt(S, [&](const Stmt &Sub) {
    if (isa<ExitWhenStmt>(&Sub))
      Found = true;
  });
  return Found;
}

/// Checks whether statement \p S may hop across the exit \p Exit (in
/// either direction) inside routine \p R: everything \p S writes must be
/// dead on the taken edge, \p S must not touch the exit condition, and
/// the condition must not affect \p S.
bool mayCrossExit(const Description &D, Routine &R, const Stmt &S,
                  const ExitWhenStmt &Exit, std::string &Reason) {
  if (containsExit(S)) {
    Reason = "moved statement contains an exit_when";
    return false;
  }
  EffectSummary SEff = dataflow::summarizeStmt(D, S);

  std::set<std::string> CondReads, CondWrites;
  dataflow::collectExprEffects(D, *Exit.getCond(), CondReads, &CondWrites);
  if (!CondWrites.empty()) {
    Reason = "exit condition has side effects";
    return false;
  }
  if (intersects(SEff.Writes, CondReads)) {
    Reason = "moved statement writes a variable the exit condition reads";
    return false;
  }

  CFG G = CFG::build(D, R);
  Liveness L(G);
  for (const std::string &W : SEff.Writes)
    if (L.liveOnExit(&Exit, W)) {
      Reason = "'" + W + "' is live on the loop-exit path";
      return false;
    }
  return true;
}

/// Locates the unique assignment to \p Var in \p R together with its
/// owning list.
StmtLocus findAssign(Routine &R, const std::string &Var, std::string &Reason) {
  bool Several = false;
  StmtLocus Found = findUnique(
      R.Body, [&](const Stmt &S) { return assignTo(S, Var) != nullptr; },
      Several);
  if (!Found.isValid())
    Reason = std::string(Several ? "more than one" : "no") +
             " assignment to '" + Var + "' in routine '" + R.Name + "'";
  return Found;
}

/// Shared implementation of move-up / move-down / swap-statements.
ApplyResult moveByOne(TransformContext &Ctx, bool Up) {
  std::string Reason;
  Routine *R = Ctx.routine(Reason);
  if (!R)
    return ApplyResult::failure(Reason);
  std::string Var = Ctx.arg("var", Reason);
  if (Var.empty())
    return ApplyResult::failure(Reason);

  StmtLocus Locus = findAssign(*R, Var, Reason);
  if (!Locus.isValid())
    return ApplyResult::failure(Reason);

  size_t I = Locus.Index;
  StmtList &List = *Locus.List;
  size_t NeighborIdx;
  if (Up) {
    if (I == 0)
      return ApplyResult::failure("assignment to '" + Var +
                                  "' is already first in its block");
    NeighborIdx = I - 1;
  } else {
    if (I + 1 >= List.size())
      return ApplyResult::failure("assignment to '" + Var +
                                  "' is already last in its block");
    NeighborIdx = I + 1;
  }

  Stmt &S = *List[I];
  Stmt &Neighbor = *List[NeighborIdx];
  if (const auto *Exit = dyn_cast<ExitWhenStmt>(&Neighbor)) {
    if (!mayCrossExit(Ctx.Desc, *R, S, *Exit, Reason))
      return ApplyResult::failure("cannot cross exit_when: " + Reason);
  } else if (!dataflow::independent(Ctx.Desc, S, Neighbor)) {
    return ApplyResult::failure(
        "statements are not independent; reordering would change results");
  }

  std::swap(List[I], List[NeighborIdx]);
  return ApplyResult::success(SemanticsEffect::Preserving,
                              std::string("moved assignment to '") + Var +
                                  (Up ? "' one position up" : "' one position down"));
}

} // namespace

void transform::registerCodeMotionTransforms(Registry &R) {
  R.add(std::make_unique<LambdaRule>(
      "move-up", Category::CodeMotion,
      "move the unique assignment to `var` one statement earlier "
      "(crossing an exit_when requires the target dead on the exit path)",
      [](TransformContext &Ctx) { return moveByOne(Ctx, /*Up=*/true); }));

  R.add(std::make_unique<LambdaRule>(
      "move-down", Category::CodeMotion,
      "move the unique assignment to `var` one statement later",
      [](TransformContext &Ctx) { return moveByOne(Ctx, /*Up=*/false); }));

  R.add(std::make_unique<LambdaRule>(
      "fuse-load-store", Category::CodeMotion,
      "merge `v <- RHS; X <- v` into `X <- RHS` when v is dead afterwards "
      "and the two statements are adjacent (args: var)",
      [](TransformContext &Ctx) {
        std::string Reason;
        Routine *R = Ctx.routine(Reason);
        if (!R)
          return ApplyResult::failure(Reason);
        std::string Var = Ctx.arg("var", Reason);
        if (Var.empty())
          return ApplyResult::failure(Reason);
        StmtLocus Locus = findAssign(*R, Var, Reason);
        if (!Locus.isValid())
          return ApplyResult::failure(Reason);
        StmtList &List = *Locus.List;
        size_t I = Locus.Index;
        if (I + 1 >= List.size())
          return ApplyResult::failure("no statement follows the "
                                      "assignment to '" + Var + "'");
        auto *Def = cast<AssignStmt>(List[I].get());
        auto *Use = dyn_cast<AssignStmt>(List[I + 1].get());
        if (!Use)
          return ApplyResult::failure("the following statement is not an "
                                      "assignment");
        const auto *UseVal = dyn_cast<VarRef>(Use->getValue());
        if (!UseVal || UseVal->getName() != Var)
          return ApplyResult::failure("the following assignment's value "
                                      "is not exactly '" + Var + "'");
        // The use's target address (for a memory store) is evaluated
        // after the value in this dialect, so the RHS keeps its
        // evaluation point; but it must not be affected by the address
        // computation and the address must not read v.
        if (const auto *M = dyn_cast<MemRef>(Use->getTarget()))
          if (mentionsVar(*M->getAddress(), Var))
            return ApplyResult::failure("the store address reads '" + Var +
                                        "'");
        dataflow::CFG G = dataflow::CFG::build(Ctx.Desc, *R);
        dataflow::Liveness L(G);
        if (!L.deadAfter(List[I + 1].get(), Var))
          return ApplyResult::failure("'" + Var + "' is still live after "
                                      "the use");
        Use->setValue(Def->takeValue());
        List.erase(List.begin() + static_cast<long>(I));
        return ApplyResult::success(SemanticsEffect::Preserving,
                                    "fused '" + Var + "' into its single "
                                    "use");
      }));

  R.add(std::make_unique<StmtRule>(
      "hoist-from-if", Category::CodeMotion,
      "move an identical first statement of both arms out in front of "
      "the if",
      [](const Stmt &S, const Description &D) {
        const auto *If = dyn_cast<IfStmt>(&S);
        if (!If || If->getThen().empty() || If->getElse().empty())
          return false;
        const Stmt &A = *If->getThen().front();
        const Stmt &B = *If->getElse().front();
        if (!exactEqual(A, B) || containsExit(A))
          return false;
        EffectSummary AEff = dataflow::summarizeStmt(D, A);
        std::set<std::string> CondReads, CondWrites;
        dataflow::collectExprEffects(D, *If->getCond(), CondReads, &CondWrites);
        if (intersects(AEff.Writes, CondReads))
          return false;
        if (intersects(CondWrites, AEff.Reads) ||
            intersects(CondWrites, AEff.Writes))
          return false;
        return true;
      },
      [](StmtPtr S, const Description &) {
        auto *If = cast<IfStmt>(S.get());
        StmtPtr Hoisted = std::move(If->getThen().front());
        If->getThen().erase(If->getThen().begin());
        If->getElse().erase(If->getElse().begin());
        StmtList Out;
        Out.push_back(std::move(Hoisted));
        Out.push_back(std::move(S));
        return Out;
      }));

  R.add(std::make_unique<StmtRule>(
      "sink-common-tail", Category::CodeMotion,
      "move an identical last statement of both arms out behind the if",
      [](const Stmt &S, const Description &) {
        const auto *If = dyn_cast<IfStmt>(&S);
        return If && !If->getThen().empty() && !If->getElse().empty() &&
               exactEqual(*If->getThen().back(), *If->getElse().back());
      },
      [](StmtPtr S, const Description &) {
        auto *If = cast<IfStmt>(S.get());
        StmtPtr Sunk = std::move(If->getThen().back());
        If->getThen().pop_back();
        If->getElse().pop_back();
        StmtList Out;
        Out.push_back(std::move(S));
        Out.push_back(std::move(Sunk));
        return Out;
      }));
}
