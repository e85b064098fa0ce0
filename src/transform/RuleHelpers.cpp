//===- RuleHelpers.cpp - Shared machinery of the rewrite rules --*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "transform/RuleHelpers.h"

#include "isdl/Parser.h"

#include <iterator>

using namespace extra;
using namespace extra::transform;
using namespace extra::transform::detail;
using namespace extra::isdl;

void StmtSite::splice(StmtList With) {
  List.erase(List.begin() + static_cast<long>(Index));
  List.insert(List.begin() + static_cast<long>(Index),
              std::make_move_iterator(With.begin()),
              std::make_move_iterator(With.end()));
  Spliced = With.size();
}

bool detail::walkStmts(StmtList &Body,
                       const std::function<Walk(StmtSite &)> &Fn) {
  for (size_t I = 0; I < Body.size();) {
    StmtSite Site{Body, I, std::nullopt};
    if (Fn(Site) == Walk::Stop)
      return false;
    if (Site.Spliced) {
      I += *Site.Spliced;
      continue;
    }
    Stmt *S = Body[I].get();
    if (auto *If = dyn_cast<IfStmt>(S)) {
      if (!walkStmts(If->getThen(), Fn) || !walkStmts(If->getElse(), Fn))
        return false;
    } else if (auto *Rep = dyn_cast<RepeatStmt>(S)) {
      if (!walkStmts(Rep->getBody(), Fn))
        return false;
    }
    ++I;
  }
  return true;
}

StmtLocus detail::findUnique(StmtList &Body,
                             const std::function<bool(const Stmt &)> &P,
                             bool &Several) {
  StmtLocus Found;
  Several = false;
  walkStmts(Body, [&](StmtSite &Site) {
    if (!P(Site.stmt()))
      return Walk::Continue;
    if (Found.isValid()) {
      Several = true;
      return Walk::Stop;
    }
    Found = StmtLocus{&Site.List, Site.Index};
    return Walk::Continue;
  });
  return Several ? StmtLocus() : Found;
}

const AssignStmt *detail::assignTo(const Stmt &S, const std::string &Var) {
  const auto *A = dyn_cast<AssignStmt>(&S);
  return A && A->targetVarName() == Var ? A : nullptr;
}

std::optional<int64_t> detail::litValue(const Expr &E) {
  if (const auto *I = dyn_cast<IntLit>(&E))
    return I->getValue();
  if (const auto *C = dyn_cast<CharLit>(&E))
    return C->getValue();
  return std::nullopt;
}

StmtList detail::parseRuleCode(const std::string &Code, std::string &Reason) {
  DiagnosticEngine Diags;
  StmtList Out = parseStmts(Code, Diags);
  if (Diags.hasErrors()) {
    Reason = "cannot parse rule code: " + Diags.str();
    return StmtList();
  }
  if (Out.empty())
    Reason = "rule code is empty";
  return Out;
}

ApplyResult ExprRule::apply(TransformContext &Ctx) const {
  std::string Reason;
  Routine *R = Ctx.routine(Reason);
  if (!R)
    return ApplyResult::failure(Reason);
  std::optional<long> Wanted = Ctx.occurrence(Reason);
  if (!Wanted)
    return ApplyResult::failure(Reason);

  long Seen = 0;
  unsigned Rewritten = 0;
  const Description &D = Ctx.Desc;
  forEachExprSlot(R->Body, [&](ExprPtr &Slot) {
    if (!Match(*Slot, D))
      return;
    long Occurrence = Seen++;
    if (*Wanted >= 0 && Occurrence != *Wanted)
      return;
    Rewrite(Slot, D);
    ++Rewritten;
  });

  if (Rewritten == 0)
    return ApplyResult::failure("no matching expression in routine '" +
                                R->Name + "'");
  return ApplyResult::success(SemanticsEffect::Preserving,
                              std::to_string(Rewritten) + " site(s) rewritten");
}

ApplyResult StmtRule::apply(TransformContext &Ctx) const {
  std::string Reason;
  Routine *R = Ctx.routine(Reason);
  if (!R)
    return ApplyResult::failure(Reason);
  std::optional<long> Wanted = Ctx.occurrence(Reason);
  if (!Wanted)
    return ApplyResult::failure(Reason);

  long Seen = 0;
  unsigned Rewritten = 0;
  const Description &D = Ctx.Desc;
  walkStmts(R->Body, [&](StmtSite &Site) {
    if (!Match(Site.stmt(), D))
      return Walk::Continue;
    long Occurrence = Seen++;
    if (*Wanted < 0 || Occurrence == *Wanted) {
      Site.splice(Rewrite(std::move(Site.List[Site.Index]), D));
      ++Rewritten;
    }
    return Walk::Continue;
  });

  if (Rewritten == 0)
    return ApplyResult::failure("no matching statement in routine '" +
                                R->Name + "'");
  return ApplyResult::success(SemanticsEffect::Preserving,
                              std::to_string(Rewritten) + " site(s) rewritten");
}
