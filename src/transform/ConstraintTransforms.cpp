//===- ConstraintTransforms.cpp - Constraint/assertion rules ----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "Constraint and assertion transformations which manipulate constraints
/// and assertions in the descriptions" (§5). These rules are the ones
/// that *refine the input interface* of a description:
///
///  * `fix-operand-value` removes a flag operand and pins it (the scasb
///    simplification: rf=1, rfz=0, df=0 — §4.1);
///  * `introduce-offset-input` re-encodes an operand by a delta (the mvc
///    length-minus-one coding constraint — §4.2);
///  * `introduce-range-assert` restricts an operand's domain and records
///    the range constraint (a register-size bound);
///  * `note-relational-constraint` records a multi-operand predicate
///    backed by a source-language axiom — the §7 future-work extension
///    (base-mode analyses reject descriptions carrying one);
///  * `resolve-if-by-constraint` uses such an axiom to choose a branch
///    (movc3's overlap guard under Pascal's no-overlap rule — §4.3).
///
//===----------------------------------------------------------------------===//

#include "transform/RuleHelpers.h"

#include "isdl/Parser.h"
#include "support/StringUtil.h"

using namespace extra;
using namespace extra::transform;
using namespace extra::transform::detail;
using namespace extra::isdl;
using constraint::Constraint;

namespace {

/// Finds the entry input statement and the position of \p Operand in it.
InputStmt *findInputOperand(Routine &Entry, const std::string &Operand,
                            size_t &PosOut, std::string &Reason) {
  for (StmtPtr &S : Entry.Body)
    if (auto *In = dyn_cast<InputStmt>(S.get())) {
      for (size_t I = 0; I < In->getTargets().size(); ++I)
        if (In->getTargets()[I] == Operand) {
          PosOut = I;
          return In;
        }
      Reason = "'" + Operand + "' is not an input operand of routine '" +
               Entry.Name + "'";
      return nullptr;
    }
  Reason = "routine '" + Entry.Name + "' has no input statement";
  return nullptr;
}

/// Index of the input statement within the entry body.
size_t inputStmtIndex(const Routine &Entry) {
  for (size_t I = 0; I < Entry.Body.size(); ++I)
    if (isa<InputStmt>(Entry.Body[I].get()))
      return I;
  return 0;
}

ApplyResult fixOperandValue(TransformContext &Ctx) {
  std::string Reason;
  Routine *Entry = Ctx.routine(Reason);
  if (!Entry)
    return ApplyResult::failure(Reason);
  std::string Operand = Ctx.arg("operand", Reason);
  auto Value = Ctx.intArg("value", Reason);
  if (Operand.empty() || !Value)
    return ApplyResult::failure(Reason);

  size_t Pos = 0;
  InputStmt *In = findInputOperand(*Entry, Operand, Pos, Reason);
  if (!In)
    return ApplyResult::failure(Reason);

  In->getTargets().erase(In->getTargets().begin() + static_cast<long>(Pos));
  size_t InIdx = inputStmtIndex(*Entry);
  Entry->Body.insert(Entry->Body.begin() + static_cast<long>(InIdx) + 1,
                     assign(Operand, intLit(*Value)));

  if (Ctx.Constraints)
    Ctx.Constraints->add(Constraint::value(
        Operand, *Value,
        "operand fixed during simplification; code generator must "
        "establish it before issuing the instruction"));

  ApplyResult R = ApplyResult::success(
      SemanticsEffect::InputRefining,
      "fixed input operand " + Operand + " = " + std::to_string(*Value));
  int64_t V = *Value;
  R.Adapter = [Pos, V](const std::vector<int64_t> &NewInputs) {
    std::vector<int64_t> Old = NewInputs;
    if (Pos <= Old.size())
      Old.insert(Old.begin() + static_cast<long>(Pos), V);
    return Old;
  };
  return R;
}

ApplyResult introduceOffsetInput(TransformContext &Ctx) {
  std::string Reason;
  Routine *Entry = Ctx.routine(Reason);
  if (!Entry)
    return ApplyResult::failure(Reason);
  std::string Operand = Ctx.arg("operand", Reason);
  std::string NewName = Ctx.arg("new-name", Reason);
  auto Delta = Ctx.intArg("delta", Reason);
  if (Operand.empty() || NewName.empty() || !Delta)
    return ApplyResult::failure(Reason);
  if (*Delta == 0)
    return ApplyResult::failure("a zero offset is the identity encoding");

  Description &D = Ctx.Desc;
  if (D.findDecl(NewName) || D.findRoutine(NewName) ||
      isReferenced(D, NewName))
    return ApplyResult::failure("'" + NewName + "' is not fresh");
  const Decl *OpDecl = D.findDecl(Operand);
  if (!OpDecl)
    return ApplyResult::failure("'" + Operand + "' is not declared");

  size_t Pos = 0;
  InputStmt *In = findInputOperand(*Entry, Operand, Pos, Reason);
  if (!In)
    return ApplyResult::failure(Reason);

  // Declare the encoded operand next to the original.
  for (Section &S : D.getSections())
    for (size_t I = 0; I < S.Items.size(); ++I)
      if (S.Items[I].K == SectionItem::Kind::Decl &&
          S.Items[I].D.Name == Operand) {
        Decl Dl;
        Dl.Name = NewName;
        Dl.Type = OpDecl->Type;
        Dl.Comment = "offset-encoded " + Operand;
        S.Items.insert(S.Items.begin() + static_cast<long>(I) + 1,
                       SectionItem::decl(std::move(Dl)));
      }

  // input (..., operand, ...) becomes input (..., new, ...) followed by
  // the decoding `operand <- new - delta`.
  In->getTargets()[Pos] = NewName;
  ExprPtr Decode =
      *Delta < 0 ? binary(BinaryOp::Add, varRef(NewName), intLit(-*Delta))
                 : binary(BinaryOp::Sub, varRef(NewName), intLit(*Delta));
  size_t InIdx = inputStmtIndex(*Entry);
  Entry->Body.insert(Entry->Body.begin() + static_cast<long>(InIdx) + 1,
                     assign(Operand, std::move(Decode)));

  if (Ctx.Constraints)
    Ctx.Constraints->add(Constraint::offset(
        Operand, *Delta,
        "coding constraint: the compiler must pass " + Operand +
            (*Delta < 0 ? " - " + std::to_string(-*Delta)
                        : " + " + std::to_string(*Delta)) +
            " in this operand position"));

  ApplyResult R = ApplyResult::success(
      SemanticsEffect::InputRefining,
      "re-encoded operand " + Operand + " with offset " +
          std::to_string(*Delta) + " as " + NewName);
  int64_t Dl = *Delta;
  R.Adapter = [Pos, Dl](const std::vector<int64_t> &NewInputs) {
    std::vector<int64_t> Old = NewInputs;
    if (Pos < Old.size())
      Old[Pos] = Old[Pos] - Dl;
    return Old;
  };
  return R;
}

ApplyResult introduceRangeAssert(TransformContext &Ctx) {
  std::string Reason;
  Routine *Entry = Ctx.routine(Reason);
  if (!Entry)
    return ApplyResult::failure(Reason);
  std::string Operand = Ctx.arg("operand", Reason);
  auto Lo = Ctx.intArg("lo", Reason);
  auto Hi = Ctx.intArg("hi", Reason);
  if (Operand.empty() || !Lo || !Hi)
    return ApplyResult::failure(Reason);
  if (*Lo > *Hi)
    return ApplyResult::failure("empty range");
  if (!Ctx.Desc.findDecl(Operand))
    return ApplyResult::failure("'" + Operand + "' is not declared");

  ExprPtr Pred =
      binary(BinaryOp::And,
             binary(BinaryOp::Ge, varRef(Operand), intLit(*Lo)),
             binary(BinaryOp::Le, varRef(Operand), intLit(*Hi)));
  StmtPtr Assert = std::make_unique<AssertStmt>(std::move(Pred));

  // Default placement is right after the input statement; with
  // `before-loop=1` the assert lands immediately before the first repeat
  // (where rotate-while-to-dowhile looks for its justification).
  if (Ctx.argOr("before-loop", "0") == "1") {
    bool Placed = false;
    for (size_t I = 0; I < Entry->Body.size(); ++I)
      if (isa<RepeatStmt>(Entry->Body[I].get())) {
        Entry->Body.insert(Entry->Body.begin() + static_cast<long>(I),
                           std::move(Assert));
        Placed = true;
        break;
      }
    if (!Placed)
      return ApplyResult::failure("no top-level loop to place the assert "
                                  "before");
  } else {
    size_t InIdx = inputStmtIndex(*Entry);
    Entry->Body.insert(Entry->Body.begin() + static_cast<long>(InIdx) + 1,
                       std::move(Assert));
  }

  if (Ctx.Constraints)
    Ctx.Constraints->add(Constraint::range(
        Operand, *Lo, *Hi,
        "operand restricted to the instruction's encodable range"));

  // Domain restriction: inputs outside the range are no longer this
  // binding's concern. The adapter is the identity; the differential
  // checker draws inputs satisfying the recorded constraints.
  ApplyResult R = ApplyResult::success(SemanticsEffect::InputRefining,
                                       "restricted " + Operand + " to [" +
                                           std::to_string(*Lo) + ", " +
                                           std::to_string(*Hi) + "]");
  R.Adapter = [](const std::vector<int64_t> &NewInputs) { return NewInputs; };
  return R;
}

ApplyResult noteRelationalConstraint(TransformContext &Ctx) {
  std::string Reason;
  std::string PredText = Ctx.arg("pred", Reason);
  std::string Axiom = Ctx.arg("axiom", Reason);
  if (PredText.empty() || Axiom.empty())
    return ApplyResult::failure(Reason);

  DiagnosticEngine Diags;
  ExprPtr Pred = parseExpr(PredText, Diags);
  if (!Pred || Diags.hasErrors())
    return ApplyResult::failure("cannot parse constraint predicate: " +
                                Diags.str());
  if (!Ctx.Constraints)
    return ApplyResult::failure("no constraint set attached to this session");
  Ctx.Constraints->add(Constraint::relational(
      std::move(Pred), Axiom,
      "multi-operand constraint (beyond the 1982 system; extension mode "
      "only)"));
  return ApplyResult::success(SemanticsEffect::Preserving,
                              "recorded relational constraint under axiom '" +
                                  Axiom + "'");
}

ApplyResult resolveIfByConstraint(TransformContext &Ctx) {
  std::string Reason;
  Routine *R = Ctx.routine(Reason);
  if (!R)
    return ApplyResult::failure(Reason);
  std::string Arm = Ctx.arg("arm", Reason);
  if (Arm.empty())
    return ApplyResult::failure(Reason);
  if (Arm != "then" && Arm != "else")
    return ApplyResult::failure("arm must be 'then' or 'else'");
  if (!Ctx.Constraints || !Ctx.Constraints->hasRelational())
    return ApplyResult::failure(
        "no relational constraint recorded; this rule is only justified "
        "by a source-language axiom (record one with "
        "note-relational-constraint first)");

  std::optional<long> Occurrence = Ctx.occurrence(Reason, 0);
  if (!Occurrence)
    return ApplyResult::failure(Reason);

  long Seen = 0;
  bool Done = !walkStmts(R->Body, [&](StmtSite &Site) {
    auto *If = dyn_cast<IfStmt>(&Site.stmt());
    if (!If || Seen++ != *Occurrence)
      return Walk::Continue;
    Site.splice(Arm == "then" ? std::move(If->getThen())
                              : std::move(If->getElse()));
    return Walk::Stop;
  });
  if (!Done)
    return ApplyResult::failure("no if statement #" +
                                std::to_string(*Occurrence));
  // The branch choice is justified by the recorded axiom; the
  // differential check validates it on axiom-respecting inputs.
  ApplyResult Res = ApplyResult::success(
      SemanticsEffect::InputRefining,
      "resolved conditional to its " + Arm + " arm under the recorded "
      "relational constraint");
  Res.Adapter = [](const std::vector<int64_t> &NewInputs) {
    return NewInputs;
  };
  return Res;
}

ApplyResult liftConstrain(TransformContext &Ctx) {
  std::string Reason;
  Routine *R = Ctx.routine(Reason);
  if (!R)
    return ApplyResult::failure(Reason);
  if (!Ctx.Constraints)
    return ApplyResult::failure("no constraint set attached to this session");

  // Lifts the first constrain statement whose tag and predicate shape it
  // can interpret; one it cannot stays in place.
  bool Done = !walkStmts(R->Body, [&](StmtSite &Site) {
    const auto *C = dyn_cast<ConstrainStmt>(&Site.stmt());
    if (!C)
      return Walk::Continue;
    const std::string &Tag = C->getTag();
    const Expr *P = C->getPred();
    if (Tag == "value") {
      const auto *B = dyn_cast<BinaryExpr>(P);
      const VarRef *V = B ? dyn_cast<VarRef>(B->getLHS()) : nullptr;
      const IntLit *K = B ? dyn_cast<IntLit>(B->getRHS()) : nullptr;
      if (!B || B->getOp() != BinaryOp::Eq || !V || !K)
        return Walk::Continue;
      Ctx.Constraints->add(
          Constraint::value(V->getName(), K->getValue(), "from text"));
    } else if (Tag == "range") {
      // lo <= v and v <= hi  |  v <= hi  |  v >= lo
      int64_t Lo = INT64_MIN, Hi = INT64_MAX;
      std::string Var;
      std::function<bool(const Expr &)> Scan = [&](const Expr &E) {
        const auto *B = dyn_cast<BinaryExpr>(&E);
        if (!B)
          return false;
        if (B->getOp() == BinaryOp::And)
          return Scan(*B->getLHS()) && Scan(*B->getRHS());
        const auto *V = dyn_cast<VarRef>(B->getLHS());
        const auto *K = dyn_cast<IntLit>(B->getRHS());
        if (!V || !K)
          return false;
        if (!Var.empty() && Var != V->getName())
          return false;
        Var = V->getName();
        if (B->getOp() == BinaryOp::Le)
          Hi = K->getValue();
        else if (B->getOp() == BinaryOp::Ge)
          Lo = K->getValue();
        else
          return false;
        return true;
      };
      if (!Scan(*P) || Var.empty())
        return Walk::Continue;
      Ctx.Constraints->add(
          Constraint::range(Var, Lo == INT64_MIN ? 0 : Lo, Hi, "from text"));
    } else {
      Ctx.Constraints->add(Constraint::relational(
          P->clone(), Tag.empty() ? "unnamed" : Tag, "from text"));
    }
    Site.splice({});
    return Walk::Stop;
  });
  if (!Done)
    return ApplyResult::failure("no liftable constrain statement");
  return ApplyResult::success(SemanticsEffect::Preserving,
                              "lifted textual constraint into the set");
}

} // namespace

void transform::registerConstraintTransforms(Registry &R) {
  R.add(std::make_unique<LambdaRule>(
      "fix-operand-value", Category::ConstraintOp,
      "remove input operand `operand` and pin it to `value` (records a "
      "value constraint; the scasb flag simplification)",
      fixOperandValue));

  R.add(std::make_unique<LambdaRule>(
      "introduce-offset-input", Category::ConstraintOp,
      "re-encode input `operand` as `new-name` = operand + delta "
      "(records the mvc-style coding constraint; args: operand, delta, "
      "new-name)",
      introduceOffsetInput));

  R.add(std::make_unique<LambdaRule>(
      "introduce-range-assert", Category::ConstraintOp,
      "restrict input `operand` to [lo, hi]: records a range constraint "
      "and plants the corresponding assert (args: operand, lo, hi, "
      "optional before-loop=1)",
      introduceRangeAssert));

  R.add(std::make_unique<LambdaRule>(
      "permute-inputs", Category::ConstraintOp,
      "reorder the entry input operands; `order` lists the old positions "
      "in their new order, e.g. order=2,0,1 (operand binding in the code "
      "generator is positional, so operand order is part of the "
      "interface)",
      [](TransformContext &Ctx) {
        std::string Reason;
        Routine *Entry = Ctx.routine(Reason);
        if (!Entry)
          return ApplyResult::failure(Reason);
        std::string OrderText = Ctx.arg("order", Reason);
        if (OrderText.empty())
          return ApplyResult::failure(Reason);

        InputStmt *In = nullptr;
        for (StmtPtr &S : Entry->Body)
          if (auto *I = dyn_cast<InputStmt>(S.get()))
            In = I;
        if (!In)
          return ApplyResult::failure("routine '" + Entry->Name +
                                      "' has no input statement");

        std::vector<size_t> Order;
        std::set<size_t> SeenIdx;
        for (const std::string &Part : split(OrderText, ',')) {
          errno = 0;
          char *End = nullptr;
          long V = strtol(Part.c_str(), &End, 10);
          if (End == Part.c_str() || *End != '\0' || V < 0 ||
              static_cast<size_t>(V) >= In->getTargets().size() ||
              !SeenIdx.insert(static_cast<size_t>(V)).second)
            return ApplyResult::failure("bad permutation '" + OrderText +
                                        "' for " +
                                        std::to_string(In->getTargets().size()) +
                                        " operands");
          Order.push_back(static_cast<size_t>(V));
        }
        if (Order.size() != In->getTargets().size())
          return ApplyResult::failure("permutation must mention every "
                                      "operand exactly once");

        std::vector<std::string> NewTargets;
        NewTargets.reserve(Order.size());
        for (size_t OldIdx : Order)
          NewTargets.push_back(In->getTargets()[OldIdx]);
        In->getTargets() = std::move(NewTargets);

        ApplyResult R = ApplyResult::success(
            SemanticsEffect::InputRefining,
            "reordered input operands (" + OrderText + ")");
        R.Adapter = [Order](const std::vector<int64_t> &NewInputs) {
          std::vector<int64_t> Old(NewInputs.size(), 0);
          for (size_t K = 0; K < Order.size() && K < NewInputs.size(); ++K)
            Old[Order[K]] = NewInputs[K];
          return Old;
        };
        return R;
      }));

  R.add(std::make_unique<LambdaRule>(
      "note-relational-constraint", Category::ConstraintOp,
      "record a multi-operand predicate backed by a source-language axiom "
      "(extension beyond the 1982 system; args: pred, axiom)",
      noteRelationalConstraint));

  R.add(std::make_unique<LambdaRule>(
      "resolve-if-by-constraint", Category::ConstraintOp,
      "replace an if by one arm, justified by a recorded relational "
      "constraint (args: arm, occurrence)",
      resolveIfByConstraint));

  R.add(std::make_unique<LambdaRule>(
      "lift-constrain", Category::ConstraintOp,
      "move a textual `constrain` annotation from the description into "
      "the analysis constraint set",
      liftConstrain));
}
