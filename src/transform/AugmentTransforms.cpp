//===- AugmentTransforms.cpp - Prologue/epilogue augments -------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "Augment producing transformations that produce prologue and epilogue
/// augments to the descriptions. The user specifies the augment, and the
/// system guarantees the interface of the augment code to the exotic
/// instruction" (§5). The augment code arrives as ISDL statement text in
/// the rule arguments; the rules parse it, check that it only references
/// declared names (the guaranteed interface), and splice it in. Augments
/// deliberately change what the instruction computes — the driver's
/// end-to-end check against the language operator validates the result.
///
//===----------------------------------------------------------------------===//

#include "transform/RuleHelpers.h"

#include "isdl/Traverse.h"
#include "isdl/Validate.h"

using namespace extra;
using namespace extra::transform;
using namespace extra::transform::detail;
using namespace extra::isdl;

namespace {

/// Interface guarantee: every name referenced by augment code must be a
/// declared register/variable or routine of the description.
bool checkInterface(const Description &D, const StmtList &Code,
                    std::string &Reason) {
  bool Ok = true;
  for (const StmtPtr &S : Code) {
    forEachExpr(*S, [&](const Expr &E) {
      if (const auto *V = dyn_cast<VarRef>(&E)) {
        if (!D.findDecl(V->getName())) {
          Reason = "augment references undeclared name '" + V->getName() +
                   "' (allocate-temp first)";
          Ok = false;
        }
      } else if (const auto *C = dyn_cast<CallExpr>(&E)) {
        if (!D.findRoutine(C->getCallee())) {
          Reason = "augment calls unknown routine '" + C->getCallee() + "'";
          Ok = false;
        }
      }
    });
    forEachStmt(*S, [&](const Stmt &Sub) {
      if (const auto *A = dyn_cast<AssignStmt>(&Sub)) {
        std::string T = A->targetVarName();
        if (!T.empty() && !D.findDecl(T)) {
          Reason = "augment assigns undeclared name '" + T + "'";
          Ok = false;
        }
      }
    });
  }
  return Ok;
}

ApplyResult addCode(TransformContext &Ctx, bool Prologue) {
  std::string Reason;
  Routine *Entry = Ctx.routine(Reason);
  if (!Entry)
    return ApplyResult::failure(Reason);
  std::string Code = Ctx.arg("code", Reason);
  if (Code.empty())
    return ApplyResult::failure(Reason);
  StmtList Parsed = parseRuleCode(Code, Reason);
  if (Parsed.empty())
    return ApplyResult::failure(Reason);
  if (!checkInterface(Ctx.Desc, Parsed, Reason))
    return ApplyResult::failure(Reason);

  if (Prologue) {
    // After the input statement (operands must be loaded first), or at
    // the very front when the routine has none.
    size_t At = 0;
    for (size_t I = 0; I < Entry->Body.size(); ++I)
      if (isa<InputStmt>(Entry->Body[I].get()))
        At = I + 1;
    for (size_t K = 0; K < Parsed.size(); ++K)
      Entry->Body.insert(Entry->Body.begin() + static_cast<long>(At + K),
                         std::move(Parsed[K]));
  } else {
    for (StmtPtr &S : Parsed)
      Entry->Body.push_back(std::move(S));
  }
  return ApplyResult::success(SemanticsEffect::Augmenting,
                              Prologue ? "prologue augment added"
                                       : "epilogue augment added");
}

} // namespace

void transform::registerAugmentTransforms(Registry &R) {
  R.add(std::make_unique<LambdaRule>(
      "allocate-temp", Category::Augment,
      "declare a fresh temporary for augment code (args: name, "
      "type=integer|character|flag|bits:<hi>:<lo>, section)",
      [](TransformContext &Ctx) {
        std::string Reason;
        std::string Name = Ctx.arg("name", Reason);
        if (Name.empty())
          return ApplyResult::failure(Reason);
        Description &D = Ctx.Desc;
        if (D.findDecl(Name) || D.findRoutine(Name) ||
            isReferenced(D, Name))
          return ApplyResult::failure("'" + Name + "' is not fresh");

        std::string TypeText = Ctx.argOr("type", "integer");
        TypeRef Type;
        if (TypeText == "integer")
          Type = TypeRef::integer();
        else if (TypeText == "character")
          Type = TypeRef::character();
        else if (TypeText == "flag")
          Type = TypeRef::flag();
        else if (TypeText.rfind("bits:", 0) == 0) {
          int Hi = 0, Lo = 0;
          if (sscanf(TypeText.c_str(), "bits:%d:%d", &Hi, &Lo) != 2 ||
              Hi < Lo)
            return ApplyResult::failure("bad bits type '" + TypeText + "'");
          Type = TypeRef::bits(Hi, Lo);
        } else {
          return ApplyResult::failure("unknown type '" + TypeText + "'");
        }

        std::string SectionName = Ctx.argOr("section", "STATE");
        Decl Dl;
        Dl.Name = Name;
        Dl.Type = Type;
        Dl.Comment = "temporary allocated for augment code";
        D.addDecl(SectionName, std::move(Dl));
        return ApplyResult::success(SemanticsEffect::Preserving,
                                    "allocated temporary '" + Name + "'");
      }));

  R.add(std::make_unique<LambdaRule>(
      "add-prologue", Category::Augment,
      "insert augment statements after the entry input statement "
      "(args: code — ISDL statement text)",
      [](TransformContext &Ctx) { return addCode(Ctx, /*Prologue=*/true); }));

  R.add(std::make_unique<LambdaRule>(
      "add-epilogue", Category::Augment,
      "append augment statements at the end of the entry routine "
      "(args: code — ISDL statement text)",
      [](TransformContext &Ctx) { return addCode(Ctx, /*Prologue=*/false); }));

  R.add(std::make_unique<LambdaRule>(
      "replace-output", Category::Augment,
      "delete the instruction's raw machine-state outputs (wherever they "
      "appear) and append the operator-level epilogue; code=none deletes "
      "only (for operators without results, like string assignment)",
      [](TransformContext &Ctx) {
        std::string Reason;
        Routine *Entry = Ctx.routine(Reason);
        if (!Entry)
          return ApplyResult::failure(Reason);
        std::string Code = Ctx.arg("code", Reason);
        if (Code.empty())
          return ApplyResult::failure(Reason);

        StmtList Parsed;
        if (Code != "none") {
          Parsed = parseRuleCode(Code, Reason);
          if (Parsed.empty())
            return ApplyResult::failure(Reason);
          if (!checkInterface(Ctx.Desc, Parsed, Reason))
            return ApplyResult::failure(Reason);
          // The replacement must produce at least one output somewhere.
          bool HasOutput = false;
          for (const StmtPtr &S : Parsed)
            forEachStmt(*S, [&](const Stmt &Sub) {
              if (isa<OutputStmt>(&Sub))
                HasOutput = true;
            });
          if (!HasOutput)
            return ApplyResult::failure(
                "replacement code contains no output statement");
        }

        // Remove outputs at any nesting depth (locc reports its results
        // from inside a conditional); empty-if-elim can clean any shells
        // left behind.
        unsigned Removed = 0;
        walkStmts(Entry->Body, [&](StmtSite &Site) {
          if (isa<OutputStmt>(&Site.stmt())) {
            Site.splice({});
            ++Removed;
          }
          return Walk::Continue;
        });
        if (Removed == 0)
          return ApplyResult::failure("entry routine has no output "
                                      "statement to replace");
        for (StmtPtr &S : Parsed)
          Entry->Body.push_back(std::move(S));
        return ApplyResult::success(SemanticsEffect::Augmenting,
                                    Code == "none"
                                        ? "deleted machine outputs"
                                        : "replaced machine outputs with "
                                          "operator-level epilogue");
      }));
}
