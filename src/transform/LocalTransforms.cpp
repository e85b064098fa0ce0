//===- LocalTransforms.cpp - Local rewrite rules ----------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "local transformations which manipulate the descriptions based on
/// local properties ... arithmetic and logical identities" (§5), plus the
/// paper's one pictured rule, the reverse-conditional of Figure 1.
///
/// Purity conditions: a rewrite may only delete or duplicate an
/// expression when it has no calls and no memory reads (`isPure`).
/// Boolean conditions: logical identities that change how many times a
/// value is tested (e.g. `not not x -> x`) require the operand to be
/// boolean-valued (flag, relational, or logical expression).
///
/// The folding identities are written once, as rewrites of one site:
/// each is a rule of its own, and `fold-constants` offers every node of a
/// routine to all of them in one walk per round.
///
//===----------------------------------------------------------------------===//

#include "transform/RuleHelpers.h"

#include "isdl/Equiv.h"

using namespace extra;
using namespace extra::transform;
using namespace extra::transform::detail;
using namespace extra::isdl;

namespace {

bool isLit(const Expr &E, int64_t V) {
  auto K = litValue(E);
  return K && *K == V;
}

const BinaryExpr *asBinary(const Expr &E, BinaryOp Op) {
  const auto *B = dyn_cast<BinaryExpr>(&E);
  return B && B->getOp() == Op ? B : nullptr;
}

template <BinaryOp Op> bool is(BinaryOp O) { return O == Op; }

/// An expression rule of this file: its name and documentation, whether
/// fold-constants offers it to every node, and its rewrite of one site.
struct ExprRow {
  const char *Name;
  const char *Doc;
  bool Folds;
  ExprMatch Match;
  ExprRewrite Rewrite;
};

/// The fold of `k1 op k2` into its value, for the operators \p Applies
/// accepts (k2 nonzero for a division).
ExprRow constFold(const char *Name, const char *Doc,
                  bool (*Applies)(BinaryOp)) {
  return {Name, Doc, true,
          [Applies](const Expr &E, const Description &) {
            const auto *B = dyn_cast<BinaryExpr>(&E);
            if (!B || !Applies(B->getOp()))
              return false;
            auto L = litValue(*B->getLHS()), R = litValue(*B->getRHS());
            return L && R && applyBinary(B->getOp(), *L, *R);
          },
          [](ExprPtr &Slot, const Description &) {
            const auto *B = cast<BinaryExpr>(Slot.get());
            Slot = intLit(*applyBinary(B->getOp(), *litValue(*B->getLHS()),
                                       *litValue(*B->getRHS())));
          }};
}

/// The fold of `op k` into its value.
ExprRow unaryFold(const char *Name, const char *Doc, UnaryOp Op) {
  return {Name, Doc, true,
          [Op](const Expr &E, const Description &) {
            const auto *U = dyn_cast<UnaryExpr>(&E);
            return U && U->getOp() == Op && litValue(*U->getOperand());
          },
          [](ExprPtr &Slot, const Description &) {
            const auto *U = cast<UnaryExpr>(Slot.get());
            Slot = intLit(applyUnary(U->getOp(), *litValue(*U->getOperand())));
          }};
}

/// The expression rules, in registration order.
const std::vector<ExprRow> &exprRows() {
  static const std::vector<ExprRow> Rows = {
      //--- Constant folding -------------------------------------------------
      constFold("fold-add", "fold k1 + k2 to its value", is<BinaryOp::Add>),
      constFold("fold-sub", "fold k1 - k2 to its value", is<BinaryOp::Sub>),
      constFold("fold-mul", "fold k1 * k2 to its value", is<BinaryOp::Mul>),
      constFold("fold-div", "fold k1 / k2 to its value (k2 nonzero)",
                is<BinaryOp::Div>),
      constFold("fold-and", "fold k1 and k2 to 0 or 1", is<BinaryOp::And>),
      constFold("fold-or", "fold k1 or k2 to 0 or 1", is<BinaryOp::Or>),
      constFold("fold-compare", "fold a comparison of two literals to 0 or 1",
                isRelational),
      unaryFold("fold-not", "fold not k to 0 or 1", UnaryOp::Not),
      unaryFold("fold-neg", "fold -k to its value", UnaryOp::Neg),

      //--- Arithmetic identities --------------------------------------------
      {"add-zero", "x + 0 -> x and 0 + x -> x", true,
       [](const Expr &E, const Description &) {
         const auto *B = asBinary(E, BinaryOp::Add);
         return B && (isLit(*B->getRHS(), 0) || isLit(*B->getLHS(), 0));
       },
       [](ExprPtr &Slot, const Description &) {
         auto *B = cast<BinaryExpr>(Slot.get());
         Slot = isLit(*B->getRHS(), 0) ? B->takeLHS() : B->takeRHS();
       }},
      {"sub-zero", "x - 0 -> x", true,
       [](const Expr &E, const Description &) {
         const auto *B = asBinary(E, BinaryOp::Sub);
         return B && isLit(*B->getRHS(), 0);
       },
       [](ExprPtr &Slot, const Description &) {
         Slot = cast<BinaryExpr>(Slot.get())->takeLHS();
       }},
      {"sub-self", "x - x -> 0 (x pure)", false,
       [](const Expr &E, const Description &) {
         const auto *B = asBinary(E, BinaryOp::Sub);
         return B && isPure(*B->getLHS()) &&
                exactEqual(*B->getLHS(), *B->getRHS());
       },
       [](ExprPtr &Slot, const Description &) { Slot = intLit(0); }},
      {"mul-one", "x * 1 -> x and 1 * x -> x", true,
       [](const Expr &E, const Description &) {
         const auto *B = asBinary(E, BinaryOp::Mul);
         return B && (isLit(*B->getRHS(), 1) || isLit(*B->getLHS(), 1));
       },
       [](ExprPtr &Slot, const Description &) {
         auto *B = cast<BinaryExpr>(Slot.get());
         Slot = isLit(*B->getRHS(), 1) ? B->takeLHS() : B->takeRHS();
       }},
      {"mul-zero", "x * 0 -> 0 (x pure)", true,
       [](const Expr &E, const Description &) {
         const auto *B = asBinary(E, BinaryOp::Mul);
         if (!B)
           return false;
         if (isLit(*B->getRHS(), 0))
           return isPure(*B->getLHS());
         if (isLit(*B->getLHS(), 0))
           return isPure(*B->getRHS());
         return false;
       },
       [](ExprPtr &Slot, const Description &) { Slot = intLit(0); }},
      {"neg-neg", "-(-x) -> x", true,
       [](const Expr &E, const Description &) {
         const auto *U = dyn_cast<UnaryExpr>(&E);
         if (!U || U->getOp() != UnaryOp::Neg)
           return false;
         const auto *Inner = dyn_cast<UnaryExpr>(U->getOperand());
         return Inner && Inner->getOp() == UnaryOp::Neg;
       },
       [](ExprPtr &Slot, const Description &) {
         ExprPtr Inner = cast<UnaryExpr>(Slot.get())->takeOperand();
         Slot = cast<UnaryExpr>(Inner.get())->takeOperand();
       }},
      {"fold-const-chain",
       "(a +/- k1) +/- k2 -> a +/- k (combine literal addends)", false,
       [](const Expr &E, const Description &) {
         const auto *B = dyn_cast<BinaryExpr>(&E);
         if (!B ||
             (B->getOp() != BinaryOp::Add && B->getOp() != BinaryOp::Sub) ||
             !litValue(*B->getRHS()))
           return false;
         const auto *Inner = dyn_cast<BinaryExpr>(B->getLHS());
         return Inner &&
                (Inner->getOp() == BinaryOp::Add ||
                 Inner->getOp() == BinaryOp::Sub) &&
                litValue(*Inner->getRHS());
       },
       [](ExprPtr &Slot, const Description &) {
         auto *B = cast<BinaryExpr>(Slot.get());
         int64_t K2 = *litValue(*B->getRHS());
         if (B->getOp() == BinaryOp::Sub)
           K2 = -K2;
         ExprPtr InnerPtr = B->takeLHS();
         auto *Inner = cast<BinaryExpr>(InnerPtr.get());
         int64_t K1 = *litValue(*Inner->getRHS());
         if (Inner->getOp() == BinaryOp::Sub)
           K1 = -K1;
         int64_t K = K1 + K2;
         ExprPtr Base = Inner->takeLHS();
         if (K == 0)
           Slot = std::move(Base);
         else if (K > 0)
           Slot = binary(BinaryOp::Add, std::move(Base), intLit(K));
         else
           Slot = binary(BinaryOp::Sub, std::move(Base), intLit(-K));
       }},
      {"rel-shift-const",
       "(a +/- k1) rel k2 -> a rel k2' (move a literal across a relation)",
       false,
       [](const Expr &E, const Description &) {
         const auto *B = dyn_cast<BinaryExpr>(&E);
         if (!B || !isRelational(B->getOp()) || !litValue(*B->getRHS()))
           return false;
         const auto *Inner = dyn_cast<BinaryExpr>(B->getLHS());
         return Inner &&
                (Inner->getOp() == BinaryOp::Add ||
                 Inner->getOp() == BinaryOp::Sub) &&
                litValue(*Inner->getRHS());
       },
       [](ExprPtr &Slot, const Description &) {
         auto *B = cast<BinaryExpr>(Slot.get());
         int64_t K2 = *litValue(*B->getRHS());
         ExprPtr InnerPtr = B->takeLHS();
         auto *Inner = cast<BinaryExpr>(InnerPtr.get());
         int64_t K1 = *litValue(*Inner->getRHS());
         int64_t NewK = Inner->getOp() == BinaryOp::Add ? K2 - K1 : K2 + K1;
         Slot = binary(B->getOp(), Inner->takeLHS(), intLit(NewK));
       }},

      //--- Logical identities -----------------------------------------------
      {"not-not", "not (not x) -> x (x boolean)", true,
       [](const Expr &E, const Description &D) {
         const auto *U = dyn_cast<UnaryExpr>(&E);
         if (!U || U->getOp() != UnaryOp::Not)
           return false;
         const auto *Inner = dyn_cast<UnaryExpr>(U->getOperand());
         return Inner && Inner->getOp() == UnaryOp::Not &&
                isBooleanExpr(D, *Inner->getOperand());
       },
       [](ExprPtr &Slot, const Description &) {
         ExprPtr Inner = cast<UnaryExpr>(Slot.get())->takeOperand();
         Slot = cast<UnaryExpr>(Inner.get())->takeOperand();
       }},
      {"and-true", "x and 1 -> x and 1 and x -> x (x boolean)", true,
       [](const Expr &E, const Description &D) {
         const auto *B = asBinary(E, BinaryOp::And);
         if (!B)
           return false;
         if (isLit(*B->getRHS(), 1))
           return isBooleanExpr(D, *B->getLHS());
         if (isLit(*B->getLHS(), 1))
           return isBooleanExpr(D, *B->getRHS());
         return false;
       },
       [](ExprPtr &Slot, const Description &) {
         auto *B = cast<BinaryExpr>(Slot.get());
         Slot = isLit(*B->getRHS(), 1) ? B->takeLHS() : B->takeRHS();
       }},
      {"and-false", "x and 0 -> 0 (x pure)", true,
       [](const Expr &E, const Description &) {
         const auto *B = asBinary(E, BinaryOp::And);
         if (!B)
           return false;
         if (isLit(*B->getRHS(), 0))
           return isPure(*B->getLHS());
         if (isLit(*B->getLHS(), 0))
           return isPure(*B->getRHS());
         return false;
       },
       [](ExprPtr &Slot, const Description &) { Slot = intLit(0); }},
      {"or-false", "x or 0 -> x and 0 or x -> x (x boolean)", true,
       [](const Expr &E, const Description &D) {
         const auto *B = asBinary(E, BinaryOp::Or);
         if (!B)
           return false;
         if (isLit(*B->getRHS(), 0))
           return isBooleanExpr(D, *B->getLHS());
         if (isLit(*B->getLHS(), 0))
           return isBooleanExpr(D, *B->getRHS());
         return false;
       },
       [](ExprPtr &Slot, const Description &) {
         auto *B = cast<BinaryExpr>(Slot.get());
         Slot = isLit(*B->getRHS(), 0) ? B->takeLHS() : B->takeRHS();
       }},
      {"or-true", "x or 1 -> 1 (x pure)", true,
       [](const Expr &E, const Description &) {
         const auto *B = asBinary(E, BinaryOp::Or);
         if (!B)
           return false;
         if (isLit(*B->getRHS(), 1))
           return isPure(*B->getLHS());
         if (isLit(*B->getLHS(), 1))
           return isPure(*B->getRHS());
         return false;
       },
       [](ExprPtr &Slot, const Description &) { Slot = intLit(1); }},
      {"de-morgan-and", "not (a and b) -> (not a) or (not b)", false,
       [](const Expr &E, const Description &) {
         const auto *U = dyn_cast<UnaryExpr>(&E);
         return U && U->getOp() == UnaryOp::Not &&
                asBinary(*U->getOperand(), BinaryOp::And);
       },
       [](ExprPtr &Slot, const Description &) {
         ExprPtr Inner = cast<UnaryExpr>(Slot.get())->takeOperand();
         auto *B = cast<BinaryExpr>(Inner.get());
         Slot = binary(BinaryOp::Or, unary(UnaryOp::Not, B->takeLHS()),
                       unary(UnaryOp::Not, B->takeRHS()));
       }},

      //--- Comparison rewrites ----------------------------------------------
      {"eq-to-diff-zero", "a = b -> (a - b) = 0 (also a <> b)", false,
       [](const Expr &E, const Description &) {
         const auto *B = dyn_cast<BinaryExpr>(&E);
         return B &&
                (B->getOp() == BinaryOp::Eq || B->getOp() == BinaryOp::Ne) &&
                !isLit(*B->getRHS(), 0);
       },
       [](ExprPtr &Slot, const Description &) {
         auto *B = cast<BinaryExpr>(Slot.get());
         BinaryOp Op = B->getOp();
         Slot = binary(Op, binary(BinaryOp::Sub, B->takeLHS(), B->takeRHS()),
                       intLit(0));
       }},
      {"diff-zero-to-eq", "(a - b) = 0 -> a = b (also <>)", false,
       [](const Expr &E, const Description &) {
         const auto *B = dyn_cast<BinaryExpr>(&E);
         return B &&
                (B->getOp() == BinaryOp::Eq || B->getOp() == BinaryOp::Ne) &&
                isLit(*B->getRHS(), 0) &&
                asBinary(*B->getLHS(), BinaryOp::Sub);
       },
       [](ExprPtr &Slot, const Description &) {
         auto *B = cast<BinaryExpr>(Slot.get());
         BinaryOp Op = B->getOp();
         ExprPtr Diff = B->takeLHS();
         auto *Sub = cast<BinaryExpr>(Diff.get());
         Slot = binary(Op, Sub->takeLHS(), Sub->takeRHS());
       }},
      {"ne-to-not-eq", "a <> b -> not (a = b)", false,
       [](const Expr &E, const Description &) {
         return asBinary(E, BinaryOp::Ne) != nullptr;
       },
       [](ExprPtr &Slot, const Description &) {
         auto *B = cast<BinaryExpr>(Slot.get());
         Slot = unary(UnaryOp::Not,
                      binary(BinaryOp::Eq, B->takeLHS(), B->takeRHS()));
       }},
      {"swap-relational-operands", "a rel b -> b rel' a", false,
       [](const Expr &E, const Description &) {
         const auto *B = dyn_cast<BinaryExpr>(&E);
         return B && isRelational(B->getOp());
       },
       [](ExprPtr &Slot, const Description &) {
         auto *B = cast<BinaryExpr>(Slot.get());
         ExprPtr L = B->takeLHS();
         ExprPtr Rv = B->takeRHS();
         Slot = binary(swapRelational(B->getOp()), std::move(Rv), std::move(L));
       }},
  };
  return Rows;
}

/// A statement rule of fold-constants: its name, documentation and
/// rewrite of one statement.
struct StmtRow {
  const char *Name;
  const char *Doc;
  StmtMatch Match;
  StmtRewrite Rewrite;
};

/// The statement rules fold-constants offers every statement, in
/// registration order.
const std::vector<StmtRow> &foldStmtRows() {
  static const std::vector<StmtRow> Rows = {
      {"if-true-elim", "if 1 then A else B -> A (literal condition)",
       [](const Stmt &S, const Description &) {
         const auto *If = dyn_cast<IfStmt>(&S);
         if (!If)
           return false;
         auto K = litValue(*If->getCond());
         return K && *K != 0;
       },
       [](StmtPtr S, const Description &) {
         return std::move(cast<IfStmt>(S.get())->getThen());
       }},
      {"if-false-elim", "if 0 then A else B -> B (literal condition)",
       [](const Stmt &S, const Description &) {
         const auto *If = dyn_cast<IfStmt>(&S);
         if (!If)
           return false;
         auto K = litValue(*If->getCond());
         return K && *K == 0;
       },
       [](StmtPtr S, const Description &) {
         return std::move(cast<IfStmt>(S.get())->getElse());
       }},
      {"empty-if-elim", "delete an if with two empty arms and a pure condition",
       [](const Stmt &S, const Description &) {
         const auto *If = dyn_cast<IfStmt>(&S);
         return If && If->getThen().empty() && If->getElse().empty() &&
                isPure(*If->getCond());
       },
       [](StmtPtr, const Description &) { return StmtList(); }},
      {"exit-when-false-elim", "delete exit_when (0)",
       [](const Stmt &S, const Description &) {
         const auto *E = dyn_cast<ExitWhenStmt>(&S);
         if (!E)
           return false;
         auto K = litValue(*E->getCond());
         return K && *K == 0;
       },
       [](StmtPtr, const Description &) { return StmtList(); }},
  };
  return Rows;
}

/// True when statement \p I of \p List is a repeat that exits before
/// running anything: its first statement is exit_when of a nonzero
/// literal, or `exit_when (v = 0)` directly preceded by `v <- 0`.
bool isDeadLoop(const StmtList &List, size_t I) {
  const auto *Rep = dyn_cast<RepeatStmt>(List[I].get());
  if (!Rep || Rep->getBody().empty())
    return false;
  const auto *E = dyn_cast<ExitWhenStmt>(Rep->getBody().front().get());
  if (!E)
    return false;
  auto K = litValue(*E->getCond());
  if (K && *K != 0)
    return true;
  if (I == 0)
    return false;
  const auto *Cmp = dyn_cast<BinaryExpr>(E->getCond());
  const auto *Prev = dyn_cast<AssignStmt>(List[I - 1].get());
  if (!Cmp || !Prev || Cmp->getOp() != BinaryOp::Eq)
    return false;
  const auto *V = dyn_cast<VarRef>(Cmp->getLHS());
  auto Zero = litValue(*Cmp->getRHS());
  auto PrevVal = litValue(*Prev->getValue());
  return V && Zero && *Zero == 0 && PrevVal && *PrevVal == 0 &&
         Prev->targetVarName() == V->getName();
}

/// `swap-commutative`: a op b -> b op a. An optional `op` argument
/// restricts matching to one operator spelling ("+", "*", "and", "or"),
/// so occurrence addressing counts only that operator's sites.
class CommutativeSwapRule : public Transformation {
public:
  CommutativeSwapRule()
      : Transformation("swap-commutative", Category::Local,
                       "a op b -> b op a for +, *, and, or (optional arg "
                       "op restricts the operator)") {}

  ApplyResult apply(TransformContext &Ctx) const override {
    std::string Reason;
    Routine *R = Ctx.routine(Reason);
    if (!R)
      return ApplyResult::failure(Reason);
    std::string OpFilter = Ctx.argOr("op", "");
    std::optional<long> Wanted = Ctx.occurrence(Reason);
    if (!Wanted)
      return ApplyResult::failure(Reason);
    long Seen = 0;
    unsigned Rewritten = 0;
    for (StmtPtr &S : R->Body)
      forEachExprSlot(*S, [&](ExprPtr &Slot) {
        auto *B = dyn_cast<BinaryExpr>(Slot.get());
        if (!B)
          return;
        switch (B->getOp()) {
        case BinaryOp::Add:
        case BinaryOp::Mul:
        case BinaryOp::And:
        case BinaryOp::Or:
          break;
        default:
          return;
        }
        if (!OpFilter.empty() && OpFilter != spelling(B->getOp()))
          return;
        // `and`/`or` evaluate both operands (no short circuit); purity
        // keeps call order stable for the differential check.
        if (!detail::isPure(*B->getLHS()) || !detail::isPure(*B->getRHS()))
          return;
        long Occurrence = Seen++;
        if (*Wanted >= 0 && Occurrence != *Wanted)
          return;
        ExprPtr L = B->takeLHS();
        ExprPtr Rv = B->takeRHS();
        B->setLHS(std::move(Rv));
        B->setRHS(std::move(L));
        ++Rewritten;
      });
    if (Rewritten == 0)
      return ApplyResult::failure("no matching commutative operator");
    return ApplyResult::success(SemanticsEffect::Preserving,
                                std::to_string(Rewritten) +
                                    " site(s) swapped");
  }
};

} // namespace

ApplyResult detail::foldConstants(TransformContext &Ctx) {
  // The paper describes simplification as a mass of small steps; this
  // composite is the labor-saving form, while scripts that want
  // 1982-style granularity invoke the fine-grained rules directly. Each
  // round is one walk: a statement's own expressions are folded bottom-up,
  // then the statement itself is offered to the statement rewrites.
  // Every rewrite shrinks the routine, so the rounds end.
  std::string Reason;
  Routine *R = Ctx.routine(Reason);
  if (!R)
    return ApplyResult::failure("nothing to fold");
  const Description &D = Ctx.Desc;
  bool Any = false, Changed = true;
  while (Changed) {
    Changed = false;
    walkStmts(R->Body, [&](StmtSite &Site) {
      forEachOwnExprSlot(Site.stmt(), [&](ExprPtr &Slot) {
        for (const ExprRow &Row : exprRows())
          if (Row.Folds && Row.Match(*Slot, D)) {
            Row.Rewrite(Slot, D);
            Changed = true;
          }
      });
      for (const StmtRow &Row : foldStmtRows())
        if (Row.Match(Site.stmt(), D)) {
          Site.splice(Row.Rewrite(std::move(Site.List[Site.Index]), D));
          Changed = true;
          return Walk::Continue;
        }
      if (isDeadLoop(Site.List, Site.Index)) {
        Site.splice({});
        Changed = true;
      }
      return Walk::Continue;
    });
    Any = Any || Changed;
  }
  if (!Any)
    return ApplyResult::failure("nothing to fold");
  return ApplyResult::success(SemanticsEffect::Preserving,
                              "constant folding reached a fixed point");
}

void transform::registerLocalTransforms(Registry &R) {
  for (const ExprRow &Row : exprRows())
    R.add(std::make_unique<ExprRule>(Row.Name, Row.Doc, Row.Match,
                                     Row.Rewrite));
  R.add(std::make_unique<CommutativeSwapRule>());

  //--- Statement-level local rules -------------------------------------------
  R.add(std::make_unique<StmtRule>(
      "reverse-conditional", Category::Local,
      "Figure 1: if e then A else B -> if not e then B else A",
      [](const Stmt &S, const Description &) { return isa<IfStmt>(&S); },
      [](StmtPtr S, const Description &) {
        auto *If = cast<IfStmt>(S.get());
        StmtList Then = std::move(If->getThen());
        StmtList Else = std::move(If->getElse());
        StmtPtr New = ifStmt(unary(UnaryOp::Not, If->takeCond()),
                             std::move(Else), std::move(Then));
        StmtList Out;
        Out.push_back(std::move(New));
        return Out;
      }));

  R.add(std::make_unique<StmtRule>(
      "if-not-elim", Category::Local,
      "if not e then A else B -> if e then B else A",
      [](const Stmt &S, const Description &) {
        const auto *If = dyn_cast<IfStmt>(&S);
        if (!If)
          return false;
        const auto *U = dyn_cast<UnaryExpr>(If->getCond());
        return U && U->getOp() == UnaryOp::Not;
      },
      [](StmtPtr S, const Description &) {
        auto *If = cast<IfStmt>(S.get());
        ExprPtr Cond = cast<UnaryExpr>(If->getCond())->takeOperand();
        StmtList Then = std::move(If->getThen());
        StmtList Else = std::move(If->getElse());
        StmtList Out;
        Out.push_back(ifStmt(std::move(Cond), std::move(Else),
                             std::move(Then)));
        return Out;
      }));

  for (const StmtRow &Row : foldStmtRows())
    R.add(std::make_unique<StmtRule>(Row.Name, Category::Local, Row.Doc,
                                     Row.Match, Row.Rewrite));

  R.add(std::make_unique<LambdaRule>(
      "dead-loop-elim", Category::Local,
      "delete a repeat that exits before running anything: its first "
      "statement is exit_when of a nonzero literal, or exit_when (v = 0) "
      "directly preceded by `v <- 0`",
      [](TransformContext &Ctx) {
        std::string Reason;
        Routine *R = Ctx.routine(Reason);
        if (!R)
          return ApplyResult::failure(Reason);
        bool Done = !walkStmts(R->Body, [](StmtSite &Site) {
          if (!isDeadLoop(Site.List, Site.Index))
            return Walk::Continue;
          Site.splice({});
          return Walk::Stop;
        });
        if (!Done)
          return ApplyResult::failure("no dead loop found");
        return ApplyResult::success(SemanticsEffect::Preserving,
                                    "deleted a never-iterating loop");
      }));

  R.add(std::make_unique<LambdaRule>(
      "invert-flag", Category::Local,
      "replace flag `var` by its logical negation everywhere: literal "
      "assignments swap 0/1 and every read becomes `not var` (the flag "
      "must not be an input operand or appear in an output value)",
      [](TransformContext &Ctx) {
        std::string Reason;
        std::string Var = Ctx.arg("var", Reason);
        if (Var.empty())
          return ApplyResult::failure(Reason);
        Description &D = Ctx.Desc;
        const Decl *Dl = D.findDecl(Var);
        if (!Dl || !Dl->Type.isFlag())
          return ApplyResult::failure("'" + Var +
                                      "' is not a declared one-bit flag");
        // All writes must be literal 0/1 assignments; no input writes.
        bool Ok = true;
        std::string Why;
        for (const Routine *R : D.routines())
          forEachStmt(R->Body, [&](const Stmt &S) {
            if (const auto *A = dyn_cast<AssignStmt>(&S)) {
              if (A->targetVarName() != Var)
                return;
              auto K = litValue(*A->getValue());
              if (!K || (*K != 0 && *K != 1)) {
                Ok = false;
                Why = "a non-literal value is assigned to '" + Var + "'";
              }
            } else if (const auto *In = dyn_cast<InputStmt>(&S)) {
              for (const std::string &T : In->getTargets())
                if (T == Var) {
                  Ok = false;
                  Why = "'" + Var + "' is an input operand";
                }
            } else if (const auto *O = dyn_cast<OutputStmt>(&S)) {
              for (const ExprPtr &V : O->getValues())
                if (mentionsVar(*V, Var)) {
                  Ok = false;
                  Why = "'" + Var + "' appears in an output value";
                }
            } else if (const auto *As = dyn_cast<AssertStmt>(&S)) {
              if (mentionsVar(*As->getPred(), Var)) {
                Ok = false;
                Why = "'" + Var + "' appears in an assertion";
              }
            } else if (const auto *Cn = dyn_cast<ConstrainStmt>(&S)) {
              if (mentionsVar(*Cn->getPred(), Var)) {
                Ok = false;
                Why = "'" + Var + "' appears in a constraint annotation";
              }
            }
          });
        if (!Ok)
          return ApplyResult::failure(Why);

        // Rewrite: wrap reads, then swap literal writes.
        for (Routine *R : D.routines()) {
          for (StmtPtr &S : R->Body)
            forEachExprSlot(*S, [&](ExprPtr &Slot) {
              if (const auto *V = dyn_cast<VarRef>(Slot.get()))
                if (V->getName() == Var)
                  Slot = unary(UnaryOp::Not, std::move(Slot));
            });
          forEachStmt(R->Body, [&](const Stmt &SC) {
            auto *A = dyn_cast<AssignStmt>(const_cast<Stmt *>(&SC));
            if (!A || A->targetVarName() != Var)
              return;
            // The read-wrapping above also wrapped this literal? No: the
            // value is a literal, not a VarRef. Swap it.
            auto K = litValue(*A->getValue());
            assert(K && "checked above");
            A->setValue(intLit(*K == 0 ? 1 : 0));
          });
        }
        return ApplyResult::success(SemanticsEffect::Preserving,
                                    "inverted flag '" + Var + "'");
      }));

  R.add(std::make_unique<StmtRule>(
      "flag-assign-to-if", Category::Local,
      "f <- C -> if C then f <- 1 else f <- 0 (C boolean)",
      [](const Stmt &S, const Description &D) {
        const auto *A = dyn_cast<AssignStmt>(&S);
        return A && isa<VarRef>(A->getTarget()) &&
               isBooleanExpr(D, *A->getValue()) && !litValue(*A->getValue());
      },
      [](StmtPtr S, const Description &) {
        auto *A = cast<AssignStmt>(S.get());
        std::string Name = A->targetVarName();
        StmtList Then, Else;
        Then.push_back(assign(Name, intLit(1)));
        Else.push_back(assign(Name, intLit(0)));
        StmtList Out;
        Out.push_back(ifStmt(A->takeValue(), std::move(Then), std::move(Else)));
        return Out;
      }));

  R.add(std::make_unique<StmtRule>(
      "if-to-flag-assign", Category::Local,
      "if C then f <- 1 else f <- 0 -> f <- C (C boolean)",
      [](const Stmt &S, const Description &D) {
        const auto *If = dyn_cast<IfStmt>(&S);
        if (!If || If->getThen().size() != 1 || If->getElse().size() != 1 ||
            !isBooleanExpr(D, *If->getCond()))
          return false;
        const auto *T = dyn_cast<AssignStmt>(If->getThen()[0].get());
        const auto *E = dyn_cast<AssignStmt>(If->getElse()[0].get());
        if (!T || !E)
          return false;
        std::string Name = T->targetVarName();
        return !Name.empty() && Name == E->targetVarName() &&
               isLit(*T->getValue(), 1) && isLit(*E->getValue(), 0);
      },
      [](StmtPtr S, const Description &) {
        auto *If = cast<IfStmt>(S.get());
        std::string Name =
            cast<AssignStmt>(If->getThen()[0].get())->targetVarName();
        StmtList Out;
        Out.push_back(assign(Name, If->takeCond()));
        return Out;
      }));
}
