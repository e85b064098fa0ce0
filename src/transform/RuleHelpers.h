//===- RuleHelpers.h - Shared machinery of the rewrite rules ----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Private helpers shared by the transformation category files.
///
/// Every rule that looks for statements meets them in one order, the
/// order of `walkStmts`: pre-order, then-arm before else-arm, and a
/// statement the callback replaces is not scanned again. Most local rules
/// are (match, rewrite) pairs over expression or statement occurrences
/// within one routine, built on that walk:
///
///   * with no `occurrence` argument a rule rewrites every matching site
///     in the routine (one scripted step, as the paper's bulk constant
///     folding suggests);
///   * `occurrence=N` (0-based, in pre-order) rewrites only the Nth match,
///     giving scripts cursor-level precision.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_TRANSFORM_RULEHELPERS_H
#define EXTRA_TRANSFORM_RULEHELPERS_H

#include "transform/Transform.h"

#include "isdl/Traverse.h"

#include <functional>

namespace extra {
namespace transform {
namespace detail {

/// A statement offered by walkStmts: its owning list and its index there.
struct StmtSite {
  isdl::StmtList &List;
  size_t Index;
  /// How many statements took its place, once the callback has spliced.
  std::optional<size_t> Spliced;

  isdl::Stmt &stmt() const { return *List[Index]; }
  /// Replaces the statement by \p With; an empty list deletes it. The
  /// walk resumes after the replacement without scanning it.
  void splice(isdl::StmtList With);
};

/// What walkStmts does after its callback has seen a statement.
enum class Walk { Continue, Stop };

/// Offers every statement of \p Body to \p Fn in pre-order, then-arm
/// before else-arm, descending into the nested lists of each statement
/// the callback did not splice. Returns false when the callback stopped
/// the walk.
bool walkStmts(isdl::StmtList &Body,
               const std::function<Walk(StmtSite &)> &Fn);

/// The one statement of \p Body that satisfies \p P, at any depth. An
/// invalid locus when there is none, or when there are several (then
/// \p Several is set).
isdl::StmtLocus findUnique(isdl::StmtList &Body,
                           const std::function<bool(const isdl::Stmt &)> &P,
                           bool &Several);

/// \p S as an assignment to the variable \p Var, or null.
const isdl::AssignStmt *assignTo(const isdl::Stmt &S, const std::string &Var);

/// Match predicate over an expression in context.
using ExprMatch =
    std::function<bool(const isdl::Expr &, const isdl::Description &)>;
/// In-place rewrite of a matched expression slot.
using ExprRewrite =
    std::function<void(isdl::ExprPtr &, const isdl::Description &)>;

/// A local rule rewriting expression occurrences within a routine.
class ExprRule : public Transformation {
public:
  ExprRule(std::string Name, std::string Description, ExprMatch Match,
           ExprRewrite Rewrite)
      : Transformation(std::move(Name), Category::Local,
                       std::move(Description)),
        Match(std::move(Match)), Rewrite(std::move(Rewrite)) {}

  ApplyResult apply(TransformContext &Ctx) const override;

private:
  ExprMatch Match;
  ExprRewrite Rewrite;
};

/// Match predicate over a statement in context.
using StmtMatch =
    std::function<bool(const isdl::Stmt &, const isdl::Description &)>;
/// Rewrites the matched statement; may replace it with several statements
/// (returned list), or an empty list to delete it.
using StmtRewrite = std::function<isdl::StmtList(isdl::StmtPtr,
                                                 const isdl::Description &)>;

/// A rule rewriting statement occurrences within a routine.
class StmtRule : public Transformation {
public:
  StmtRule(std::string Name, Category Cat, std::string Description,
           StmtMatch Match, StmtRewrite Rewrite)
      : Transformation(std::move(Name), Cat, std::move(Description)),
        Match(std::move(Match)), Rewrite(std::move(Rewrite)) {}

  ApplyResult apply(TransformContext &Ctx) const override;

private:
  StmtMatch Match;
  StmtRewrite Rewrite;
};

/// A rule implemented by a free function over the context.
class LambdaRule : public Transformation {
public:
  using Fn = std::function<ApplyResult(TransformContext &)>;
  LambdaRule(std::string Name, Category Cat, std::string Description, Fn Apply)
      : Transformation(std::move(Name), Cat, std::move(Description)),
        Apply(std::move(Apply)) {}

  ApplyResult apply(TransformContext &Ctx) const override { return Apply(Ctx); }

private:
  Fn Apply;
};

/// True when evaluating \p E twice (or not at all) is unobservable: no
/// calls and no memory reads.
inline bool isPure(const isdl::Expr &E) { return !isdl::hasCallOrMem(E); }

/// The literal value of \p E if it is an IntLit or CharLit.
std::optional<int64_t> litValue(const isdl::Expr &E);

/// Parses the rule-argument statement code with a local diagnostic
/// engine; empty list + Reason on parse failure.
isdl::StmtList parseRuleCode(const std::string &Code, std::string &Reason);

/// `fold-constants` (registered with the global rules): offers every
/// node of the routine to the per-node rewrites of its folding
/// sub-rules, one walk per round, until a round changes nothing.
ApplyResult foldConstants(TransformContext &Ctx);

} // namespace detail
} // namespace transform
} // namespace extra

#endif // EXTRA_TRANSFORM_RULEHELPERS_H
