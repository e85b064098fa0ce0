//===- Traverse.h - AST walking and rewriting helpers -----------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generic walkers over ISDL statements and expressions. Transformations
/// and dataflow analyses use these instead of hand-rolled recursion.
/// `forEachExprSlot` visits owning ExprPtr slots bottom-up so callers can
/// rewrite subexpressions in place.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_ISDL_TRAVERSE_H
#define EXTRA_ISDL_TRAVERSE_H

#include "isdl/AST.h"

#include <functional>
#include <set>
#include <string>

namespace extra {
namespace isdl {

/// Visits \p E and every subexpression, pre-order.
void forEachExpr(const Expr &E, const std::function<void(const Expr &)> &Fn);

/// Visits every expression contained in \p S (including nested statements),
/// pre-order.
void forEachExpr(const Stmt &S, const std::function<void(const Expr &)> &Fn);

/// Visits every expression contained in \p Stmts.
void forEachExpr(const StmtList &Stmts,
                 const std::function<void(const Expr &)> &Fn);

/// Visits \p S and every nested statement, pre-order.
void forEachStmt(const Stmt &S, const std::function<void(const Stmt &)> &Fn);

/// Visits every statement in \p Stmts, pre-order, including nested bodies.
void forEachStmt(const StmtList &Stmts,
                 const std::function<void(const Stmt &)> &Fn);

/// Visits every owning expression slot under \p S bottom-up, allowing the
/// callback to replace the pointed-to expression.
void forEachExprSlot(Stmt &S, const std::function<void(ExprPtr &)> &Fn);

/// Visits the owning expression slots of \p S itself bottom-up, not those
/// of its nested statements.
void forEachOwnExprSlot(Stmt &S, const std::function<void(ExprPtr &)> &Fn);

/// Visits every owning expression slot in \p Stmts bottom-up.
void forEachExprSlot(StmtList &Stmts, const std::function<void(ExprPtr &)> &Fn);

/// Visits every owning expression slot under \p E bottom-up, then \p Slot
/// itself.
void forEachExprSlot(ExprPtr &Slot, const std::function<void(ExprPtr &)> &Fn);

/// True if any (sub)expression of \p E is a VarRef named \p Name.
bool mentionsVar(const Expr &E, const std::string &Name);

/// True if any expression within \p S mentions \p Name (as a VarRef).
bool mentionsVar(const Stmt &S, const std::string &Name);

/// True if \p E contains a memory reference or a routine call (and thus
/// cannot be freely duplicated or reordered without side-effect analysis).
bool hasCallOrMem(const Expr &E);

/// Names of all variables referenced (read or written) under \p S.
std::set<std::string> referencedVars(const Stmt &S);

/// Names of all variables referenced under \p Stmts.
std::set<std::string> referencedVars(const StmtList &Stmts);

/// Names of all routines called under \p Stmts.
std::set<std::string> calledRoutines(const StmtList &Stmts);

/// Renames every VarRef (and input-list entry) named \p From to \p To under
/// \p S. Routine call names are not touched.
void renameVar(Stmt &S, const std::string &From, const std::string &To);
void renameVar(StmtList &Stmts, const std::string &From, const std::string &To);

/// Renames every call of routine \p From to \p To under \p Stmts.
void renameCall(StmtList &Stmts, const std::string &From, const std::string &To);

//===----------------------------------------------------------------------===//
// Statement paths
//===----------------------------------------------------------------------===//

/// Addresses a statement inside a routine body. Steps select statement
/// indices; descending into an IfStmt takes an extra arm step (0 = then,
/// 1 = else); descending into a RepeatStmt has no arm step.
///
/// Example: {2, 0, 1} inside a body means: statement 2 (an if), then-arm,
/// statement 1 of that arm... The interpretation is: after selecting a
/// compound statement, the next number selects the arm for ifs, and the
/// number after that the index within the arm; repeats consume a single
/// index into their body.
using StmtPath = std::vector<unsigned>;

/// A resolved location: the owning list and index within it. Valid until
/// the list is structurally modified.
struct StmtLocus {
  StmtList *List = nullptr;
  size_t Index = 0;

  bool isValid() const { return List && Index < List->size(); }
  Stmt *get() const { return isValid() ? (*List)[Index].get() : nullptr; }
};

/// Resolves \p Path against \p Body. Returns an invalid locus when the path
/// does not address a statement.
StmtLocus resolvePath(StmtList &Body, const StmtPath &Path);

} // namespace isdl
} // namespace extra

#endif // EXTRA_ISDL_TRAVERSE_H
