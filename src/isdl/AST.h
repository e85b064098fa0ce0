//===- AST.h - ISPS-like description language AST ---------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax for the ISPS-like notation the paper uses to describe
/// both high-level language operators and exotic machine instructions
/// (Figures 2 through 5). A Description is a named collection of sections;
/// a section holds register/variable declarations and zero-argument
/// routines; routine bodies are statement lists over a small expression
/// language with byte memory access through the array `Mb`.
///
/// The hierarchy uses LLVM-style kind tags with isa/cast/dyn_cast-style
/// helpers instead of RTTI, and unique_ptr ownership throughout.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_ISDL_AST_H
#define EXTRA_ISDL_AST_H

#include "support/Diagnostics.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace extra {
namespace isdl {

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

/// The declared type of a register, variable, or routine result.
///
/// Registers carry explicit bit ranges (`di<15:0>`, flags are `f<>`, one
/// bit). Language-operator descriptions use the abstract names `integer`
/// and `character` instead; the equivalence matcher derives range
/// constraints when an abstract variable is bound to a sized register.
struct TypeRef {
  enum class Kind {
    None,      ///< No declared type (routine with no result annotation).
    Integer,   ///< Abstract integer, unbounded at description level.
    Character, ///< Abstract character (one byte when interpreted).
    Bits,      ///< Sized register field `<Hi:Lo>`; `<>` is one bit.
  };

  Kind K = Kind::None;
  int Hi = 0; ///< High bit index, inclusive (Bits only).
  int Lo = 0; ///< Low bit index, inclusive (Bits only).

  static TypeRef none() { return TypeRef(); }
  static TypeRef integer() { return TypeRef{Kind::Integer, 0, 0}; }
  static TypeRef character() { return TypeRef{Kind::Character, 0, 0}; }
  static TypeRef bits(int Hi, int Lo) { return TypeRef{Kind::Bits, Hi, Lo}; }
  static TypeRef flag() { return bits(0, 0); }

  bool isBits() const { return K == Kind::Bits; }
  bool isFlag() const { return isBits() && Hi == 0 && Lo == 0; }

  /// Width in bits, or 0 when no bound is declared.
  unsigned widthInBits() const {
    if (K == Kind::Bits)
      return static_cast<unsigned>(Hi - Lo + 1);
    if (K == Kind::Character)
      return 8;
    return 0;
  }

  bool operator==(const TypeRef &O) const {
    return K == O.K && (K != Kind::Bits || (Hi == O.Hi && Lo == O.Lo));
  }

  std::string str() const;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Base class for ISDL expressions.
class Expr {
public:
  enum class Kind {
    IntLit,
    CharLit,
    VarRef,
    MemRef,
    Call,
    Unary,
    Binary,
  };

  virtual ~Expr() = default;

  Kind getKind() const { return K; }
  SourceLoc getLoc() const { return Loc; }
  void setLoc(SourceLoc L) { Loc = L; }

  /// Deep copy, preserving structure (locations are copied verbatim).
  ExprPtr clone() const;

protected:
  explicit Expr(Kind K) : K(K) {}

private:
  Kind K;
  SourceLoc Loc;
};

/// Integer literal.
class IntLit : public Expr {
public:
  explicit IntLit(int64_t Value) : Expr(Kind::IntLit), Value(Value) {}

  int64_t getValue() const { return Value; }
  void setValue(int64_t V) { Value = V; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::IntLit; }

private:
  int64_t Value;
};

/// Character literal, e.g. 'a'.
class CharLit : public Expr {
public:
  explicit CharLit(uint8_t Value) : Expr(Kind::CharLit), Value(Value) {}

  uint8_t getValue() const { return Value; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::CharLit; }

private:
  uint8_t Value;
};

/// Reference to a declared register or variable, e.g. `Src.Base` or `di`.
class VarRef : public Expr {
public:
  explicit VarRef(std::string Name) : Expr(Kind::VarRef), Name(std::move(Name)) {}

  const std::string &getName() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  static bool classof(const Expr *E) { return E->getKind() == Kind::VarRef; }

private:
  std::string Name;
};

/// Main-memory access `Mb[Address]` (one byte, per the paper's model).
class MemRef : public Expr {
public:
  explicit MemRef(ExprPtr Address)
      : Expr(Kind::MemRef), Address(std::move(Address)) {}

  const Expr *getAddress() const { return Address.get(); }
  Expr *getAddress() { return Address.get(); }
  ExprPtr takeAddress() { return std::move(Address); }
  void setAddress(ExprPtr A) { Address = std::move(A); }

  static bool classof(const Expr *E) { return E->getKind() == Kind::MemRef; }

private:
  ExprPtr Address;
};

/// Zero-argument routine call, e.g. `read()` or `fetch()`. Per the paper's
/// restrictions (call-by-value, no aliasing), routines take no reference
/// parameters; operand flow is through description-level state.
class CallExpr : public Expr {
public:
  explicit CallExpr(std::string Callee)
      : Expr(Kind::Call), Callee(std::move(Callee)) {}

  const std::string &getCallee() const { return Callee; }
  void setCallee(std::string C) { Callee = std::move(C); }

  static bool classof(const Expr *E) { return E->getKind() == Kind::Call; }

private:
  std::string Callee;
};

/// Unary operator kinds.
enum class UnaryOp { Not, Neg };

/// Unary expression: `not e` or `-e`.
class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOp Op, ExprPtr Operand)
      : Expr(Kind::Unary), Op(Op), Operand(std::move(Operand)) {}

  UnaryOp getOp() const { return Op; }
  const Expr *getOperand() const { return Operand.get(); }
  Expr *getOperand() { return Operand.get(); }
  ExprPtr takeOperand() { return std::move(Operand); }
  void setOperand(ExprPtr E) { Operand = std::move(E); }

  static bool classof(const Expr *E) { return E->getKind() == Kind::Unary; }

private:
  UnaryOp Op;
  ExprPtr Operand;
};

/// Binary operator kinds, covering arithmetic, logical and relational
/// operators used by the paper's descriptions.
enum class BinaryOp { Add, Sub, Mul, Div, And, Or, Eq, Ne, Lt, Le, Gt, Ge };

/// True for =, <>, <, <=, >, >=.
bool isRelational(BinaryOp Op);
/// Negates a relational operator (= becomes <>, < becomes >=, ...).
BinaryOp negateRelational(BinaryOp Op);
/// Mirrors a relational operator across its operands (< becomes >, ...).
BinaryOp swapRelational(BinaryOp Op);
/// The source spelling of an operator ("+", "and", "=", ...).
const char *spelling(BinaryOp Op);
const char *spelling(UnaryOp Op);

/// Binary expression.
class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOp Op, ExprPtr LHS, ExprPtr RHS)
      : Expr(Kind::Binary), Op(Op), LHS(std::move(LHS)), RHS(std::move(RHS)) {}

  BinaryOp getOp() const { return Op; }
  const Expr *getLHS() const { return LHS.get(); }
  Expr *getLHS() { return LHS.get(); }
  const Expr *getRHS() const { return RHS.get(); }
  Expr *getRHS() { return RHS.get(); }
  ExprPtr takeLHS() { return std::move(LHS); }
  ExprPtr takeRHS() { return std::move(RHS); }
  void setLHS(ExprPtr E) { LHS = std::move(E); }
  void setRHS(ExprPtr E) { RHS = std::move(E); }

  static bool classof(const Expr *E) { return E->getKind() == Kind::Binary; }

private:
  BinaryOp Op;
  ExprPtr LHS, RHS;
};

//===----------------------------------------------------------------------===//
// LLVM-style casting helpers
//===----------------------------------------------------------------------===//

template <typename To, typename From> bool isa(const From *Node) {
  assert(Node && "isa<> on null node");
  return To::classof(Node);
}

template <typename To, typename From> To *cast(From *Node) {
  assert(isa<To>(Node) && "cast<> to incompatible kind");
  return static_cast<To *>(Node);
}

template <typename To, typename From> const To *cast(const From *Node) {
  assert(isa<To>(Node) && "cast<> to incompatible kind");
  return static_cast<const To *>(Node);
}

template <typename To, typename From> To *dyn_cast(From *Node) {
  return Node && To::classof(Node) ? static_cast<To *>(Node) : nullptr;
}

template <typename To, typename From> const To *dyn_cast(const From *Node) {
  return Node && To::classof(Node) ? static_cast<const To *>(Node) : nullptr;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

class Stmt;
using StmtPtr = std::unique_ptr<Stmt>;
using StmtList = std::vector<StmtPtr>;

/// Deep-copies a statement list.
StmtList cloneStmts(const StmtList &Stmts);

/// Base class for ISDL statements.
class Stmt {
public:
  enum class Kind {
    Assign,
    If,
    Repeat,
    ExitWhen,
    Input,
    Output,
    Constrain,
    Assert,
  };

  virtual ~Stmt() = default;

  Kind getKind() const { return K; }
  SourceLoc getLoc() const { return Loc; }
  void setLoc(SourceLoc L) { Loc = L; }

  /// Deep copy.
  StmtPtr clone() const;

protected:
  explicit Stmt(Kind K) : K(K) {}

private:
  Kind K;
  SourceLoc Loc;
};

/// Assignment `target <- value;` where target is a VarRef or MemRef.
class AssignStmt : public Stmt {
public:
  AssignStmt(ExprPtr Target, ExprPtr Value)
      : Stmt(Kind::Assign), Target(std::move(Target)), Value(std::move(Value)) {
    assert((isa<VarRef>(this->Target.get()) ||
            isa<MemRef>(this->Target.get())) &&
           "assignment target must be a variable or memory reference");
  }

  const Expr *getTarget() const { return Target.get(); }
  Expr *getTarget() { return Target.get(); }
  const Expr *getValue() const { return Value.get(); }
  Expr *getValue() { return Value.get(); }
  ExprPtr takeValue() { return std::move(Value); }
  void setValue(ExprPtr V) { Value = std::move(V); }
  void setTarget(ExprPtr T) { Target = std::move(T); }

  /// If the target is a plain variable, its name; otherwise empty.
  std::string targetVarName() const {
    if (const auto *V = dyn_cast<VarRef>(Target.get()))
      return V->getName();
    return std::string();
  }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Assign; }

private:
  ExprPtr Target;
  ExprPtr Value;
};

/// Conditional `if c then ... else ... end_if`.
class IfStmt : public Stmt {
public:
  IfStmt(ExprPtr Cond, StmtList Then, StmtList Else)
      : Stmt(Kind::If), Cond(std::move(Cond)), Then(std::move(Then)),
        Else(std::move(Else)) {}

  const Expr *getCond() const { return Cond.get(); }
  Expr *getCond() { return Cond.get(); }
  ExprPtr takeCond() { return std::move(Cond); }
  void setCond(ExprPtr C) { Cond = std::move(C); }

  StmtList &getThen() { return Then; }
  const StmtList &getThen() const { return Then; }
  StmtList &getElse() { return Else; }
  const StmtList &getElse() const { return Else; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::If; }

private:
  ExprPtr Cond;
  StmtList Then;
  StmtList Else;
};

/// Loop `repeat ... end_repeat`, exited only through exit_when.
class RepeatStmt : public Stmt {
public:
  explicit RepeatStmt(StmtList Body) : Stmt(Kind::Repeat), Body(std::move(Body)) {}

  StmtList &getBody() { return Body; }
  const StmtList &getBody() const { return Body; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Repeat; }

private:
  StmtList Body;
};

/// Loop exit `exit_when cond;` — leaves the innermost repeat when cond is
/// true (nonzero).
class ExitWhenStmt : public Stmt {
public:
  explicit ExitWhenStmt(ExprPtr Cond) : Stmt(Kind::ExitWhen), Cond(std::move(Cond)) {}

  const Expr *getCond() const { return Cond.get(); }
  Expr *getCond() { return Cond.get(); }
  ExprPtr takeCond() { return std::move(Cond); }
  void setCond(ExprPtr C) { Cond = std::move(C); }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::ExitWhen; }

private:
  ExprPtr Cond;
};

/// Explicit operand intake `input (a, b, c);` — the description's formal
/// operands, bound positionally during matching.
class InputStmt : public Stmt {
public:
  explicit InputStmt(std::vector<std::string> Targets)
      : Stmt(Kind::Input), Targets(std::move(Targets)) {}

  std::vector<std::string> &getTargets() { return Targets; }
  const std::vector<std::string> &getTargets() const { return Targets; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Input; }

private:
  std::vector<std::string> Targets;
};

/// Explicit result emission `output (e1, e2);` — the description's results,
/// bound positionally during matching.
class OutputStmt : public Stmt {
public:
  explicit OutputStmt(std::vector<ExprPtr> Values)
      : Stmt(Kind::Output), Values(std::move(Values)) {}

  std::vector<ExprPtr> &getValues() { return Values; }
  const std::vector<ExprPtr> &getValues() const { return Values; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Output; }

private:
  std::vector<ExprPtr> Values;
};

/// Constraint annotation carried in the description text (§3: "constraints
/// and auxiliary assertions [are] created and manipulated by
/// transformations like any other part of the description text").
///
/// The Tag names the constraint family (value, range, offset, relation);
/// Pred is its predicate over description operands.
class ConstrainStmt : public Stmt {
public:
  ConstrainStmt(std::string Tag, ExprPtr Pred)
      : Stmt(Kind::Constrain), Tag(std::move(Tag)), Pred(std::move(Pred)) {}

  const std::string &getTag() const { return Tag; }
  const Expr *getPred() const { return Pred.get(); }
  Expr *getPred() { return Pred.get(); }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Constrain; }

private:
  std::string Tag;
  ExprPtr Pred;
};

/// Auxiliary assertion `assert e;` — a fact transformations may rely on.
class AssertStmt : public Stmt {
public:
  explicit AssertStmt(ExprPtr Pred) : Stmt(Kind::Assert), Pred(std::move(Pred)) {}

  const Expr *getPred() const { return Pred.get(); }
  Expr *getPred() { return Pred.get(); }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Assert; }

private:
  ExprPtr Pred;
};

//===----------------------------------------------------------------------===//
// Declarations, routines, sections, descriptions
//===----------------------------------------------------------------------===//

/// A register or variable declaration within a section.
struct Decl {
  std::string Name;
  TypeRef Type;
  std::string Comment; ///< Trailing `!` comment from the source, if any.
  SourceLoc Loc;
};

/// A zero-argument routine, e.g. `fetch()<7:0> := begin ... end`.
///
/// A routine returns a value by assigning to its own name (Pascal style),
/// as in `read <- Mb[Src.Base + Src.Index];`.
struct Routine {
  std::string Name;
  TypeRef ResultType;
  StmtList Body;
  std::string Comment;
  SourceLoc Loc;

  Routine() = default;
  Routine(std::string Name, TypeRef ResultType, StmtList Body)
      : Name(std::move(Name)), ResultType(ResultType), Body(std::move(Body)) {}

  Routine clone() const;
};

/// One item of a section, preserving source order of declarations and
/// routines (Figure 3 interleaves them).
///
/// Routines are heap-allocated so that `Routine*` pointers handed out by
/// Description lookups stay valid when the item vector grows (e.g. when
/// a transformation allocates a temporary declaration).
struct SectionItem {
  enum class Kind { Decl, Routine };
  Kind K;
  Decl D;                     ///< Valid when K == Kind::Decl.
  std::unique_ptr<Routine> R; ///< Valid when K == Kind::Routine.

  static SectionItem decl(Decl D) {
    SectionItem I;
    I.K = Kind::Decl;
    I.D = std::move(D);
    return I;
  }
  static SectionItem routine(Routine R) {
    SectionItem I;
    I.K = Kind::Routine;
    I.R = std::make_unique<Routine>(std::move(R));
    return I;
  }
  SectionItem clone() const;
};

/// A `** NAME **` section grouping declarations and routines.
struct Section {
  std::string Name;
  std::vector<SectionItem> Items;

  Section clone() const;
};

/// A complete description of a language operator or machine instruction.
class Description {
public:
  Description() = default;
  explicit Description(std::string Name) : Name(std::move(Name)) {}

  const std::string &getName() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  std::vector<Section> &getSections() { return Sections; }
  const std::vector<Section> &getSections() const { return Sections; }

  /// Finds a routine by name anywhere in the description, or null.
  Routine *findRoutine(const std::string &Name);
  const Routine *findRoutine(const std::string &Name) const;

  /// Finds a declaration by name anywhere in the description, or null.
  Decl *findDecl(const std::string &Name);
  const Decl *findDecl(const std::string &Name) const;

  /// The entry routine: the unique routine whose name ends in ".execute"
  /// or ".operation", falling back to the last routine declared. Null for
  /// an empty description.
  Routine *entryRoutine();
  const Routine *entryRoutine() const;

  /// All routines in declaration order.
  std::vector<Routine *> routines();
  std::vector<const Routine *> routines() const;

  /// All declarations in declaration order.
  std::vector<const Decl *> decls() const;

  /// Finds the section with the given name, or null.
  Section *findSection(const std::string &Name);

  /// Adds a declaration to the section named \p SectionName, creating the
  /// section if needed. Returns the new declaration.
  Decl &addDecl(const std::string &SectionName, Decl D);

  /// Removes the declaration named \p Name; returns true if found.
  bool removeDecl(const std::string &Name);

  Description clone() const;

private:
  std::string Name;
  std::vector<Section> Sections;
};

//===----------------------------------------------------------------------===//
// Expression & statement construction helpers
//===----------------------------------------------------------------------===//

/// Convenience builders used heavily by transformations and tests.
ExprPtr intLit(int64_t V);
ExprPtr charLit(uint8_t V);
ExprPtr varRef(std::string Name);
ExprPtr memRef(ExprPtr Address);
ExprPtr call(std::string Callee);
ExprPtr unary(UnaryOp Op, ExprPtr E);
ExprPtr binary(BinaryOp Op, ExprPtr L, ExprPtr R);

StmtPtr assign(std::string Var, ExprPtr Value);
StmtPtr ifStmt(ExprPtr Cond, StmtList Then, StmtList Else = {});
StmtPtr exitWhen(ExprPtr Cond);

} // namespace isdl
} // namespace extra

#endif // EXTRA_ISDL_AST_H
