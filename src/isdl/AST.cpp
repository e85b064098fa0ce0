//===- AST.cpp - ISDL AST implementation ------------------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "isdl/AST.h"

using namespace extra;
using namespace extra::isdl;

std::string TypeRef::str() const {
  switch (K) {
  case Kind::None:
    return "";
  case Kind::Integer:
    return "integer";
  case Kind::Character:
    return "character";
  case Kind::Bits:
    if (isFlag())
      return "<>";
    return "<" + std::to_string(Hi) + ":" + std::to_string(Lo) + ">";
  }
  return "";
}

bool isdl::isRelational(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Eq:
  case BinaryOp::Ne:
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge:
    return true;
  default:
    return false;
  }
}

BinaryOp isdl::negateRelational(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Eq:
    return BinaryOp::Ne;
  case BinaryOp::Ne:
    return BinaryOp::Eq;
  case BinaryOp::Lt:
    return BinaryOp::Ge;
  case BinaryOp::Le:
    return BinaryOp::Gt;
  case BinaryOp::Gt:
    return BinaryOp::Le;
  case BinaryOp::Ge:
    return BinaryOp::Lt;
  default:
    assert(false && "negateRelational on non-relational operator");
    return Op;
  }
}

BinaryOp isdl::swapRelational(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Eq:
    return BinaryOp::Eq;
  case BinaryOp::Ne:
    return BinaryOp::Ne;
  case BinaryOp::Lt:
    return BinaryOp::Gt;
  case BinaryOp::Le:
    return BinaryOp::Ge;
  case BinaryOp::Gt:
    return BinaryOp::Lt;
  case BinaryOp::Ge:
    return BinaryOp::Le;
  default:
    assert(false && "swapRelational on non-relational operator");
    return Op;
  }
}

const char *isdl::spelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::And:
    return "and";
  case BinaryOp::Or:
    return "or";
  case BinaryOp::Eq:
    return "=";
  case BinaryOp::Ne:
    return "<>";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Ge:
    return ">=";
  }
  return "?";
}

const char *isdl::spelling(UnaryOp Op) {
  switch (Op) {
  case UnaryOp::Not:
    return "not";
  case UnaryOp::Neg:
    return "-";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Cloning
//===----------------------------------------------------------------------===//

ExprPtr Expr::clone() const {
  ExprPtr Out;
  switch (K) {
  case Kind::IntLit:
    Out = std::make_unique<IntLit>(cast<IntLit>(this)->getValue());
    break;
  case Kind::CharLit:
    Out = std::make_unique<CharLit>(cast<CharLit>(this)->getValue());
    break;
  case Kind::VarRef:
    Out = std::make_unique<VarRef>(cast<VarRef>(this)->getName());
    break;
  case Kind::MemRef:
    Out = std::make_unique<MemRef>(cast<MemRef>(this)->getAddress()->clone());
    break;
  case Kind::Call:
    Out = std::make_unique<CallExpr>(cast<CallExpr>(this)->getCallee());
    break;
  case Kind::Unary: {
    const auto *U = cast<UnaryExpr>(this);
    Out = std::make_unique<UnaryExpr>(U->getOp(), U->getOperand()->clone());
    break;
  }
  case Kind::Binary: {
    const auto *B = cast<BinaryExpr>(this);
    Out = std::make_unique<BinaryExpr>(B->getOp(), B->getLHS()->clone(),
                                       B->getRHS()->clone());
    break;
  }
  }
  Out->setLoc(getLoc());
  return Out;
}

StmtList isdl::cloneStmts(const StmtList &Stmts) {
  StmtList Out;
  Out.reserve(Stmts.size());
  for (const StmtPtr &S : Stmts)
    Out.push_back(S->clone());
  return Out;
}

StmtPtr Stmt::clone() const {
  StmtPtr Out;
  switch (K) {
  case Kind::Assign: {
    const auto *A = cast<AssignStmt>(this);
    Out = std::make_unique<AssignStmt>(A->getTarget()->clone(),
                                       A->getValue()->clone());
    break;
  }
  case Kind::If: {
    const auto *I = cast<IfStmt>(this);
    Out = std::make_unique<IfStmt>(I->getCond()->clone(),
                                   cloneStmts(I->getThen()),
                                   cloneStmts(I->getElse()));
    break;
  }
  case Kind::Repeat:
    Out = std::make_unique<RepeatStmt>(
        cloneStmts(cast<RepeatStmt>(this)->getBody()));
    break;
  case Kind::ExitWhen:
    Out = std::make_unique<ExitWhenStmt>(
        cast<ExitWhenStmt>(this)->getCond()->clone());
    break;
  case Kind::Input:
    Out = std::make_unique<InputStmt>(cast<InputStmt>(this)->getTargets());
    break;
  case Kind::Output: {
    const auto *O = cast<OutputStmt>(this);
    std::vector<ExprPtr> Values;
    Values.reserve(O->getValues().size());
    for (const ExprPtr &V : O->getValues())
      Values.push_back(V->clone());
    Out = std::make_unique<OutputStmt>(std::move(Values));
    break;
  }
  case Kind::Constrain: {
    const auto *C = cast<ConstrainStmt>(this);
    Out = std::make_unique<ConstrainStmt>(C->getTag(), C->getPred()->clone());
    break;
  }
  case Kind::Assert:
    Out = std::make_unique<AssertStmt>(cast<AssertStmt>(this)->getPred()->clone());
    break;
  }
  Out->setLoc(getLoc());
  return Out;
}

Routine Routine::clone() const {
  Routine Out;
  Out.Name = Name;
  Out.ResultType = ResultType;
  Out.Body = cloneStmts(Body);
  Out.Comment = Comment;
  Out.Loc = Loc;
  return Out;
}

SectionItem SectionItem::clone() const {
  if (K == Kind::Decl)
    return SectionItem::decl(D);
  return SectionItem::routine(R->clone());
}

Section Section::clone() const {
  Section Out;
  Out.Name = Name;
  Out.Items.reserve(Items.size());
  for (const SectionItem &I : Items)
    Out.Items.push_back(I.clone());
  return Out;
}

Description Description::clone() const {
  Description Out(Name);
  Out.Sections.reserve(Sections.size());
  for (const Section &S : Sections)
    Out.Sections.push_back(S.clone());
  return Out;
}

//===----------------------------------------------------------------------===//
// Description lookups
//===----------------------------------------------------------------------===//

Routine *Description::findRoutine(const std::string &RName) {
  for (Section &S : Sections)
    for (SectionItem &I : S.Items)
      if (I.K == SectionItem::Kind::Routine && I.R->Name == RName)
        return I.R.get();
  return nullptr;
}

const Routine *Description::findRoutine(const std::string &RName) const {
  return const_cast<Description *>(this)->findRoutine(RName);
}

Decl *Description::findDecl(const std::string &DName) {
  for (Section &S : Sections)
    for (SectionItem &I : S.Items)
      if (I.K == SectionItem::Kind::Decl && I.D.Name == DName)
        return &I.D;
  return nullptr;
}

const Decl *Description::findDecl(const std::string &DName) const {
  return const_cast<Description *>(this)->findDecl(DName);
}

static bool endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

Routine *Description::entryRoutine() {
  Routine *Last = nullptr;
  for (Section &S : Sections)
    for (SectionItem &I : S.Items) {
      if (I.K != SectionItem::Kind::Routine)
        continue;
      Last = I.R.get();
      if (endsWith(I.R->Name, ".execute") || endsWith(I.R->Name, ".operation"))
        return I.R.get();
    }
  return Last;
}

const Routine *Description::entryRoutine() const {
  return const_cast<Description *>(this)->entryRoutine();
}

std::vector<Routine *> Description::routines() {
  std::vector<Routine *> Out;
  for (Section &S : Sections)
    for (SectionItem &I : S.Items)
      if (I.K == SectionItem::Kind::Routine)
        Out.push_back(I.R.get());
  return Out;
}

std::vector<const Routine *> Description::routines() const {
  std::vector<const Routine *> Out;
  for (const Section &S : Sections)
    for (const SectionItem &I : S.Items)
      if (I.K == SectionItem::Kind::Routine)
        Out.push_back(I.R.get());
  return Out;
}

std::vector<const Decl *> Description::decls() const {
  std::vector<const Decl *> Out;
  for (const Section &S : Sections)
    for (const SectionItem &I : S.Items)
      if (I.K == SectionItem::Kind::Decl)
        Out.push_back(&I.D);
  return Out;
}

Section *Description::findSection(const std::string &SName) {
  for (Section &S : Sections)
    if (S.Name == SName)
      return &S;
  return nullptr;
}

Decl &Description::addDecl(const std::string &SectionName, Decl D) {
  Section *S = findSection(SectionName);
  if (!S) {
    Sections.push_back(Section{SectionName, {}});
    S = &Sections.back();
  }
  S->Items.push_back(SectionItem::decl(std::move(D)));
  return S->Items.back().D;
}

bool Description::removeDecl(const std::string &DName) {
  for (Section &S : Sections)
    for (size_t I = 0; I < S.Items.size(); ++I)
      if (S.Items[I].K == SectionItem::Kind::Decl && S.Items[I].D.Name == DName) {
        S.Items.erase(S.Items.begin() + static_cast<long>(I));
        return true;
      }
  return false;
}

//===----------------------------------------------------------------------===//
// Builders
//===----------------------------------------------------------------------===//

ExprPtr isdl::intLit(int64_t V) { return std::make_unique<IntLit>(V); }
ExprPtr isdl::charLit(uint8_t V) { return std::make_unique<CharLit>(V); }
ExprPtr isdl::varRef(std::string Name) {
  return std::make_unique<VarRef>(std::move(Name));
}
ExprPtr isdl::memRef(ExprPtr Address) {
  return std::make_unique<MemRef>(std::move(Address));
}
ExprPtr isdl::call(std::string Callee) {
  return std::make_unique<CallExpr>(std::move(Callee));
}
ExprPtr isdl::unary(UnaryOp Op, ExprPtr E) {
  return std::make_unique<UnaryExpr>(Op, std::move(E));
}
ExprPtr isdl::binary(BinaryOp Op, ExprPtr L, ExprPtr R) {
  return std::make_unique<BinaryExpr>(Op, std::move(L), std::move(R));
}

StmtPtr isdl::assign(std::string Var, ExprPtr Value) {
  return std::make_unique<AssignStmt>(varRef(std::move(Var)), std::move(Value));
}
StmtPtr isdl::ifStmt(ExprPtr Cond, StmtList Then, StmtList Else) {
  return std::make_unique<IfStmt>(std::move(Cond), std::move(Then),
                                  std::move(Else));
}
StmtPtr isdl::exitWhen(ExprPtr Cond) {
  return std::make_unique<ExitWhenStmt>(std::move(Cond));
}
