//===- Interp.cpp - Concrete interpreter for ISDL descriptions --*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "isdl/Printer.h"
#include "support/FaultInjection.h"

#include <map>

using namespace extra;
using namespace extra::interp;
using namespace extra::isdl;

namespace {

/// Applies the declared width of \p T to \p V (no-op for unbounded types).
int64_t maskToType(int64_t V, const TypeRef &T) {
  unsigned W = T.widthInBits();
  if (W == 0 || W >= 64)
    return V;
  return V & ((int64_t(1) << W) - 1);
}

class Evaluator {
public:
  Evaluator(const Description &D, const std::vector<int64_t> &Inputs,
            const Memory &InitialMemory, const ExecOptions &Opts)
      : D(D), Inputs(Inputs), Opts(Opts) {
    Result.FinalMemory = InitialMemory;
  }

  ExecResult run() {
    const Routine *Entry = D.entryRoutine();
    if (!Entry) {
      fail("description has no entry routine");
      return std::move(Result);
    }
    // Every declared register/variable starts at zero.
    for (const Decl *Dl : D.decls())
      Vars[Dl->Name] = 0;

    int64_t Unused = 0;
    execRoutine(*Entry, Unused);
    if (Result.Error.empty())
      Result.Ok = true;
    return std::move(Result);
  }

private:
  enum class Flow { Next, Exit };

  void fail(const std::string &Message,
            FaultCategory C = FaultCategory::None) {
    if (Result.Error.empty()) {
      Result.Error = Message;
      Result.Category = C;
    }
  }
  bool failed() const { return !Result.Error.empty(); }

  void execRoutine(const Routine &R, int64_t &ReturnValue) {
    // Fresh return accumulator per invocation; the routine's own name is
    // bound to it while the body runs.
    auto Saved = Vars.find(R.Name);
    bool HadSaved = Saved != Vars.end();
    int64_t SavedValue = HadSaved ? Saved->second : 0;
    Vars[R.Name] = 0;

    Flow F = execStmts(R.Body);
    if (F == Flow::Exit)
      fail("exit_when escaped routine '" + R.Name + "'");
    ReturnValue = maskToType(Vars[R.Name], R.ResultType);

    if (HadSaved)
      Vars[R.Name] = SavedValue;
    else
      Vars.erase(R.Name);
  }

  Flow execStmts(const StmtList &Stmts) {
    for (const StmtPtr &S : Stmts) {
      Flow F = execStmt(*S);
      if (failed())
        return Flow::Next;
      if (F == Flow::Exit)
        return Flow::Exit;
    }
    return Flow::Next;
  }

  Flow execStmt(const Stmt &S) {
    if (++Result.Steps > Opts.MaxSteps) {
      fail("step limit exceeded (possible non-terminating loop)",
           FaultCategory::InterpBudget);
      return Flow::Next;
    }
    switch (S.getKind()) {
    case Stmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      int64_t V = eval(*A->getValue());
      if (failed())
        return Flow::Next;
      if (const auto *M = dyn_cast<MemRef>(A->getTarget())) {
        int64_t Addr = eval(*M->getAddress());
        if (failed())
          return Flow::Next;
        Result.FinalMemory[static_cast<uint64_t>(Addr)] =
            static_cast<uint8_t>(V & 0xFF);
      } else {
        storeVar(cast<VarRef>(A->getTarget())->getName(), V);
      }
      return Flow::Next;
    }
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(&S);
      int64_t C = eval(*I->getCond());
      if (failed())
        return Flow::Next;
      return execStmts(C != 0 ? I->getThen() : I->getElse());
    }
    case Stmt::Kind::Repeat: {
      const auto *R = cast<RepeatStmt>(&S);
      for (;;) {
        Flow F = execStmts(R->getBody());
        if (failed())
          return Flow::Next;
        if (F == Flow::Exit)
          return Flow::Next; // exit_when leaves only this loop.
      }
    }
    case Stmt::Kind::ExitWhen: {
      int64_t C = eval(*cast<ExitWhenStmt>(&S)->getCond());
      if (failed())
        return Flow::Next;
      return C != 0 ? Flow::Exit : Flow::Next;
    }
    case Stmt::Kind::Input: {
      const auto *In = cast<InputStmt>(&S);
      for (const std::string &T : In->getTargets()) {
        if (NextInput >= Inputs.size()) {
          fail("input exhausted: operand '" + T + "' has no value");
          return Flow::Next;
        }
        storeVar(T, Inputs[NextInput++]);
      }
      return Flow::Next;
    }
    case Stmt::Kind::Output: {
      const auto *O = cast<OutputStmt>(&S);
      for (const ExprPtr &V : O->getValues()) {
        int64_t X = eval(*V);
        if (failed())
          return Flow::Next;
        Result.Outputs.push_back(X);
      }
      return Flow::Next;
    }
    case Stmt::Kind::Constrain:
      return Flow::Next; // Compile-time annotation.
    case Stmt::Kind::Assert: {
      const auto *A = cast<AssertStmt>(&S);
      int64_t C = eval(*A->getPred());
      if (!failed() && C == 0)
        fail("assertion failed: " + printExpr(*A->getPred()));
      return Flow::Next;
    }
    }
    return Flow::Next;
  }

  void storeVar(const std::string &Name, int64_t V) {
    const Decl *Dl = D.findDecl(Name);
    if (Dl)
      V = maskToType(V, Dl->Type);
    Vars[Name] = V;
  }

  int64_t eval(const Expr &E) {
    if (failed())
      return 0;
    switch (E.getKind()) {
    case Expr::Kind::IntLit:
      return cast<IntLit>(&E)->getValue();
    case Expr::Kind::CharLit:
      return cast<CharLit>(&E)->getValue();
    case Expr::Kind::VarRef: {
      const std::string &N = cast<VarRef>(&E)->getName();
      auto It = Vars.find(N);
      if (It == Vars.end()) {
        fail("read of unknown variable '" + N + "'");
        return 0;
      }
      return It->second;
    }
    case Expr::Kind::MemRef: {
      int64_t Addr = eval(*cast<MemRef>(&E)->getAddress());
      if (failed())
        return 0;
      return Result.FinalMemory.get(static_cast<uint64_t>(Addr));
    }
    case Expr::Kind::Call: {
      const Routine *R = D.findRoutine(cast<CallExpr>(&E)->getCallee());
      if (!R) {
        fail("call of unknown routine '" + cast<CallExpr>(&E)->getCallee() +
             "'");
        return 0;
      }
      int64_t V = 0;
      execRoutine(*R, V);
      return V;
    }
    case Expr::Kind::Unary: {
      const auto *U = cast<UnaryExpr>(&E);
      int64_t V = eval(*U->getOperand());
      if (failed())
        return 0;
      return applyUnary(U->getOp(), V);
    }
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(&E);
      int64_t L = eval(*B->getLHS());
      if (failed())
        return 0;
      // `and`/`or` are evaluated strictly; ISDL expressions are
      // side-effect-free except for calls, and descriptions in the paper
      // do not rely on short-circuiting.
      int64_t R = eval(*B->getRHS());
      if (failed())
        return 0;
      if (auto V = applyBinary(B->getOp(), L, R))
        return *V;
      fail("division by zero");
      return 0;
    }
    }
    return 0;
  }

  const Description &D;
  const std::vector<int64_t> &Inputs;
  const ExecOptions &Opts;
  size_t NextInput = 0;
  std::map<std::string, int64_t> Vars;
  ExecResult Result;
};

} // namespace

ExecResult interp::run(const Description &D, const std::vector<int64_t> &Inputs,
                       const Memory &InitialMemory, const ExecOptions &Opts) {
  // Fault-injection site: a synthetic execution failure, surfaced as a
  // failed ExecResult value like any genuine one.
  if (FaultInjector::instance().shouldFail("interp")) {
    ExecResult R;
    R.Error = "injected fault: interp";
    R.Category = FaultCategory::Internal;
    return R;
  }
  Evaluator E(D, Inputs, InitialMemory, Opts);
  return E.run();
}

unsigned interp::inputWidth(const Description &D, const std::string &Name) {
  const Decl *Dl = D.findDecl(Name);
  return Dl ? Dl->Type.widthInBits() : 0;
}

std::vector<std::string> interp::inputOperands(const Description &D) {
  const Routine *Entry = D.entryRoutine();
  if (!Entry || Entry->Body.empty())
    return {};
  for (const StmtPtr &S : Entry->Body)
    if (const auto *In = dyn_cast<InputStmt>(S.get()))
      return In->getTargets();
  return {};
}

void interp::storeBytes(Memory &M, uint64_t Base, const std::string &Bytes) {
  for (size_t I = 0; I < Bytes.size(); ++I)
    M[Base + I] = static_cast<uint8_t>(Bytes[I]);
}

std::string interp::loadBytes(const Memory &M, uint64_t Base, size_t Len) {
  std::string Out;
  Out.reserve(Len);
  for (size_t I = 0; I < Len; ++I)
    Out.push_back(static_cast<char>(M.get(Base + I)));
  return Out;
}
