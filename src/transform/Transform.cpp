//===- Transform.cpp - Transformation framework -----------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "transform/Transform.h"

#include "isdl/Traverse.h"
#include "support/FaultInjection.h"

#include <cassert>
#include <chrono>

namespace {

/// One reusable working copy per thread, keyed by the version it was
/// cloned from. The handle keeps that version's payload alive, so a
/// pointer-equality key can never alias a recycled allocation.
struct ScratchSlot {
  extra::isdl::DescHandle For;
  extra::isdl::Description Buf;
  bool Valid = false;
  /// Set while an apply is running; a reentrant apply on the same thread
  /// (a verifier driving its own engine) must not steal the buffer out
  /// from under the outer rule.
  bool Busy = false;
};

ScratchSlot &scratchSlot() {
  static thread_local ScratchSlot Slot;
  return Slot;
}

struct BusyGuard {
  explicit BusyGuard(ScratchSlot &S) : S(S), Prev(S.Busy) { S.Busy = true; }
  ~BusyGuard() { S.Busy = Prev; }
  ScratchSlot &S;
  bool Prev;
};

} // namespace

using namespace extra;
using namespace extra::transform;
using namespace extra::isdl;

const char *transform::categoryName(Category C) {
  switch (C) {
  case Category::Local:
    return "local";
  case Category::CodeMotion:
    return "code motion";
  case Category::Loop:
    return "loop";
  case Category::Global:
    return "global";
  case Category::RoutineStructuring:
    return "routine structuring";
  case Category::ConstraintOp:
    return "constraint/assertion";
  case Category::Augment:
    return "augment producing";
  }
  return "?";
}

Transformation::~Transformation() = default;

//===----------------------------------------------------------------------===//
// TransformContext
//===----------------------------------------------------------------------===//

Routine *TransformContext::routine(std::string &Reason) const {
  Routine *R = RoutineName.empty() ? Desc.entryRoutine()
                                   : Desc.findRoutine(RoutineName);
  if (!R)
    Reason = "no routine named '" + RoutineName + "' in description '" +
             Desc.getName() + "'";
  return R;
}

std::string TransformContext::arg(const std::string &Key,
                                  std::string &Reason) const {
  auto It = Args.find(Key);
  if (It == Args.end() || It->second.empty()) {
    Reason = "missing required argument '" + Key + "'";
    return std::string();
  }
  return It->second;
}

std::string TransformContext::argOr(const std::string &Key,
                                    std::string Default) const {
  auto It = Args.find(Key);
  return It == Args.end() ? Default : It->second;
}

std::optional<int64_t> TransformContext::intArg(const std::string &Key,
                                                std::string &Reason) const {
  std::string S = arg(Key, Reason);
  if (S.empty())
    return std::nullopt;
  errno = 0;
  char *End = nullptr;
  long long V = strtoll(S.c_str(), &End, 10);
  if (End == S.c_str() || *End != '\0') {
    Reason = "argument '" + Key + "' is not an integer: '" + S + "'";
    return std::nullopt;
  }
  return static_cast<int64_t>(V);
}

std::optional<long> TransformContext::occurrence(std::string &Reason,
                                                 long Absent) const {
  if (!Args.count("occurrence"))
    return Absent;
  if (std::optional<int64_t> N = intArg("occurrence", Reason))
    return static_cast<long>(*N);
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

const Registry &Registry::instance() {
  static Registry *R = [] {
    auto *Reg = new Registry();
    registerLocalTransforms(*Reg);
    registerCodeMotionTransforms(*Reg);
    registerLoopTransforms(*Reg);
    registerGlobalTransforms(*Reg);
    registerRoutineTransforms(*Reg);
    registerConstraintTransforms(*Reg);
    registerAugmentTransforms(*Reg);
    return Reg;
  }();
  return *R;
}

const Transformation *Registry::lookup(const std::string &Name) const {
  auto It = ByName.find(Name);
  return It == ByName.end() ? nullptr : It->second.get();
}

std::vector<const Transformation *> Registry::all() const { return Order; }

std::vector<const Transformation *> Registry::inCategory(Category C) const {
  std::vector<const Transformation *> Out;
  for (const Transformation *T : Order)
    if (T->category() == C)
      Out.push_back(T);
  return Out;
}

void Registry::add(std::unique_ptr<Transformation> T) {
  assert(T && "null transformation");
  const Transformation *Raw = T.get();
  auto [It, Inserted] = ByName.emplace(T->name(), std::move(T));
  (void)It;
  assert(Inserted && "duplicate transformation name");
  (void)Inserted;
  Order.push_back(Raw);
}

//===----------------------------------------------------------------------===//
// Steps and the engine
//===----------------------------------------------------------------------===//

std::string Step::str() const {
  std::string Out = Rule;
  if (!Routine.empty())
    Out += " @" + Routine;
  for (const auto &[K, V] : Args)
    Out += " " + K + "=" + V;
  return Out;
}

Engine::Engine(Description Initial) : Cur(DescHandle(std::move(Initial))) {}
Engine::Engine(DescHandle Initial) : Cur(std::move(Initial)) {}

ApplyResult Engine::apply(const Step &S) {
  // Observability: time and classify every attempt. Without metrics the
  // clock is never read.
  using ObsClock = std::chrono::steady_clock;
  ObsClock::time_point ObsStart;
  if (Met)
    ObsStart = ObsClock::now();
  auto Finish = [&](const ApplyResult &R) {
    if (!Met)
      return;
    Met->histogram("transform.apply_ns")
        .record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                ObsClock::now() - ObsStart)
                .count()));
    Met->counter(std::string(R.Applied ? "rule.apply." : "rule.refuse.") +
                 S.Rule)
        .add();
  };

  const Transformation *T = Registry::instance().lookup(S.Rule);
  if (!T) {
    ApplyResult R =
        ApplyResult::failure("unknown transformation '" + S.Rule + "'");
    Finish(R);
    return R;
  }

  // Copy-on-write: the rule mutates a private working copy of the current
  // version. A refused or failed application just discards the copy — the
  // published version is immutable, so there is nothing to restore — and
  // on success the old version survives in the log as a shared handle.
  //
  // Scratch reuse: the working copy lives in a thread-local slot keyed by
  // the version it was cloned from. Under the rules' refusal-purity
  // contract (Transformation::apply) a refused attempt leaves the copy
  // equal to the version, so the next attempt on the same version skips
  // the clone entirely — in a refusal-dominated searcher loop that is
  // almost every attempt. The slot holds a handle to its source version,
  // so the payload cannot be freed and recycled under the cache (no ABA),
  // and a busy flag drops to a local clone on reentrant applies (e.g. a
  // verifier that runs an engine of its own on this thread).
  ScratchSlot &SB = scratchSlot();
  bool Reusing = !SB.Busy;
  Description WorkLocal;
  if (Reusing) {
    if (!SB.Valid || !SB.For.same(Cur)) {
      SB.Buf = Cur.clone();
      SB.For = Cur;
      SB.Valid = true;
      if (Met)
        Met->counter("transform.scratch.clone").add();
    } else if (Met) {
      Met->counter("transform.scratch.reuse").add();
    }
  } else {
    WorkLocal = Cur.clone();
  }
  Description &Work = Reusing ? SB.Buf : WorkLocal;
  BusyGuard Busy(SB);
  size_t ConstraintsBefore = Constraints.size();
  TransformContext Ctx{Work, S.Routine, S.Args, &Constraints};

  // Fault containment: a rule that throws (a genuine bug, or an injected
  // fault) must not take the session down or leave a half-rewritten
  // description behind. The exception is converted to a typed failure and
  // the half-rewritten working copy dropped, exactly like a refusal.
  ApplyResult R;
  try {
    // Fault-injection site: a rule implementation crashing mid-rewrite.
    if (FaultInjector::instance().shouldFail("rule-apply"))
      throw FaultError(makeFault(FaultCategory::RuleApplication,
                                 "injected fault: rule-apply"));
    R = T->apply(Ctx);
  } catch (const FaultError &FE) {
    // The rule may have died mid-rewrite: the buffer is unusable.
    if (Reusing)
      SB.Valid = false;
    Faulted = true;
    ApplyResult F = ApplyResult::failure("rule '" + S.Rule +
                                         "' faulted: " + FE.fault().Message);
    F.Category = FE.fault().Category;
    Finish(F);
    return F;
  } catch (const std::exception &E) {
    if (Reusing)
      SB.Valid = false;
    Faulted = true;
    ApplyResult F =
        ApplyResult::failure("rule '" + S.Rule + "' faulted: " + E.what());
    F.Category = FaultCategory::RuleApplication;
    Finish(F);
    return F;
  }
  if (!R.Applied) {
    // Refusal-purity contract: the working copy still equals the current
    // version, so the slot stays valid for the next attempt. The debug
    // check compares name-sensitive structural identities.
    assert(!Reusing || isdl::Interner::local().identity(Work) ==
                           isdl::Interner::local().identity(Cur.get()));
    Finish(R);
    return R;
  }

  if (Verifier) {
    std::string Error;
    StepObservation Obs{S, Cur.get(), Work, R.Effect, R.Adapter};
    if (!Verifier(Obs, Error)) {
      // The rewrite happened; the buffer no longer matches the version.
      if (Reusing)
        SB.Valid = false;
      ApplyResult F = ApplyResult::failure(
          "step verification failed for '" + S.Rule + "': " + Error);
      Finish(F);
      return F;
    }
  }

  Log.push_back({S, R.Effect, R.Note, Cur, ConstraintsBefore});
  Cur = DescHandle(std::move(Work));
  if (Reusing)
    SB.Valid = false; // Moved out; the slot holds a husk.
  Finish(R);
  return R;
}

bool Engine::undo() {
  if (Log.empty())
    return false;
  Cur = std::move(Log.back().Before);
  Constraints.truncate(Log.back().ConstraintsBefore);
  Log.pop_back();
  return true;
}

size_t Engine::applyScript(const Script &Steps, std::string *FirstError) {
  size_t Applied = 0;
  for (const Step &S : Steps) {
    ApplyResult R = apply(S);
    if (!R.Applied) {
      if (FirstError)
        *FirstError = "step " + std::to_string(Applied + 1) + " (" + S.str() +
                      "): " + R.Reason;
      return Applied;
    }
    ++Applied;
  }
  return Applied;
}

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

bool detail::isBooleanExpr(const Description &D, const Expr &E) {
  switch (E.getKind()) {
  case Expr::Kind::IntLit: {
    int64_t V = cast<IntLit>(&E)->getValue();
    return V == 0 || V == 1;
  }
  case Expr::Kind::VarRef: {
    const Decl *Dl = D.findDecl(cast<VarRef>(&E)->getName());
    return Dl && Dl->Type.isFlag();
  }
  case Expr::Kind::Unary:
    return cast<UnaryExpr>(&E)->getOp() == UnaryOp::Not;
  case Expr::Kind::Binary: {
    BinaryOp Op = cast<BinaryExpr>(&E)->getOp();
    return isRelational(Op) || Op == BinaryOp::And || Op == BinaryOp::Or;
  }
  default:
    return false;
  }
}

unsigned detail::countWrites(const Description &D, const std::string &Var) {
  unsigned Count = 0;
  for (const Routine *R : D.routines())
    forEachStmt(R->Body, [&](const Stmt &S) {
      if (const auto *A = dyn_cast<AssignStmt>(&S)) {
        if (A->targetVarName() == Var)
          ++Count;
      } else if (const auto *In = dyn_cast<InputStmt>(&S)) {
        for (const std::string &T : In->getTargets())
          if (T == Var)
            ++Count;
      }
    });
  return Count;
}

unsigned detail::countReads(const Description &D, const std::string &Var) {
  unsigned N = 0;
  auto CountInExpr = [&](const Expr &E) {
    forEachExpr(E, [&](const Expr &Sub) {
      if (const auto *V = dyn_cast<VarRef>(&Sub))
        if (V->getName() == Var)
          ++N;
    });
  };
  for (const Routine *R : D.routines())
    forEachStmt(R->Body, [&](const Stmt &S) {
      switch (S.getKind()) {
      case Stmt::Kind::Assign: {
        const auto *A = cast<AssignStmt>(&S);
        if (const auto *M = dyn_cast<MemRef>(A->getTarget()))
          CountInExpr(*M->getAddress());
        CountInExpr(*A->getValue());
        break;
      }
      case Stmt::Kind::If:
        CountInExpr(*cast<IfStmt>(&S)->getCond());
        break;
      case Stmt::Kind::ExitWhen:
        CountInExpr(*cast<ExitWhenStmt>(&S)->getCond());
        break;
      case Stmt::Kind::Output:
        for (const ExprPtr &V : cast<OutputStmt>(&S)->getValues())
          CountInExpr(*V);
        break;
      case Stmt::Kind::Assert:
        CountInExpr(*cast<AssertStmt>(&S)->getPred());
        break;
      default:
        break;
      }
    });
  return N;
}

bool detail::isReferenced(const Description &D, const std::string &Name) {
  for (const Routine *R : D.routines()) {
    bool Hit = false;
    forEachStmt(R->Body, [&](const Stmt &S) {
      forEachExpr(S, [&](const Expr &E) {
        if (const auto *V = dyn_cast<VarRef>(&E)) {
          if (V->getName() == Name)
            Hit = true;
        } else if (const auto *C = dyn_cast<CallExpr>(&E)) {
          if (C->getCallee() == Name)
            Hit = true;
        }
      });
      if (const auto *In = dyn_cast<InputStmt>(&S))
        for (const std::string &T : In->getTargets())
          if (T == Name)
            Hit = true;
    });
    if (Hit)
      return true;
  }
  return false;
}
