//===- DiffCheck.cpp - Differential semantic checking -----------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "analysis/DiffCheck.h"

#include "isdl/Printer.h"

#include <chrono>

using namespace extra;
using namespace extra::analysis;
using namespace extra::isdl;
using constraint::Constraint;
using constraint::ConstraintKind;
using constraint::ConstraintSet;

namespace {

/// Evaluates a pure constraint predicate over candidate input values
/// (variables not in \p Values read as 0). Returns nullopt when the
/// predicate uses features that cannot be evaluated statically.
std::optional<int64_t>
evalPred(const Expr &E, const std::map<std::string, int64_t> &Values) {
  switch (E.getKind()) {
  case Expr::Kind::IntLit:
    return cast<IntLit>(&E)->getValue();
  case Expr::Kind::CharLit:
    return cast<CharLit>(&E)->getValue();
  case Expr::Kind::VarRef: {
    auto It = Values.find(cast<VarRef>(&E)->getName());
    return It == Values.end() ? 0 : It->second;
  }
  case Expr::Kind::MemRef:
  case Expr::Kind::Call:
    return std::nullopt;
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(&E);
    auto V = evalPred(*U->getOperand(), Values);
    if (!V)
      return std::nullopt;
    return applyUnary(U->getOp(), *V);
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    auto L = evalPred(*B->getLHS(), Values);
    auto R = evalPred(*B->getRHS(), Values);
    if (!L || !R)
      return std::nullopt;
    return applyBinary(B->getOp(), *L, *R);
  }
  }
  return std::nullopt;
}

int64_t drawOne(const Description &D, const std::string &Name,
                const ConstraintSet *Constraints, std::mt19937_64 &Rng,
                const DiffOptions &Opts) {
  // An explicit range constraint wins.
  if (Constraints)
    for (const Constraint &C : Constraints->items())
      if (C.kind() == ConstraintKind::Range && C.operand() == Name) {
        std::uniform_int_distribution<int64_t> Dist(C.lo(), C.hi());
        return Dist(Rng);
      }
  unsigned W = interp::inputWidth(D, Name);
  if (W == 1) {
    std::uniform_int_distribution<int64_t> Dist(0, 1);
    return Dist(Rng);
  }
  if (W > 1 && W <= 8) {
    std::uniform_int_distribution<int64_t> Dist(0, 255);
    return Dist(Rng);
  }
  // Wide registers and unbounded integers double as addresses and loop
  // counts: keep them small and within the planted memory image so loops
  // terminate quickly and string scenarios are interesting.
  std::uniform_int_distribution<int64_t> Dist(0, Opts.SmallValueMax);
  return Dist(Rng);
}

} // namespace

std::vector<int64_t> analysis::drawInputs(const Description &D,
                                          const ConstraintSet *Constraints,
                                          std::mt19937_64 &Rng,
                                          const DiffOptions &Opts) {
  std::vector<std::string> Names = interp::inputOperands(D);
  for (unsigned Attempt = 0; Attempt < 200; ++Attempt) {
    std::vector<int64_t> Inputs;
    std::map<std::string, int64_t> ByName;
    Inputs.reserve(Names.size());
    for (const std::string &N : Names) {
      int64_t V = drawOne(D, N, Constraints, Rng, Opts);
      Inputs.push_back(V);
      ByName[N] = V;
    }
    // Relational constraints: accept only satisfying draws.
    bool Ok = true;
    if (Constraints)
      for (const Constraint &C : Constraints->items())
        if (C.kind() == ConstraintKind::Relational) {
          auto V = evalPred(*C.pred(), ByName);
          if (V && *V == 0)
            Ok = false;
        }
    if (Ok)
      return Inputs;
  }
  // Sampling failed; return the last draw — the comparison will likely
  // fail loudly, which beats silently skipping the check.
  std::vector<int64_t> Inputs;
  for (const std::string &N : Names)
    Inputs.push_back(drawOne(D, N, Constraints, Rng, Opts));
  return Inputs;
}

interp::Memory analysis::drawMemory(std::mt19937_64 &Rng,
                                    const DiffOptions &Opts) {
  interp::Memory M;
  std::uniform_int_distribution<int> Byte(0, 255);
  // A small alphabet makes "search for character" scenarios hit often.
  std::uniform_int_distribution<int> Pick(0, 3);
  static const uint8_t Alphabet[4] = {'a', 'b', 'c', 0};
  for (uint64_t A = 0; A < Opts.MemoryCells; ++A)
    M[A] = (Pick(Rng) == 0) ? static_cast<uint8_t>(Byte(Rng))
                            : Alphabet[Pick(Rng)];
  return M;
}

bool analysis::equivalentOnRandomInputs(
    const Description &A, const Description &B,
    const ConstraintSet *Constraints,
    const std::function<std::vector<int64_t>(const std::vector<int64_t> &)>
        &MapInputs,
    const DiffOptions &Opts, std::string &Error) {
  std::mt19937_64 Rng(Opts.Seed);
  for (unsigned T = 0; T < Opts.Trials; ++T) {
    if (Opts.Stop && Opts.Stop()) {
      Error = "verification cancelled (deadline) after " + std::to_string(T) +
              " trials";
      return false;
    }
    interp::Memory M = drawMemory(Rng, Opts);
    std::vector<int64_t> BInputs = drawInputs(B, Constraints, Rng, Opts);
    std::vector<int64_t> AInputs = MapInputs ? MapInputs(BInputs) : BInputs;

    interp::ExecResult RA = interp::run(A, AInputs, M);
    interp::ExecResult RB = interp::run(B, BInputs, M);
    if (RA.sameObservable(RB))
      continue;

    Error = "divergence on trial " + std::to_string(T) + ":\n  inputs(B): ";
    for (int64_t V : BInputs)
      Error += std::to_string(V) + " ";
    Error += "\n  A: " + std::string(RA.Ok ? "ok" : "error: " + RA.Error) +
             ", outputs:";
    for (int64_t V : RA.Outputs)
      Error += " " + std::to_string(V);
    Error += "\n  B: " + std::string(RB.Ok ? "ok" : "error: " + RB.Error) +
             ", outputs:";
    for (int64_t V : RB.Outputs)
      Error += " " + std::to_string(V);
    if (RA.Ok && RB.Ok && RA.Outputs == RB.Outputs)
      Error += "\n  (final memories differ)";
    return false;
  }
  return true;
}

transform::StepVerifier
analysis::makeStepVerifier(const ConstraintSet &Constraints,
                           DiffOptions Opts) {
  return [&Constraints, Opts](const transform::StepObservation &Obs,
                              std::string &Error) {
    if (Obs.Effect == transform::SemanticsEffect::Augmenting)
      return true; // Covered by the end-to-end check.
    std::function<std::vector<int64_t>(const std::vector<int64_t> &)> Map;
    if (Obs.Effect == transform::SemanticsEffect::InputRefining) {
      if (!Obs.Adapter) {
        Error = "input-refining step provided no adapter";
        return false;
      }
      Map = Obs.Adapter;
    }
    using Clock = std::chrono::steady_clock;
    Clock::time_point Start;
    if (Opts.Metrics)
      Start = Clock::now();
    bool Ok = equivalentOnRandomInputs(Obs.Before, Obs.After, &Constraints,
                                       Map, Opts, Error);
    if (Opts.Metrics) {
      Opts.Metrics->histogram("verify.ns")
          .record(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - Start)
                  .count()));
      Opts.Metrics->counter(Ok ? "verify.pass" : "verify.fail").add();
    }
    return Ok;
  };
}
