//===- Interp.h - Concrete interpreter for ISDL descriptions ----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a description against concrete inputs and a byte memory. The
/// 1982 system relied on hand proofs that each transformation preserves
/// semantics; this reproduction additionally *runs* both sides of every
/// transformation step on randomized inputs and compares results
/// (outputs, final memory, termination) — see analysis/DiffCheck.h.
///
/// Semantics:
///  * registers hold values masked to their declared width; `integer`
///    variables are unbounded 64-bit; `character` is one byte;
///  * `input (a, b, c)` consumes the next three values of the input
///    vector (masked on intake); running out of inputs is an error;
///  * `output (e)` appends to the output vector;
///  * `Mb[addr]` reads/writes one byte of a sparse memory (Memory.h);
///  * a routine returns the final value of the variable named after
///    itself, masked to the declared result width; each invocation gets a
///    fresh return accumulator;
///  * `and`/`or`/`not` are logical (nonzero test, producing 0/1);
///    relational operators produce 0/1;
///  * a violated `assert` aborts execution with an error; `constrain` is
///    a compile-time annotation and a run-time no-op.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_INTERP_INTERP_H
#define EXTRA_INTERP_INTERP_H

#include "interp/Memory.h"
#include "isdl/AST.h"
#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace extra {
namespace interp {

/// Limits and switches for one execution.
struct ExecOptions {
  /// Abort after this many evaluated statements (runaway-loop guard).
  uint64_t MaxSteps = 1000000;
};

/// Outcome of one execution.
struct ExecResult {
  bool Ok = false;
  std::string Error;            ///< Failure reason when !Ok.
  /// Typed classification of the failure: InterpBudget for a step-limit
  /// overrun, Internal for injected faults, None for clean runs and for
  /// ordinary semantic errors (input exhaustion, assertion failures —
  /// those are properties of the description, not faults of the system).
  FaultCategory Category = FaultCategory::None;
  std::vector<int64_t> Outputs; ///< Values emitted by `output`.
  Memory FinalMemory;           ///< Memory after execution.
  uint64_t Steps = 0;           ///< Statements executed.

  /// True when two runs are observationally equal (status, outputs, and
  /// final memory).
  bool sameObservable(const ExecResult &O) const {
    return Ok == O.Ok && Outputs == O.Outputs && FinalMemory == O.FinalMemory;
  }
};

/// Runs the entry routine of \p D with \p Inputs and \p InitialMemory.
ExecResult run(const isdl::Description &D, const std::vector<int64_t> &Inputs,
               const Memory &InitialMemory = {}, const ExecOptions &Opts = {});

/// The declared bit width of input operand \p Name in \p D (0 when
/// unbounded). Random-input generators use this to stay in range.
unsigned inputWidth(const isdl::Description &D, const std::string &Name);

/// Operand names of the entry routine's first `input` statement, in
/// order. Empty when the entry routine does not start with `input`.
std::vector<std::string> inputOperands(const isdl::Description &D);

/// Writes \p Bytes into \p M starting at \p Base.
void storeBytes(Memory &M, uint64_t Base, const std::string &Bytes);

/// Reads \p Len bytes starting at \p Base (absent bytes read as 0).
std::string loadBytes(const Memory &M, uint64_t Base, size_t Len);

} // namespace interp
} // namespace extra

#endif // EXTRA_INTERP_INTERP_H
