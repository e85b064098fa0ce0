//===- SimCommon.h - Shared simulator infrastructure ------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one interpreter core of the three instruction-level simulators
/// (8086, VAX, 370) that execute the code generator's output. The paper
/// evaluated on real machines; these simulators substitute for them,
/// giving the benchmarks an executable target and honest relative cost
/// numbers:
///
///  * `Instructions` counts instruction dispatches (fetch/decode), the
///    quantity exotic instructions amortize over a whole string;
///  * `MicroOps` counts per-byte data work, which is the same for exotic
///    and primitive implementations;
///  * code size is simply the number of emitted instruction lines.
///
/// `simulate` owns the fetch loop, the step cap, labels and every branch;
/// a machine supplies its branch table and an exec function for the rest
/// of its statements.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_SIM_SIMCOMMON_H
#define EXTRA_SIM_SIMCOMMON_H

#include "interp/Interp.h"

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace extra {
namespace sim {

/// Outcome of one simulated run.
struct SimResult {
  bool Ok = false;
  std::string Error;
  uint64_t Instructions = 0; ///< Dispatches.
  uint64_t MicroOps = 0;     ///< Per-byte data operations.
  interp::Memory Mem;
  std::map<std::string, int64_t> Regs;

  /// Register (or virtual symbol) value; 0 when never written.
  int64_t reg(const std::string &Name) const {
    auto It = Regs.find(Name);
    return It == Regs.end() ? 0 : It->second;
  }
};

/// One parsed assembly statement.
struct AsmStmt {
  std::string Label;              ///< Set when the line is "name:".
  std::vector<std::string> Toks;  ///< Mnemonic (and prefix) + operands.
  std::string Raw;                ///< Original text, for error messages.
};

/// Strips the comment, splits the label, and tokenizes operands
/// (separators: whitespace and commas; parenthesized and bracketed
/// operands stay single tokens).
AsmStmt parseAsmLine(const std::string &Line, char CommentChar);

/// Parses the program into statements and a label table.
///
/// \returns false (with \p Error) on malformed lines or duplicate labels.
bool assemble(const std::vector<std::string> &Lines, char CommentChar,
              std::vector<AsmStmt> &Out,
              std::map<std::string, size_t> &Labels, std::string &Error);

/// Number of instruction lines (non-label, non-comment, non-blank) — the
/// "space" measure of §1.
unsigned codeSize(const std::vector<std::string> &Lines, char CommentChar);

/// When a branch is taken: always, on the zero flag, or on the difference
/// the last compare left.
enum class Cond { Always, Zero, NonZero, Eq, Ne, Lt, Le, Gt, Ge };

/// One row of a machine's branch table.
struct Branch {
  std::string_view Mnemonic;
  Cond When;
};

/// The machine state every simulator shares. The run's `Regs` are the
/// register file: registers are named by string, and reading a name
/// makes it a register (0 until written), so `Regs` gains every name a
/// statement reads.
struct Core {
  SimResult Res;
  bool Zf = false;  ///< Zero flag (8086 zf, VAX Z).
  int64_t Diff = 0; ///< The last compare's first operand minus its second.
  bool Df = false;  ///< 8086 direction flag: strings run downward.

  int64_t &reg(const std::string &Name) { return Res.Regs[Name]; }

  /// A decimal literal, or else the register \p T names.
  int64_t value(const std::string &T) {
    if (isdigit(static_cast<unsigned char>(T[0])) || T[0] == '-')
      return strtoll(T.c_str(), nullptr, 10);
    return reg(T);
  }

  /// The register of an indirect operand `<Open>reg<Close>`; empty when
  /// \p T is not one.
  static std::string indirect(const std::string &T, char Open, char Close) {
    if (T.size() > 2 && T.front() == Open && T.back() == Close)
      return T.substr(1, T.size() - 2);
    return {};
  }

  uint8_t byteAt(int64_t Addr) const {
    return Res.Mem.get(static_cast<uint64_t>(Addr));
  }
  void setByte(int64_t Addr, int64_t V) {
    Res.Mem[static_cast<uint64_t>(Addr)] = static_cast<uint8_t>(V & 0xFF);
  }

  /// VAX and 370 `ldb R, (Rm)` / `stb R, (Rm)`; false when \p S is
  /// neither.
  bool loadStoreByte(const AsmStmt &S) {
    std::string At;
    if (S.Toks.size() != 3 || (At = indirect(S.Toks[2], '(', ')')).empty())
      return false;
    if (S.Toks[0] == "ldb")
      reg(S.Toks[1]) = byteAt(reg(At));
    else if (S.Toks[0] == "stb")
      setByte(reg(At), reg(S.Toks[1]));
    else
      return false;
    return true;
  }

  /// Sets the run's error, "<Why> in '<line>'", and returns false.
  bool fail(const AsmStmt &S, const std::string &Why);
};

/// Runs a machine's statement semantics: false, with the error set
/// through Core::fail, stops the run.
using ExecFn = bool (*)(Core &C, const AsmStmt &S);

/// Assembles \p Asm and runs it to completion (falling off the end halts)
/// or to the first failure, counting dispatches against \p MaxSteps. A
/// statement whose mnemonic is in \p Branches jumps to its one label
/// operand when the row's condition holds; \p Exec runs every other one.
/// A failed run, and one stopped by the step cap, report the registers as
/// they stood.
SimResult simulate(const std::vector<std::string> &Asm,
                   const interp::Memory &InitialMemory,
                   const std::map<std::string, int64_t> &InitialRegs,
                   uint64_t MaxSteps, std::span<const Branch> Branches,
                   ExecFn Exec);

} // namespace sim
} // namespace extra

#endif // EXTRA_SIM_SIMCOMMON_H
