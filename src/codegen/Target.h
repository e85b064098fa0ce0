//===- Target.h - Retargetable code generation interface --------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Graham-Glanville-flavored, table-driven back end of §6. A Target
/// owns a table of InstructionBindings — the product of the EXTRA
/// analyses: which exotic instruction implements which operator, under
/// which constraints, with which prologue/epilogue code (§4.1 did this
/// by hand for scasb). The table is not written here: the built-in
/// targets start empty, and the registry's BindingCompiler lowers
/// recorded or discovered derivations onto them
/// (registry::corpusTarget). Code generation walks the high-level
/// internal form; for each operator it
///
///   1. finds the binding for the operator kind,
///   2. checks the binding's constraints against the compile-time facts
///      (data-flow facts satisfy value/range constraints; rewriting rules
///      such as chunked moves force ranges; offsets are directives),
///   3. emits the exotic instruction with its augments — or falls back
///      to the decomposition rules (a primitive byte loop).
///
/// The decomposition rules are machine-independent: Target::decompose
/// writes each operator's loop once, over the primitive operations of
/// the target's Dialect row. A machine is one const row — how it spells
/// each primitive and which registers each loop uses — and the binding
/// compiler reads the same row, so a machine's mnemonics and word width
/// are written in one place.
///
/// The §6 optimizations live here too: constant-value optimization of
/// operand loads, dedicated-register preference when instructions are
/// cascaded, and a peephole pass integrating augments with rewrites.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_CODEGEN_TARGET_H
#define EXTRA_CODEGEN_TARGET_H

#include "codegen/IR.h"
#include "constraint/Constraint.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace extra {
namespace codegen {

/// One machine, as the code generator sees it: how it spells the
/// primitive operations and which registers each decomposition loop uses.
/// Each primitive is an instruction pattern in which %0 and %1 stand for
/// its operands.
struct Dialect {
  const char *Name;    ///< Display name, e.g. "Intel 8086".
  const char *Machine; ///< Registry machine name: "i8086", "vax", "ibm370".
  /// The largest value a machine word holds; range constraints reaching
  /// it are trivially satisfied ("a trivial one to satisfy on the Intel
  /// 8086 since the word size of the machine is 16 bits", §4.1). Narrower
  /// constraints — VAX string lengths, the mvc length byte — need
  /// compile-time facts or rewriting.
  int64_t WordMax;

  const char *Load;       ///< %0 <- operand or literal %1.
  const char *Move;       ///< Register %0 <- register %1.
  const char *TestZero;   ///< Sets the condition from %0 = 0 ...
  const char *BranchZero; ///< ... and branches to %0 when it holds.
  const char *Compare;    ///< Compares %0 with %1, then one of:
  const char *BranchNe;   ///< branch to %0 when they differ,
  const char *BranchLe;   ///< when %0 <= %1,
  const char *BranchLt;   ///< when %0 < %1.
  const char *Inc;        ///< %0 += 1.
  const char *Dec;        ///< %0 -= 1.
  const char *Add;        ///< %0 += %1.
  const char *Sub;        ///< %0 -= %1.
  const char *LoadByte;   ///< %0 <- the byte at address %1.
  const char *StoreByte;  ///< The byte at address %1 <- %0.
  const char *Jump;       ///< Branch to %0.

  /// Operand registers as {register, operand index}, in load order.
  using Loads = std::vector<std::pair<const char *, unsigned>>;
  Loads IndexLoads; ///< StrIndex: str, len, ch.
  Loads MoveLoads;  ///< StrMove, and BlockCopy: dst, src, len.
  Loads EqualLoads; ///< StrEqual: a, b, len.
  Loads ClearLoads; ///< BlockClear: dst, len.
  const char *Byte;  ///< The byte a loop moves, compares or stores.
  const char *Byte2; ///< StrEqual's byte of its second string.
  /// StrIndex's copy of the string's start. The lowered index bindings
  /// save the start of their scan in it too.
  const char *Save;
  /// Where StrIndex computes the index of the found byte: its pointer
  /// register (VAX, 370), or one the pointer is first copied to (8086).
  const char *Index;
  /// With a scratch register here, BlockCopy picks its direction at run
  /// time and is overlap-safe; null, it runs StrMove's forward loop.
  const char *CopyEnd;
};

/// The built-in machine whose Dialect::Machine is \p Machine, or null.
const Dialect *findDialect(std::string_view Machine);

/// One indented line of assembly: \p Pattern, a Dialect primitive, with
/// %0 and %1 replaced by \p A and \p B.
std::string asmLine(const char *Pattern, std::string_view A,
                    std::string_view B = {});

/// Why a particular instruction selection was (or wasn't) made.
struct SelectionNote {
  size_t OpIndex = 0;
  std::string Operator;    ///< e.g. "StrIndex".
  std::string Chosen;      ///< Instruction mnemonic or "decomposed".
  std::string Reason;      ///< Constraint outcome narrative.
};

/// Output of code generation.
struct CodeGenResult {
  std::vector<std::string> Asm;       ///< Assembly lines (with labels).
  std::vector<SelectionNote> Notes;   ///< One per high-level op.
  unsigned ExoticCount = 0;           ///< Ops implemented exotically.
  unsigned DecomposedCount = 0;       ///< Ops decomposed to loops.
};

/// Mutable state threaded through the emitters of one program.
class CodeGenContext {
public:
  /// Returns a fresh unique label with the given stem.
  std::string freshLabel(const std::string &Stem);

  /// §6 "intelligent register allocation": tracks what each dedicated
  /// register currently holds so cascaded string instructions skip
  /// redundant loads.
  bool registerHolds(const std::string &Reg, const std::string &What) const;
  void setRegister(const std::string &Reg, const std::string &What);
  void clobberRegister(const std::string &Reg);
  void clobberAllRegisters();

  /// Appends one line of assembly.
  void emit(std::string Line);
  /// Loads \p V into \p Reg with the Dialect::Load pattern \p Load,
  /// unless the register already holds it.
  void load(const std::string &Reg, const Value &V, const char *Load);

  std::vector<std::string> takeLines() { return std::move(Lines); }
  const std::vector<std::string> &lines() const { return Lines; }

private:
  std::vector<std::string> Lines;
  std::map<std::string, std::string> RegContents;
  unsigned NextLabel = 0;
};

/// One operator-to-instruction binding produced by analysis.
struct InstructionBinding {
  OpKind Op;
  std::string Mnemonic;       ///< e.g. "scasb".
  std::string AnalysisId;     ///< The derivation that justified it.
  constraint::ConstraintSet Constraints;
  /// Emits the instruction (with augments) for \p O into \p Ctx.
  std::function<void(const HLOp &O, const constraint::CompileTimeFacts &,
                     CodeGenContext &Ctx)>
      Emit;
  /// Optional §6 rewriting rule: when a range constraint fails on a
  /// literal operand, emit a sequence of constrained uses (e.g. 256-byte
  /// mvc chunks). Null when the binding has no rewriting rule.
  std::function<bool(const HLOp &O, const constraint::CompileTimeFacts &,
                     CodeGenContext &Ctx)>
      RewriteEmit;
};

/// A target machine: its Dialect row and its binding table.
class Target {
public:
  explicit Target(const Dialect &D) : D(D) {}
  Target(const Dialect &&) = delete; ///< D must outlive the target.

  std::string name() const { return D.Name; }
  void addBinding(InstructionBinding B) { Bindings.push_back(std::move(B)); }
  const std::vector<InstructionBinding> &bindings() const { return Bindings; }
  /// Drops every binding, leaving a decomposition-only target. The
  /// built-in targets already start that way; this resets a target before
  /// a different registry is loaded onto it.
  void clearBindings() { Bindings.clear(); }

  /// Emits the primitive-operation fallback for \p O ("the compiler must
  /// include decomposition rules to transform the high-level operator
  /// into a sequence of low-level operations", §6).
  void decompose(const HLOp &O, CodeGenContext &Ctx) const;

  /// Generates code for a whole program.
  CodeGenResult generate(const Program &P) const;

private:
  const Dialect &D;
  std::vector<InstructionBinding> Bindings;
};

/// The built-in targets: decomposition rules only, no bindings.
std::unique_ptr<Target> makeI8086Target();
std::unique_ptr<Target> makeVaxTarget();
std::unique_ptr<Target> makeIbm370Target();

/// §6 "integration of rewriting rules with augment code": a peephole
/// pass over emitted assembly that deletes self-moves and redundant
/// adjacent flag/direction setup.
std::vector<std::string> peephole(std::vector<std::string> Asm);

} // namespace codegen
} // namespace extra

#endif // EXTRA_CODEGEN_TARGET_H
