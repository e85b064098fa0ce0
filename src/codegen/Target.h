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
///      to the target's decomposition rules (a primitive byte loop).
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
#include <vector>

namespace extra {
namespace codegen {

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
  /// Loads \p V into \p Reg unless the register already holds it
  /// (mov-style syntax is provided by the target).
  void load(const std::string &Reg, const Value &V,
            const std::string &MovMnemonic = "mov");

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

/// A target machine: its binding table and decomposition rules.
class Target {
public:
  /// \p WordMax is the largest value a machine word holds; range
  /// constraints reaching it are trivially satisfied ("a trivial one to
  /// satisfy on the Intel 8086 since the word size of the machine is 16
  /// bits", §4.1). Narrower constraints — VAX string lengths, the mvc
  /// length byte — need compile-time facts or rewriting.
  Target(std::string Name, int64_t WordMax)
      : Name(std::move(Name)), WordMax(WordMax) {}
  virtual ~Target();

  const std::string &name() const { return Name; }
  int64_t wordMax() const { return WordMax; }
  void addBinding(InstructionBinding B) { Bindings.push_back(std::move(B)); }
  const std::vector<InstructionBinding> &bindings() const { return Bindings; }
  /// Drops every binding, leaving a decomposition-only target. The
  /// built-in targets already start that way; this resets a target before
  /// a different registry is loaded onto it.
  void clearBindings() { Bindings.clear(); }

  /// Emits the primitive-operation fallback for \p O ("the compiler must
  /// include decomposition rules to transform the high-level operator
  /// into a sequence of low-level operations", §6).
  virtual void decompose(const HLOp &O, CodeGenContext &Ctx) const = 0;

  /// Generates code for a whole program.
  CodeGenResult generate(const Program &P) const;

private:
  std::string Name;
  int64_t WordMax;
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
