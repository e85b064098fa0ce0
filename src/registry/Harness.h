//===- Harness.h - Differential execution of registry bindings --*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Proves a registry *executable*: compiles a frontend program twice per
/// target — once with the registry's bindings lowered onto it, once
/// decomposition-only — runs both through the matching simulator, and
/// asserts the final memory and result symbols are state-identical while
/// reporting the §1 cost deltas (instruction dispatches, byte operations,
/// code size). Both sides share the decomposition rules, so a defect in
/// those rules shows on neither; only an independent reference model
/// (perfbench's) can catch it.
///
/// Also the one place a built-in target gets its bindings:
/// corpusTarget() lowers the recorded corpus onto a bare target.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_REGISTRY_HARNESS_H
#define EXTRA_REGISTRY_HARNESS_H

#include "registry/BindingCompiler.h"
#include "sim/SimCommon.h"

#include <optional>

namespace extra {
namespace registry {

enum class MachineKind { I8086, Vax, Ibm370 };

/// "i8086" / "vax" / "ibm370" — matches RegistryEntry::Machine.
const char *machineName(MachineKind MK);
std::optional<MachineKind> machineFromName(const std::string &Name);
std::vector<MachineKind> allMachines();

/// The built-in target for \p MK with every lowerable entry of
/// recordedCorpus() compiled onto it — the code generator's binding
/// table, derived from the recorded derivations rather than written by
/// hand.
std::unique_ptr<codegen::Target> corpusTarget(MachineKind MK);

/// The shared end-to-end demo program (the retargeting example): a
/// string move, an index, an equality compare, and a block clear over
/// the memory image `demoMemory()` builds. Results land in the virtual
/// symbols "i" and "eq".
codegen::Program demoProgram();
interp::Memory demoMemory();

/// One compiled-and-executed side of a differential run.
struct SideReport {
  bool Ok = false;
  std::string Error;
  uint64_t Instructions = 0; ///< Simulator dispatch count.
  uint64_t MicroOps = 0;     ///< Per-byte data operations.
  unsigned CodeSize = 0;     ///< Emitted instruction lines.
  unsigned Exotic = 0;       ///< Ops implemented by exotic instructions.
  unsigned Decomposed = 0;   ///< Ops decomposed to primitive loops.
  std::vector<std::string> Asm;
  interp::Memory Mem;
  std::map<std::string, int64_t> Regs;
};

struct DifferentialReport {
  MachineKind Machine = MachineKind::I8086;
  unsigned BindingsLoaded = 0;
  SideReport WithRegistry; ///< Registry bindings on.
  SideReport Baseline;     ///< Decomposition-only.
  bool StatesMatch = false;
  std::string Divergence; ///< First observed difference, when !StatesMatch.

  /// The acceptance bar: same states, strictly fewer dispatches, and the
  /// registry actually supplied exotic emissions.
  bool passes() const {
    return WithRegistry.Ok && Baseline.Ok && StatesMatch &&
           WithRegistry.Exotic > 0 &&
           WithRegistry.Instructions < Baseline.Instructions;
  }
};

/// Compiles \p P twice on \p MK (registry bindings vs decomposition-only),
/// runs both on the machine's simulator over \p Mem, and compares final
/// memory plus every HLOp result symbol. Scratch machine registers are
/// excluded from the comparison — the two translations legitimately use
/// different ones. Compile notes for unlowerable entries go to \p Notes.
DifferentialReport runDifferential(MachineKind MK, const Registry &R,
                                   const codegen::Program &P,
                                   const interp::Memory &Mem,
                                   std::vector<CompileNote> *Notes = nullptr);

/// Human-readable summary (one block per report) for the CLI.
std::string formatReport(const DifferentialReport &R);

} // namespace registry
} // namespace extra

#endif // EXTRA_REGISTRY_HARNESS_H
