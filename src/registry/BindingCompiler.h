//===- BindingCompiler.h - Lower registry entries to bindings ---*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a RegistryEntry into a live `codegen::InstructionBinding` at
/// target-load time. It is the only source of bindings: the built-in
/// targets are decomposition-only until a registry is lowered onto them
/// (registry::corpusTarget lowers the recorded corpus).
///
/// What is derived from the entry, and what is kernel knowledge, is the
/// §9 contract (DESIGN.md):
///
///  * the *constraint set* is parsed back from the entry's rendered
///    constraint text — value pins, narrow ranges, offset deltas, and
///    relational predicates (re-parsed with the ISDL expression parser)
///    all behave under `ConstraintSet::checkAll` exactly as the
///    analysis-produced sets they were rendered from do;
///  * the *augment structure* is parsed from the entry's instruction
///    derivation script: `fix-operand-value` pins become flag setup or
///    pinned register loads, `add-prologue "t <- r;"` becomes the
///    initial-address save, and `replace-output "if C then output (A);
///    else output (B); end_if;"` becomes the branchy epilogue. Augment
///    code is read with the ISDL statement parser, so a recorded and a
///    discovered rendering of one binding lower alike; `if not C` swaps
///    the arms;
///  * the *kernel* — which dedicated register carries which operand,
///    the core instruction syntax, what the instruction clobbers, and
///    how to force the 8086's zf — is a small per-(machine, mnemonic,
///    operator-kind) table here. The machine's primitives (load, move,
///    branch, subtract, ...) and word width come from its
///    codegen::Dialect row, which the decomposition rules read too. This
///    mirrors the paper's division of labor: EXTRA discovers *that* and
///    *under which constraints* an instruction implements an operator;
///    the machine's operand conventions come from its description.
///
/// Rewriting rules (§6 chunked uses) are synthesized for move/copy
/// entries whose constraint set carries a narrow range: the chunk size
/// is the range's upper bound and the encoded-length delta comes from
/// the offset constraint, so `mvc` chunks at 256 and `movc3` at 65535
/// without either number appearing in this file.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_REGISTRY_BINDINGCOMPILER_H
#define EXTRA_REGISTRY_BINDINGCOMPILER_H

#include "codegen/Target.h"
#include "registry/Registry.h"

#include <string>
#include <vector>

namespace extra {
namespace registry {

/// Parses the rendered constraint text (`ConstraintSet::str()` output,
/// one constraint per line, optional "  ! note" suffixes) back into a
/// live set. Relational predicates go through the ISDL expression
/// parser. Faults (Parse) on lines outside the four renderings.
Expected<constraint::ConstraintSet>
parseConstraintText(const std::string &Text);

/// Lowers one entry. Faults when the entry is outside the kernel
/// vocabulary (unknown machine/mnemonic/operator-kind triple, operator
/// with no code-generator kind, or an augment script the lowerer cannot
/// interpret) — such entries are data, not errors, at the registry
/// level; the caller decides whether to skip or report.
Expected<codegen::InstructionBinding> compileBinding(const RegistryEntry &E);

/// One entry the loader could not lower, with the reason.
struct CompileNote {
  std::string CaseId;
  std::string Detail;
};

/// Compiles every entry whose Machine matches and registers the result
/// on \p T (key order; an entry whose (operator kind, mnemonic) is
/// already bound is skipped — the two-language pairings of one
/// instruction lower identically). Returns the number registered.
unsigned loadRegistryBindings(const Registry &R, const std::string &Machine,
                              codegen::Target &T,
                              std::vector<CompileNote> *Notes = nullptr);

} // namespace registry
} // namespace extra

#endif // EXTRA_REGISTRY_BINDINGCOMPILER_H
