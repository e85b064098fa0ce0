//===- Synth.h - Rule-argument synthesis from divergence reports -*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns the structured failure of a common-form match into concrete rule
/// arguments. The 1982 user supplied these by hand: fresh variable names
/// for the renaming loop transformations (`index-to-pointer`,
/// `count-up-to-down`, `record-exit-cause`) and the augment code text for
/// `add-prologue` / `replace-output`. The synthesizers here recover both
/// from the isdl::DivergenceReport of a failed matchDescriptions call:
///
///  * *name synthesis* scans the description for the syntactic shapes the
///    renaming rules rewrite (base+index memory accesses, up-counting
///    loops, two-exit loops) and derives names from the shapes themselves;
///
///  * *code synthesis* prints the operator side's unmatched statements
///    through the partial binding — every operator name replaced by its
///    instruction-side partner — and offers the text as add-prologue /
///    replace-output arguments for the instruction side.
///
/// Every proposal is an ordinary transform::Script: the search applies it
/// through the verifying engine like any other step, so synthesis can only
/// ever *suggest*, never smuggle in an unverified rewrite.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_SYNTH_SYNTH_H
#define EXTRA_SYNTH_SYNTH_H

#include "isdl/Equiv.h"
#include "obs/Metrics.h"
#include "transform/Transform.h"

#include <map>
#include <string>
#include <vector>

namespace extra {
namespace synth {

/// One synthesized candidate: a short script applied atomically (an
/// allocate-temp and the augment that uses it stand or fall together).
struct Proposal {
  transform::Script Steps;
  std::string Rationale;
};

/// The naming convention for a temporary that saves one machine register
/// across a loop (the `temp <- di` idiom of the 8086 string analyses).
struct TempConvention {
  std::string Name;    ///< allocate-temp name argument.
  std::string Type;    ///< allocate-temp type argument.
  std::string Section; ///< allocate-temp section argument.
};

/// Synthesis vocabulary: naming conventions that cannot be derived from
/// the descriptions alone. analysis::Priors mines these from the recorded
/// derivation scripts; callers without a corpus can pass defaults.
struct Vocabulary {
  /// Saved-register name -> temp convention (keyed by the register the
  /// prologue reads, e.g. "di" -> {temp, bits:15:0, STATE}).
  std::map<std::string, TempConvention> Temps;
  /// Fresh-flag name palette for record-exit-cause.
  std::vector<std::string> Flags;
};

/// Pointer name for an index-to-pointer rewrite of a memory access with
/// base \p BaseName, given \p SiteCount base+index sites in the whole
/// description: a single site is simply "ptr"; with several, the name is
/// derived from the base's stem ("Src.Base" -> "sp", "A.Base" -> "pa").
std::string pointerNameFor(const std::string &BaseName, unsigned SiteCount);

/// index-to-pointer steps for every base+index memory access in
/// \p Current, with synthesized pointer names. One step per distinct
/// (base, index) pair, deterministic order.
std::vector<transform::Step>
proposeIndexToPointer(const isdl::Description &Current);

/// count-up-to-down steps for every `i <- 0 ... exit_when (i = n) ...
/// i <- i + 1` loop in \p Current. The counter name reuses the bound
/// (the rule's in-place branch), so no fresh name is needed.
std::vector<transform::Step>
proposeCountUpToDown(const isdl::Description &Current);

/// allocate-temp + record-exit-cause macros for every two-exit loop in
/// \p Current's entry routine, one per fresh flag name in \p Vocab.
std::vector<Proposal> proposeRecordExitCause(const isdl::Description &Current,
                                             const Vocabulary &Vocab);

/// Augment-code proposals for the *instruction* side: runs the common-form
/// match of \p Operator against \p Instruction, and when it fails inside
/// the entry bodies, prints the operator's unmatched statements through
/// the partial binding as add-prologue / replace-output arguments.
/// Operator names with no instruction partner abort the affected
/// proposal, except a saved-value assignment target, which becomes a
/// fresh temporary via \p Vocab.
std::vector<Proposal> proposeAugments(const isdl::Description &Operator,
                                      const isdl::Description &Instruction,
                                      const Vocabulary &Vocab);

/// All multi-step proposals for one side of a two-sided search state.
/// \p CurrentIsInstruction gates code synthesis: augments edit the
/// instruction side only. (Single-step name proposals are exposed above
/// and reach the searcher through search::enumerateCandidates.)
///
/// With \p Metrics installed (optional, non-owning), each generated
/// proposal increments `synth.proposal.<kind>`, where kind is the
/// proposal's leading rule family (record-exit-cause,
/// index-to-pointer-family, add-prologue, replace-output, ...). Whether
/// a proposal then survives atomic application is the caller's to
/// record (`synth.accept` / `synth.reject` in the searcher).
std::vector<Proposal> synthesizeProposals(const isdl::Description &Current,
                                          const isdl::Description &Other,
                                          bool CurrentIsInstruction,
                                          const Vocabulary &Vocab,
                                          obs::Metrics *Metrics = nullptr);

} // namespace synth
} // namespace extra

#endif // EXTRA_SYNTH_SYNTH_H
