//===- Transform.h - Source-to-source transformation framework --*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transformation framework at the heart of EXTRA (§3, §5). A
/// Transformation rewrites a description in place after checking its
/// syntactic and data-flow applicability conditions. The library mirrors
/// the paper's seven categories:
///
///   local, code motion, loop, global, routine structuring,
///   constraint/assertion, and augment producing.
///
/// In the 1982 system the *user* chose each transformation with a
/// structure editor and EXTRA verified and applied it. Here a Step names
/// the rule, the routine to work in, and rule-specific arguments (the
/// role of the cursor); the engine verifies and applies exactly as the
/// paper describes, and records a replayable log.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_TRANSFORM_TRANSFORM_H
#define EXTRA_TRANSFORM_TRANSFORM_H

#include "constraint/Constraint.h"
#include "isdl/AST.h"
#include "isdl/Intern.h"
#include "isdl/Traverse.h"
#include "obs/Metrics.h"
#include "support/Error.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace extra {
namespace transform {

/// The paper's seven transformation categories (§5).
enum class Category {
  Local,
  CodeMotion,
  Loop,
  Global,
  RoutineStructuring,
  ConstraintOp,
  Augment,
};

/// Spelled name of a category, for reports.
const char *categoryName(Category C);

/// How a rule relates the semantics of the description before and after.
enum class SemanticsEffect {
  /// Observationally identical on every input.
  Preserving,
  /// The input signature or input domain changed (operand fixed to a
  /// value, offset-encoded, or range-restricted); an adapter maps new
  /// inputs back to old ones so a differential check still applies.
  InputRefining,
  /// Deliberately changes observables (prologue/epilogue augments). The
  /// end-to-end check against the language operator covers these.
  Augmenting,
};

/// Maps an input vector of the transformed description to the equivalent
/// input vector of the original (for InputRefining steps).
using InputAdapter =
    std::function<std::vector<int64_t>(const std::vector<int64_t> &)>;

/// Everything a rule may touch while applying.
struct TransformContext {
  isdl::Description &Desc;
  /// Routine to operate in; empty selects the entry routine. A few global
  /// rules ignore it and work on the whole description.
  std::string RoutineName;
  /// Rule-specific arguments (operand names, values, code text, ...).
  std::map<std::string, std::string> Args;
  /// Constraints uncovered so far; rules append (may be null).
  constraint::ConstraintSet *Constraints = nullptr;

  /// Resolves RoutineName (entry when empty); null + Reason when absent.
  isdl::Routine *routine(std::string &Reason) const;

  /// Required string argument; empty + Reason when missing.
  std::string arg(const std::string &Key, std::string &Reason) const;
  /// Optional argument with default.
  std::string argOr(const std::string &Key, std::string Default) const;
  /// Required integer argument.
  std::optional<int64_t> intArg(const std::string &Key,
                                std::string &Reason) const;
  /// The `occurrence` argument, which picks one match (0-based, in walk
  /// order): \p Absent when the step has none; nullopt + Reason when it
  /// is not an integer.
  std::optional<long> occurrence(std::string &Reason, long Absent = -1) const;
};

/// Outcome of one application attempt.
struct ApplyResult {
  bool Applied = false;
  /// Why the rule refused, when !Applied.
  std::string Reason;
  /// Typed classification of the failure: RuleApplication when a rule
  /// faulted (threw) rather than refused, None for ordinary refusals and
  /// successes. Ordinary refusals are expected search traffic, not
  /// faults.
  FaultCategory Category = FaultCategory::None;
  SemanticsEffect Effect = SemanticsEffect::Preserving;
  /// For InputRefining steps: adapter from new inputs to old inputs.
  InputAdapter Adapter;
  /// Human-readable note about what was done.
  std::string Note;

  static ApplyResult failure(std::string Reason) {
    ApplyResult R;
    R.Reason = std::move(Reason);
    return R;
  }
  static ApplyResult success(SemanticsEffect Effect, std::string Note = "") {
    ApplyResult R;
    R.Applied = true;
    R.Effect = Effect;
    R.Note = std::move(Note);
    return R;
  }
};

/// Base class of all transformations.
class Transformation {
public:
  Transformation(std::string Name, Category C, std::string Description)
      : Name(std::move(Name)), Cat(C), Desc(std::move(Description)) {}
  virtual ~Transformation();

  const std::string &name() const { return Name; }
  Category category() const { return Cat; }
  const std::string &description() const { return Desc; }

  /// Verifies applicability and applies, mutating the description.
  ///
  /// Refusal-purity contract: a rule that returns a failure must leave
  /// `Ctx.Desc` exactly as it found it — all applicability checks run
  /// before the first mutation (check-then-mutate). The engine's scratch
  /// reuse depends on this: a refused attempt keeps the working copy for
  /// the next candidate instead of re-cloning, so a rule that mutated
  /// before refusing would leak the partial rewrite into later attempts.
  /// Throwing mid-rewrite is fine (the engine discards the working copy
  /// on any exception); constraint-set additions before a refusal are
  /// also fine (the engine never rolled those back). Debug builds assert
  /// the contract on every refusal; tests/intern_test.cpp sweeps it over
  /// the corpus.
  virtual ApplyResult apply(TransformContext &Ctx) const = 0;

private:
  std::string Name;
  Category Cat;
  std::string Desc;
};

/// The transformation library: all registered rules by name.
class Registry {
public:
  /// The process-wide library, populated on first use with the full
  /// 75-rule catalog.
  static const Registry &instance();

  const Transformation *lookup(const std::string &Name) const;
  std::vector<const Transformation *> all() const;
  size_t size() const { return ByName.size(); }
  /// Rules in one category, in registration order.
  std::vector<const Transformation *> inCategory(Category C) const;

  /// Adds a rule (takes ownership). Asserts on duplicate names.
  void add(std::unique_ptr<Transformation> T);

private:
  Registry() = default;
  std::map<std::string, std::unique_ptr<Transformation>> ByName;
  std::vector<const Transformation *> Order;
};

// Registration hooks, one per category source file.
void registerLocalTransforms(Registry &R);
void registerCodeMotionTransforms(Registry &R);
void registerLoopTransforms(Registry &R);
void registerGlobalTransforms(Registry &R);
void registerRoutineTransforms(Registry &R);
void registerConstraintTransforms(Registry &R);
void registerAugmentTransforms(Registry &R);

/// One scripted application: rule name, routine, arguments.
struct Step {
  std::string Rule;
  std::string Routine;
  std::map<std::string, std::string> Args;

  std::string str() const;
};

/// A replayable derivation (the recorded role of the 1982 user session).
using Script = std::vector<Step>;

/// Hook invoked after every successful step; used by the analysis driver
/// to differentially test semantic preservation.
struct StepObservation {
  const Step &S;
  const isdl::Description &Before;
  const isdl::Description &After;
  SemanticsEffect Effect;
  const InputAdapter &Adapter; ///< Valid only for InputRefining steps.
};
using StepVerifier = std::function<bool(const StepObservation &,
                                        std::string &Error)>;

/// Applies scripted steps to a working copy of a description, keeping a
/// log and the constraint set. This is the EXTRA session object.
///
/// The session state is a copy-on-write handle to an immutable description
/// version. apply() clones the current version once into a private working
/// copy, lets the rule mutate that, and on success publishes it as the new
/// current version while the log keeps the *handle* to the old one — so a
/// refusal discards the working copy with nothing to restore, undo() is a
/// refcount swap instead of a deep copy, and an Engine constructed from a
/// shared DescHandle (the searcher's per-candidate scratch engine) costs no
/// clone at all until a rule actually applies. The working copy lives in a
/// thread-local slot kept across attempts, so a refused candidate costs a
/// rule match but no clone: the next attempt on the same version reuses
/// the buffer under the rules' refusal-purity contract (see
/// Transformation::apply).
class Engine {
public:
  explicit Engine(isdl::Description Initial);
  /// Shares \p Initial with the caller: no copy is made until a step
  /// applies (the searcher constructs one scratch engine per candidate).
  explicit Engine(isdl::DescHandle Initial);

  /// Verifies and applies one step. On failure the description is left
  /// unchanged and the failure reason is returned in the result.
  ApplyResult apply(const Step &S);

  /// Applies a whole script, stopping at the first failure. Returns the
  /// number of successfully applied steps.
  size_t applyScript(const Script &S, std::string *FirstError = nullptr);

  const isdl::Description &current() const { return Cur.get(); }
  /// The current version as a shareable handle (no copy).
  const isdl::DescHandle &currentHandle() const { return Cur; }
  isdl::Description takeDescription() { return std::move(Cur).take(); }
  const constraint::ConstraintSet &constraints() const { return Constraints; }
  size_t stepsApplied() const { return Log.size(); }
  /// True once an apply() on this engine faulted (a rule threw) rather
  /// than applied or refused.
  bool faulted() const { return Faulted; }

  struct LogEntry {
    Step S;
    SemanticsEffect Effect;
    std::string Note;
    /// Snapshot for undo: a handle to the pre-step version (shared, not
    /// copied) and the constraint-set size before the step.
    isdl::DescHandle Before;
    size_t ConstraintsBefore = 0;
  };
  const std::vector<LogEntry> &log() const { return Log; }

  /// Reverts the most recent step (description and recorded
  /// constraints), like backing out of an edit in the 1982 structure
  /// editor. Returns false when nothing has been applied.
  bool undo();

  /// Installs a per-step verifier (differential semantic check).
  void setVerifier(StepVerifier V) { Verifier = std::move(V); }

  /// Optional, non-owning metrics: apply() then records per-rule
  /// apply/refuse counters and the apply latency histogram. Without
  /// them the hook costs one branch.
  void setMetrics(obs::Metrics *M) { Met = M; }

private:
  isdl::DescHandle Cur;
  constraint::ConstraintSet Constraints;
  std::vector<LogEntry> Log;
  StepVerifier Verifier;
  obs::Metrics *Met = nullptr;
  bool Faulted = false;
};

//===----------------------------------------------------------------------===//
// Shared rule helpers (used across category implementation files)
//===----------------------------------------------------------------------===//

namespace detail {

/// True if \p E is boolean-valued: a relational or logical operator, a
/// `not`, a literal 0/1, or a reference to a declared 1-bit flag.
bool isBooleanExpr(const isdl::Description &D, const isdl::Expr &E);

/// Counts writes of \p Var across the whole description (assignment
/// targets and input lists).
unsigned countWrites(const isdl::Description &D, const std::string &Var);

/// Counts read references of \p Var across the whole description. Plain
/// assignment targets and input lists are writes, not reads; a memory
/// target's address expression is a read. `assert` predicates count;
/// `constrain` annotations do not.
unsigned countReads(const isdl::Description &D, const std::string &Var);

/// True when \p Var or routine \p Var is referenced anywhere.
bool isReferenced(const isdl::Description &D, const std::string &Name);

} // namespace detail

} // namespace transform
} // namespace extra

#endif // EXTRA_TRANSFORM_TRANSFORM_H
