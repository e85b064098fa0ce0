//===- Error.h - Typed fault taxonomy for EXTRA -----------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured error taxonomy of the robustness layer. Library code
/// never lets an exception cross a subsystem boundary: entry points the
/// batch searcher calls (parsing, validation, interpretation, rule
/// application, synthesis) report failures as *values* — a Fault with a
/// typed category — so one bad case can be recorded, retried, and
/// reported without taking down a whole discovery batch.
///
/// Three pieces:
///
///  * FaultCategory / Fault — the taxonomy itself. Categories are coarse
///    on purpose: they drive batch outcome classification and the
///    fault-injection matrix, not fine-grained diagnostics (those stay in
///    DiagnosticEngine and the free-form message).
///  * Expected<T> — a minimal result-or-fault carrier for entry points
///    that produce a value. Deliberately tiny (no monadic surface): the
///    call sites test `if (!R)` and read `R.fault()`.
///  * FaultError — the one sanctioned exception type, thrown only by
///    fault-injection sites and caught at the nearest containment layer
///    (transform::Engine::apply, search::searchDerivation, the batch
///    worker's catch-all), where it turns back into a Fault value.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_SUPPORT_ERROR_H
#define EXTRA_SUPPORT_ERROR_H

#include <cassert>
#include <exception>
#include <optional>
#include <string>
#include <utility>

namespace extra {

/// Coarse classification of a contained failure. The order is stable and
/// serialized by name (checkpoint records, trace events), never by value.
enum class FaultCategory {
  None,            ///< No fault (the success value of fault-carrying results).
  Parse,           ///< The ISDL front end rejected or failed on input text.
  Validate,        ///< Semantic validation rejected a parsed description.
  InterpBudget,    ///< The interpreter hit its step budget (runaway loop).
  RuleApplication, ///< A transformation rule failed abnormally (not a
                   ///< polite refusal — those carry reasons, not faults).
  Synth,           ///< Argument synthesis failed abnormally.
  Store,           ///< A persistent checkpoint or registry file failed
                   ///< (unwritable file, foreign format, future version).
  Internal,        ///< Anything else: logic errors, injected faults,
                   ///< foreign exceptions caught by a containment layer.
};

/// Stable lower-case name of a category ("parse", "rule-application", ...).
const char *faultCategoryName(FaultCategory C);

/// Parses a category name back; FaultCategory::Internal for unknown text
/// (a checkpoint from a newer build must still load).
FaultCategory faultCategoryFromName(const std::string &Name);

/// One contained failure: what kind, and a human-readable message.
struct Fault {
  FaultCategory Category = FaultCategory::None;
  std::string Message;

  bool isFault() const { return Category != FaultCategory::None; }
  /// "category: message" (or "none").
  std::string str() const;
};

/// The only exception the robustness layer itself throws — from
/// fault-injection sites — always caught by a containment layer and
/// converted back into a Fault value. Production code paths never throw
/// it; catching `FaultError` (or `std::exception`, which it derives from)
/// at a boundary covers both injected and genuine foreign exceptions.
class FaultError : public std::exception {
public:
  explicit FaultError(Fault F) : F(std::move(F)) {}
  const Fault &fault() const { return F; }
  const char *what() const noexcept override { return F.Message.c_str(); }

private:
  Fault F;
};

/// A value or a Fault. The minimal Expected: construction from either,
/// boolean test, dereference. Dereferencing a faulted Expected is a
/// programming error (asserted).
template <typename T> class Expected {
public:
  Expected(T Value) : Value(std::move(Value)) {}
  Expected(Fault F) : F(std::move(F)) {
    assert(this->F.isFault() && "Expected constructed from a non-fault");
  }

  explicit operator bool() const { return Value.has_value(); }
  bool hasValue() const { return Value.has_value(); }

  T &operator*() {
    assert(Value && "dereferencing a faulted Expected");
    return *Value;
  }
  const T &operator*() const {
    assert(Value && "dereferencing a faulted Expected");
    return *Value;
  }
  T *operator->() { return &**this; }
  const T *operator->() const { return &**this; }

  /// The fault; Category None when the Expected holds a value.
  const Fault &fault() const { return F; }

  /// Moves the value out (the Expected is left empty-but-valueless).
  T take() {
    assert(Value && "taking from a faulted Expected");
    T Out = std::move(*Value);
    Value.reset();
    return Out;
  }

private:
  std::optional<T> Value;
  Fault F;
};

/// Convenience constructor used at fault sites.
inline Fault makeFault(FaultCategory C, std::string Message) {
  Fault F;
  F.Category = C;
  F.Message = std::move(Message);
  return F;
}

} // namespace extra

#endif // EXTRA_SUPPORT_ERROR_H
