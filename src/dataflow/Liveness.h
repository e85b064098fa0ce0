//===- Liveness.h - Backward liveness over ISDL CFGs ------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic backward may-liveness over a routine CFG, as a bit-vector
/// fixpoint over the graph's variable numbering. Transformations use it
/// to justify dead-assignment elimination and code motion across loop
/// exits ("the decrement may move past this exit_when because the counter
/// is dead on the exit path").
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_DATAFLOW_LIVENESS_H
#define EXTRA_DATAFLOW_LIVENESS_H

#include "dataflow/CFG.h"

namespace extra {
namespace dataflow {

/// Live variables of one routine, queried by name.
class Liveness {
public:
  /// Runs the fixed point over \p G.
  explicit Liveness(const CFG &G);

  /// True if \p Name is dead immediately after \p S, or \p S is not in
  /// the graph.
  bool deadAfter(const isdl::Stmt *S, const std::string &Name) const;

  /// True if \p Name is live along the *taken* (loop-leaving) edge of the
  /// exit_when \p S: in the live-in of the exit continuation.
  bool liveOnExit(const isdl::ExitWhenStmt *S, const std::string &Name) const;

private:
  const CFG &G;
  size_t W;
  /// Live-in and live-out of node I: words [I * W, I * W + W).
  std::vector<uint64_t> In, Out;
};

} // namespace dataflow
} // namespace extra

#endif // EXTRA_DATAFLOW_LIVENESS_H
