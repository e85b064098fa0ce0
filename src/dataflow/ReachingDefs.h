//===- ReachingDefs.h - Reaching definitions over ISDL CFGs -----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forward reaching-definitions analysis. Copy propagation asks: "at this
/// use of `x`, is the only reaching definition the copy `x <- y`?" — one
/// of the global transformations the paper gates on data flow conditions
/// (§5).
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_DATAFLOW_REACHINGDEFS_H
#define EXTRA_DATAFLOW_REACHINGDEFS_H

#include "dataflow/CFG.h"

namespace extra {
namespace dataflow {

/// Reaching definitions of one routine, queried by name. A "definition"
/// is a node that writes the variable; input statements and call-site
/// writes count as definitions with unknown value. The definition sites
/// are numbered per variable, and the fixpoint runs over bit-vectors of
/// those numbers.
class ReachingDefs {
public:
  explicit ReachingDefs(const CFG &G);

  /// Definition nodes of \p Var reaching the entry of \p Node, ascending.
  std::vector<int> defsReaching(int Node, const std::string &Var) const;

private:
  const CFG &G;
  /// The definitions of variable V are numbers First[V] .. First[V+1]-1,
  /// in node order; DefNode maps a number to its node.
  std::vector<int> First, DefNode;
  size_t W = 0;
  /// Definitions reaching the entry of node I: words [I * W, I * W + W).
  std::vector<uint64_t> In;
};

} // namespace dataflow
} // namespace extra

#endif // EXTRA_DATAFLOW_REACHINGDEFS_H
