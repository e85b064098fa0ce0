//===- CFG.h - Control-flow graphs for ISDL routines ------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flow graphs over routine bodies. Each primitive statement becomes a
/// node; `if` contributes a condition node with two successors; `repeat`
/// contributes a header node with a back edge; `exit_when` has a taken
/// (loop-exit) successor and a fall-through successor. Calls are expanded
/// through routine effect summaries, because routines read and write
/// description-global registers (e.g. `fetch()` advances `di`).
///
/// Memory is modeled as the pseudo-variable `@Mb` and the input/output
/// streams as `@io`, so ordinary set operations cover memory and I/O
/// dependences. A graph numbers every name its routine reads or writes,
/// once, and stores each node's reads and writes as bit-vectors over
/// that numbering; the analyses in Liveness.h and ReachingDefs.h are
/// bit-vector fixpoints over the same numbering.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_DATAFLOW_CFG_H
#define EXTRA_DATAFLOW_CFG_H

#include "isdl/AST.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace extra {
namespace dataflow {

/// Name of the pseudo-variable standing for all of main memory.
inline const std::string MemoryVar = "@Mb";
/// Name of the pseudo-variable standing for the input/output streams.
inline const std::string IoVar = "@io";

/// What a routine reads and writes, transitively through calls.
struct EffectSummary {
  std::set<std::string> Reads;
  std::set<std::string> Writes;

  bool readsMemory() const { return Reads.count(MemoryVar) != 0; }
  bool writesMemory() const { return Writes.count(MemoryVar) != 0; }
};

/// Computes the transitive effect summary of \p R within \p D. Recursion
/// between routines (not expressible in well-formed descriptions) is cut
/// off conservatively.
EffectSummary summarizeRoutine(const isdl::Description &D,
                               const isdl::Routine &R);

/// Reads/writes of a single statement (nested statements included),
/// expanding calls via routine summaries.
EffectSummary summarizeStmt(const isdl::Description &D, const isdl::Stmt &S);

/// Reads of a single expression, expanding calls; call-site writes are
/// reported through \p WritesOut when provided.
void collectExprEffects(const isdl::Description &D, const isdl::Expr &E,
                        std::set<std::string> &ReadsOut,
                        std::set<std::string> *WritesOut);

/// True when two statements may be reordered: no write-read, read-write,
/// or write-write conflict on variables, memory, or the I/O streams, and
/// neither statement affects control flow (exit_when).
bool independent(const isdl::Description &D, const isdl::Stmt &A,
                 const isdl::Stmt &B);

/// One node of a routine flow graph.
struct CFGNode {
  enum class Role {
    Entry,      ///< Unique entry, no statement.
    Exit,       ///< Unique exit, no statement.
    Plain,      ///< Assign / input / output / assert / constrain.
    IfCond,     ///< Condition of an IfStmt.
    LoopHeader, ///< Head of a RepeatStmt (no reads or writes).
    ExitCond,   ///< Condition of an ExitWhenStmt.
  };

  Role R = Role::Plain;
  const isdl::Stmt *S = nullptr;
  /// Variables read and written, one bit per CFG::varIndex number, in
  /// CFG::words() words.
  std::vector<uint64_t> Reads, Writes;
  std::vector<int> Succs;
  /// For ExitCond nodes: the successor taken when the condition holds
  /// (control leaves the loop). Also present in Succs.
  int TakenSucc = -1;
};

/// A flow graph for one routine body.
class CFG {
public:
  /// Builds the graph for \p R inside \p D.
  static CFG build(const isdl::Description &D, const isdl::Routine &R);

  const std::vector<CFGNode> &nodes() const { return Nodes; }
  int entry() const { return 0; }
  int exit() const { return 1; }

  /// Node index for a statement (the condition node for if/exit_when, the
  /// header node for repeat), or -1.
  int nodeFor(const isdl::Stmt *S) const;

  /// Predecessor lists, derived from successor edges.
  std::vector<std::vector<int>> predecessors() const;

  /// The number of \p Name in this graph's variable table, or -1 when the
  /// routine neither reads nor writes it. `@Mb` and `@io` are always 0
  /// and 1.
  int varIndex(const std::string &Name) const;
  size_t numVars() const { return Vars.size(); }
  /// Words in each bit-vector over the variable table.
  size_t words() const { return (Vars.size() + 63) / 64; }

private:
  struct Builder;

  std::vector<CFGNode> Nodes;
  std::map<const isdl::Stmt *, int> Index;
  std::map<std::string, int> Vars;
};

/// True when bit \p I of the bit-vector \p Bits is set.
inline bool testBit(const uint64_t *Bits, size_t I) {
  return Bits[I / 64] >> (I % 64) & 1;
}

} // namespace dataflow
} // namespace extra

#endif // EXTRA_DATAFLOW_CFG_H
