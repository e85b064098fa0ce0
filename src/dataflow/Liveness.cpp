//===- Liveness.cpp - Backward liveness over ISDL CFGs ----------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Liveness.h"

using namespace extra;
using namespace extra::dataflow;
using namespace extra::isdl;

Liveness::Liveness(const CFG &G)
    : G(G), W(G.words()), In(G.nodes().size() * W), Out(In.size()) {
  // IN = reads ∪ (OUT - writes), OUT = ∪ IN of the successors. A node
  // both reading and writing a name (e.g. `x <- x + 1`) keeps it live.
  // Reverse node order converges quickly: construction order is roughly
  // reverse-topological within straight-line stretches.
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (size_t I = G.nodes().size(); I-- > 0;) {
      const CFGNode &Node = G.nodes()[I];
      for (size_t K = 0; K < W; ++K) {
        uint64_t O = 0;
        for (int S : Node.Succs)
          O |= In[S * W + K];
        uint64_t NewIn = Node.Reads[K] | (O & ~Node.Writes[K]);
        Changed |= NewIn != In[I * W + K];
        In[I * W + K] = NewIn;
        Out[I * W + K] = O;
      }
    }
  }
}

bool Liveness::deadAfter(const Stmt *S, const std::string &Name) const {
  int Id = G.nodeFor(S), V = G.varIndex(Name);
  return Id < 0 || V < 0 || !testBit(&Out[Id * W], V);
}

bool Liveness::liveOnExit(const ExitWhenStmt *S,
                          const std::string &Name) const {
  int Id = G.nodeFor(S), V = G.varIndex(Name);
  if (Id < 0 || V < 0)
    return false;
  int Taken = G.nodes()[Id].TakenSucc;
  return Taken >= 0 && testBit(&In[Taken * W], V);
}
