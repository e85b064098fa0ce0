//===- ReachingDefs.cpp - Reaching definitions over ISDL CFGs ---*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "dataflow/ReachingDefs.h"

using namespace extra;
using namespace extra::dataflow;
using namespace extra::isdl;

ReachingDefs::ReachingDefs(const CFG &G) : G(G) {
  const std::vector<CFGNode> &Nodes = G.nodes();
  size_t N = Nodes.size();
  First.push_back(0);
  for (size_t V = 0; V < G.numVars(); ++V) {
    for (size_t I = 0; I < N; ++I)
      if (testBit(Nodes[I].Writes.data(), V))
        DefNode.push_back(static_cast<int>(I));
    First.push_back(static_cast<int>(DefNode.size()));
  }
  W = (DefNode.size() + 63) / 64;

  // GEN is a node's own definitions; KILL is every definition of the
  // variables it writes.
  std::vector<uint64_t> Gen(N * W), Kill(N * W);
  auto Set = [&](std::vector<uint64_t> &Bits, size_t Node, size_t D) {
    Bits[Node * W + D / 64] |= uint64_t(1) << (D % 64);
  };
  for (size_t V = 0; V < G.numVars(); ++V)
    for (int D = First[V]; D < First[V + 1]; ++D) {
      Set(Gen, DefNode[D], D);
      for (int K = First[V]; K < First[V + 1]; ++K)
        Set(Kill, DefNode[D], K);
    }

  std::vector<std::vector<int>> Preds = G.predecessors();
  std::vector<uint64_t> Out(N * W);
  In.assign(N * W, 0);
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (size_t I = 0; I < N; ++I)
      for (size_t K = 0; K < W; ++K) {
        uint64_t NewIn = 0;
        for (int P : Preds[I])
          NewIn |= Out[P * W + K];
        uint64_t NewOut = Gen[I * W + K] | (NewIn & ~Kill[I * W + K]);
        Changed |= NewOut != Out[I * W + K];
        In[I * W + K] = NewIn;
        Out[I * W + K] = NewOut;
      }
  }
}

std::vector<int> ReachingDefs::defsReaching(int Node,
                                            const std::string &Var) const {
  std::vector<int> Defs;
  int V = G.varIndex(Var);
  if (V < 0)
    return Defs;
  for (int D = First[V]; D < First[V + 1]; ++D)
    if (testBit(&In[Node * W], D))
      Defs.push_back(DefNode[D]);
  return Defs;
}
