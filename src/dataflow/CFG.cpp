//===- CFG.cpp - Control-flow graphs for ISDL routines ----------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "dataflow/CFG.h"

#include "isdl/Traverse.h"

using namespace extra;
using namespace extra::dataflow;
using namespace extra::isdl;

//===----------------------------------------------------------------------===//
// Effect summaries
//===----------------------------------------------------------------------===//

namespace {

/// Reports the reads of \p E to \p Out, and each call by callee name. The
/// name-set summaries below and CFG::Builder share this walk.
template <typename Sink> void exprEffects(const Expr &E, Sink &Out) {
  forEachExpr(E, [&](const Expr &Sub) {
    if (const auto *V = dyn_cast<VarRef>(&Sub))
      Out.read(V->getName());
    else if (isa<MemRef>(&Sub))
      Out.read(MemoryVar);
    else if (const auto *C = dyn_cast<CallExpr>(&Sub))
      Out.call(C->getCallee());
  });
}

template <typename Sink> void stmtEffects(const Stmt &S, Sink &Out) {
  switch (S.getKind()) {
  case Stmt::Kind::Assign: {
    const auto *A = cast<AssignStmt>(&S);
    exprEffects(*A->getValue(), Out);
    if (const auto *M = dyn_cast<MemRef>(A->getTarget())) {
      exprEffects(*M->getAddress(), Out);
      Out.write(MemoryVar);
    } else {
      Out.write(cast<VarRef>(A->getTarget())->getName());
    }
    break;
  }
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(&S);
    exprEffects(*I->getCond(), Out);
    for (const StmtPtr &Sub : I->getThen())
      stmtEffects(*Sub, Out);
    for (const StmtPtr &Sub : I->getElse())
      stmtEffects(*Sub, Out);
    break;
  }
  case Stmt::Kind::Repeat:
    for (const StmtPtr &Sub : cast<RepeatStmt>(&S)->getBody())
      stmtEffects(*Sub, Out);
    break;
  case Stmt::Kind::ExitWhen:
    exprEffects(*cast<ExitWhenStmt>(&S)->getCond(), Out);
    break;
  case Stmt::Kind::Input:
    Out.read(IoVar);
    Out.write(IoVar);
    for (const std::string &T : cast<InputStmt>(&S)->getTargets())
      Out.write(T);
    break;
  case Stmt::Kind::Output:
    Out.read(IoVar);
    Out.write(IoVar);
    for (const ExprPtr &V : cast<OutputStmt>(&S)->getValues())
      exprEffects(*V, Out);
    break;
  case Stmt::Kind::Constrain:
  case Stmt::Kind::Assert:
    // Annotations do not read or write run-time state.
    break;
  }
}

void summarizeRoutineInto(const Description &D, const Routine &R,
                          EffectSummary &Out,
                          std::set<std::string> &InProgress);

/// Collects effects as name sets. A call adds its callee's transitive
/// summary: to the writes, or without \p Writes to the reads.
struct NameSink {
  const Description &D;
  std::set<std::string> &Reads;
  std::set<std::string> *Writes;
  std::set<std::string> &InProgress;

  void read(const std::string &Name) { Reads.insert(Name); }
  void write(const std::string &Name) { Writes->insert(Name); }
  void call(const std::string &Name) {
    const Routine *Callee = D.findRoutine(Name);
    if (!Callee) {
      // Unknown callee: assume the worst.
      Reads.insert(MemoryVar);
      if (Writes)
        Writes->insert(MemoryVar);
      return;
    }
    EffectSummary Sum;
    summarizeRoutineInto(D, *Callee, Sum, InProgress);
    Reads.insert(Sum.Reads.begin(), Sum.Reads.end());
    (Writes ? *Writes : Reads).insert(Sum.Writes.begin(), Sum.Writes.end());
  }
};

void summarizeRoutineInto(const Description &D, const Routine &R,
                          EffectSummary &Out,
                          std::set<std::string> &InProgress) {
  if (!InProgress.insert(R.Name).second) {
    // Recursion guard: assume the worst for a cyclic call.
    Out.Reads.insert(MemoryVar);
    Out.Writes.insert(MemoryVar);
    return;
  }
  NameSink Sink{D, Out.Reads, &Out.Writes, InProgress};
  for (const StmtPtr &S : R.Body)
    stmtEffects(*S, Sink);
  InProgress.erase(R.Name);
}

} // namespace

EffectSummary dataflow::summarizeRoutine(const Description &D,
                                         const Routine &R) {
  EffectSummary Out;
  std::set<std::string> InProgress;
  summarizeRoutineInto(D, R, Out, InProgress);
  return Out;
}

EffectSummary dataflow::summarizeStmt(const Description &D, const Stmt &S) {
  EffectSummary Out;
  std::set<std::string> InProgress;
  NameSink Sink{D, Out.Reads, &Out.Writes, InProgress};
  stmtEffects(S, Sink);
  return Out;
}

void dataflow::collectExprEffects(const Description &D, const Expr &E,
                                  std::set<std::string> &ReadsOut,
                                  std::set<std::string> *WritesOut) {
  std::set<std::string> InProgress;
  NameSink Sink{D, ReadsOut, WritesOut, InProgress};
  exprEffects(E, Sink);
}

static bool intersects(const std::set<std::string> &A,
                       const std::set<std::string> &B) {
  for (const std::string &X : A)
    if (B.count(X))
      return true;
  return false;
}

bool dataflow::independent(const Description &D, const Stmt &A,
                           const Stmt &B) {
  bool ControlA = false, ControlB = false;
  forEachStmt(A, [&](const Stmt &S) {
    if (isa<ExitWhenStmt>(&S))
      ControlA = true;
  });
  forEachStmt(B, [&](const Stmt &S) {
    if (isa<ExitWhenStmt>(&S))
      ControlB = true;
  });
  if (ControlA || ControlB)
    return false;

  EffectSummary EA = summarizeStmt(D, A);
  EffectSummary EB = summarizeStmt(D, B);
  return !intersects(EA.Writes, EB.Reads) && !intersects(EB.Writes, EA.Reads) &&
         !intersects(EA.Writes, EB.Writes);
}

//===----------------------------------------------------------------------===//
// CFG construction
//===----------------------------------------------------------------------===//

/// One CFG::build: numbers each name on first sight, summarizes each
/// callee once, and collects the effects of node \p N as bits.
struct CFG::Builder {
  const Description &D;
  CFG &G;
  CFGNode *N = nullptr;
  /// Numbers of each callee's transitive reads and writes, by name.
  std::map<std::string, std::pair<std::vector<int>, std::vector<int>>>
      Callees = {};

  int var(const std::string &Name) {
    return G.Vars.try_emplace(Name, static_cast<int>(G.Vars.size()))
        .first->second;
  }
  static void set(std::vector<uint64_t> &Bits, int V) {
    size_t Word = static_cast<size_t>(V) / 64;
    if (Bits.size() <= Word)
      Bits.resize(Word + 1);
    Bits[Word] |= uint64_t(1) << (V % 64);
  }
  void read(const std::string &Name) { set(N->Reads, var(Name)); }
  void write(const std::string &Name) { set(N->Writes, var(Name)); }
  void call(const std::string &Name) {
    auto [It, New] = Callees.try_emplace(Name);
    if (New) {
      EffectSummary Sum;
      if (const Routine *Callee = D.findRoutine(Name))
        Sum = summarizeRoutine(D, *Callee);
      else // Unknown callee: assume the worst.
        Sum.Reads = Sum.Writes = {MemoryVar};
      for (const std::string &R : Sum.Reads)
        It->second.first.push_back(var(R));
      for (const std::string &W : Sum.Writes)
        It->second.second.push_back(var(W));
    }
    for (int V : It->second.first)
      set(N->Reads, V);
    for (int V : It->second.second)
      set(N->Writes, V);
  }

  int list(const StmtList &Stmts, int Next, int LoopExit) {
    int Entry = Next;
    for (size_t I = Stmts.size(); I-- > 0;)
      Entry = stmt(*Stmts[I], Entry, LoopExit);
    return Entry;
  }

  int stmt(const Stmt &S, int Next, int LoopExit) {
    CFGNode Node;
    Node.S = &S;
    N = &Node;
    switch (S.getKind()) {
    case Stmt::Kind::If:
      Node.R = CFGNode::Role::IfCond;
      exprEffects(*cast<IfStmt>(&S)->getCond(), *this);
      break;
    case Stmt::Kind::Repeat:
      Node.R = CFGNode::Role::LoopHeader;
      break;
    case Stmt::Kind::ExitWhen:
      Node.R = CFGNode::Role::ExitCond;
      exprEffects(*cast<ExitWhenStmt>(&S)->getCond(), *this);
      // A malformed exit_when outside a loop falls through only.
      Node.TakenSucc = LoopExit >= 0 ? LoopExit : Next;
      Node.Succs = {Node.TakenSucc, Next};
      break;
    default:
      stmtEffects(S, *this);
      Node.Succs = {Next};
      break;
    }
    int Id = static_cast<int>(G.Nodes.size());
    G.Nodes.push_back(std::move(Node));
    G.Index[&S] = Id;
    if (const auto *If = dyn_cast<IfStmt>(&S)) {
      int ThenEntry = list(If->getThen(), Next, LoopExit);
      int ElseEntry = list(If->getElse(), Next, LoopExit);
      G.Nodes[Id].Succs = {ThenEntry, ElseEntry};
    } else if (const auto *Rep = dyn_cast<RepeatStmt>(&S)) {
      int BodyEntry = list(Rep->getBody(), Id, Next);
      G.Nodes[Id].Succs = {BodyEntry};
    }
    return Id;
  }
};

CFG CFG::build(const Description &D, const Routine &R) {
  CFG G;
  Builder B{D, G};
  B.var(MemoryVar); // 0
  B.var(IoVar);     // 1
  G.Nodes.resize(2);
  G.Nodes[G.entry()].R = CFGNode::Role::Entry;
  G.Nodes[G.exit()].R = CFGNode::Role::Exit;
  // Final memory is observable, so the exit keeps @Mb live; liveness then
  // never lets a memory write be treated as dead.
  Builder::set(G.Nodes[G.exit()].Reads, 0);
  int First = B.list(R.Body, G.exit(), /*LoopExit=*/-1);
  G.Nodes[G.entry()].Succs = {First};
  for (CFGNode &N : G.Nodes) {
    N.Reads.resize(G.words());
    N.Writes.resize(G.words());
  }
  return G;
}

int CFG::nodeFor(const Stmt *S) const {
  auto It = Index.find(S);
  return It == Index.end() ? -1 : It->second;
}

int CFG::varIndex(const std::string &Name) const {
  auto It = Vars.find(Name);
  return It == Vars.end() ? -1 : It->second;
}

std::vector<std::vector<int>> CFG::predecessors() const {
  std::vector<std::vector<int>> Preds(Nodes.size());
  for (size_t I = 0; I < Nodes.size(); ++I)
    for (int S : Nodes[I].Succs)
      Preds[static_cast<size_t>(S)].push_back(static_cast<int>(I));
  return Preds;
}
