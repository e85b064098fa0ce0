//===- dataflow_test.cpp - CFG / liveness / reaching defs tests -*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "dataflow/CFG.h"
#include "dataflow/Liveness.h"
#include "dataflow/ReachingDefs.h"

#include "CorpusSweep.h"
#include "TestSources.h"
#include "analysis/Derivations.h"
#include "descriptions/Descriptions.h"
#include "isdl/Parser.h"
#include "isdl/Traverse.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace extra;
using namespace extra::dataflow;
using namespace extra::isdl;
using extra::testing::forEachCorpusVersion;
using extra::testing::ruleTable;

namespace {

std::unique_ptr<Description> desc(std::string_view Src) {
  DiagnosticEngine Diags;
  auto D = parseDescription(Src, Diags);
  EXPECT_TRUE(D && !Diags.hasErrors()) << Diags.str();
  return D;
}

/// The nodes of \p Stmts in \p G, ascending: the order in which
/// defsReaching reports definitions.
std::vector<int> nodesOf(const CFG &G,
                         std::initializer_list<const Stmt *> Stmts) {
  std::vector<int> Out;
  for (const Stmt *S : Stmts)
    Out.push_back(G.nodeFor(S));
  std::sort(Out.begin(), Out.end());
  return Out;
}

TEST(EffectSummaryTest, FetchRoutineEffects) {
  DiagnosticEngine Diags;
  auto D = parseDescription(extra::testing::ScasbSource, Diags);
  ASSERT_TRUE(D);
  EffectSummary Sum = summarizeRoutine(*D, *D->findRoutine("fetch"));
  EXPECT_TRUE(Sum.Reads.count("di"));
  EXPECT_TRUE(Sum.Reads.count("df"));
  EXPECT_TRUE(Sum.readsMemory());
  EXPECT_TRUE(Sum.Writes.count("di"));
  EXPECT_TRUE(Sum.Writes.count("fetch"));
  EXPECT_FALSE(Sum.writesMemory());
}

TEST(EffectSummaryTest, TransitiveThroughCalls) {
  auto D = desc(R"(
x := begin
  ** S **
    a: integer,
    b: integer,
    inner(): integer := begin inner <- a; a <- a + 1; end
    outer(): integer := begin outer <- inner() + b; end
    x.execute := begin input (a, b); b <- outer(); output (b); end
end
)");
  EffectSummary Sum = summarizeRoutine(*D, *D->findRoutine("outer"));
  EXPECT_TRUE(Sum.Reads.count("a"));
  EXPECT_TRUE(Sum.Reads.count("b"));
  EXPECT_TRUE(Sum.Writes.count("a"));
}

TEST(EffectSummaryTest, CallEffectsInsideStatement) {
  DiagnosticEngine Diags;
  auto D = parseDescription(extra::testing::ScasbSource, Diags);
  ASSERT_TRUE(D);
  StmtList S = parseStmts("zf <- al - fetch();", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EffectSummary Sum = summarizeStmt(*D, *S[0]);
  EXPECT_TRUE(Sum.Writes.count("zf"));
  EXPECT_TRUE(Sum.Writes.count("di")); // via fetch()
  EXPECT_TRUE(Sum.Reads.count(MemoryVar));
}

TEST(IndependenceTest, DisjointAssignments) {
  auto D = desc(R"(
x := begin
  ** S **
    a: integer, b: integer, c: integer, d: integer,
    x.execute := begin input (a, b); c <- a; d <- b; output (c, d); end
end
)");
  DiagnosticEngine Diags;
  StmtList S = parseStmts("c <- a; d <- b; a <- d;", Diags);
  EXPECT_TRUE(independent(*D, *S[0], *S[1]));
  EXPECT_FALSE(independent(*D, *S[1], *S[2])); // d written then read
  EXPECT_FALSE(independent(*D, *S[0], *S[2])); // a read then written
}

TEST(IndependenceTest, MemoryConflicts) {
  auto D = desc(R"(
x := begin
  ** S **
    p: integer, q: integer, v: integer,
    x.execute := begin input (p, q, v); output (v); end
end
)");
  DiagnosticEngine Diags;
  StmtList S = parseStmts("Mb[p] <- v; v <- Mb[q]; p <- p + 1;", Diags);
  EXPECT_FALSE(independent(*D, *S[0], *S[1])); // write Mb vs read Mb
  EXPECT_FALSE(independent(*D, *S[0], *S[2])); // reads p vs writes p
  EXPECT_TRUE(independent(*D, *S[1], *S[2]));
}

TEST(IndependenceTest, ExitWhenNeverIndependent) {
  auto D = desc(R"(
x := begin
  ** S **
    a: integer, b: integer,
    x.execute := begin
      input (a, b);
      repeat exit_when (a = 0); b <- b + 1; a <- a - 1; end_repeat;
      output (b);
    end
end
)");
  DiagnosticEngine Diags;
  StmtList S = parseStmts("exit_when (a = 0); b <- b + 1;", Diags);
  EXPECT_FALSE(independent(*D, *S[0], *S[1]));
}

TEST(CFGTest, StraightLineShape) {
  auto D = desc(R"(
x := begin
  ** S **
    a: integer,
    x.execute := begin input (a); a <- a + 1; output (a); end
end
)");
  CFG G = CFG::build(*D, *D->entryRoutine());
  // entry, exit, input, assign, output
  EXPECT_EQ(G.nodes().size(), 5u);
  // Entry reaches exit.
  std::set<int> Seen;
  std::vector<int> Work = {G.entry()};
  while (!Work.empty()) {
    int N = Work.back();
    Work.pop_back();
    if (!Seen.insert(N).second)
      continue;
    for (int S : G.nodes()[N].Succs)
      Work.push_back(S);
  }
  EXPECT_TRUE(Seen.count(G.exit()));
}

TEST(CFGTest, LoopBackEdgeAndExit) {
  auto D = desc(R"(
x := begin
  ** S **
    n: integer,
    x.execute := begin
      input (n);
      repeat
        exit_when (n = 0);
        n <- n - 1;
      end_repeat;
      output (n);
    end
end
)");
  const Routine *Entry = D->entryRoutine();
  CFG G = CFG::build(*D, *Entry);
  const auto *Rep = cast<RepeatStmt>(Entry->Body[1].get());
  const auto *Exit = cast<ExitWhenStmt>(Rep->getBody()[0].get());
  int ExitNode = G.nodeFor(Exit);
  ASSERT_GE(ExitNode, 0);
  const CFGNode &N = G.nodes()[ExitNode];
  ASSERT_EQ(N.Succs.size(), 2u);
  // Taken edge leaves the loop and reaches the output node.
  int Taken = N.TakenSucc;
  const CFGNode &Target = G.nodes()[Taken];
  ASSERT_NE(Target.S, nullptr);
  EXPECT_EQ(Target.S->getKind(), Stmt::Kind::Output);
}

TEST(LivenessTest, DeadAfterLastUse) {
  auto D = desc(R"(
x := begin
  ** S **
    a: integer, b: integer,
    x.execute := begin input (a); b <- a + 1; output (b); end
end
)");
  const Routine *Entry = D->entryRoutine();
  CFG G = CFG::build(*D, *Entry);
  Liveness L(G);
  const Stmt *AssignB = Entry->Body[1].get();
  EXPECT_TRUE(L.deadAfter(AssignB, "a"));
  EXPECT_FALSE(L.deadAfter(AssignB, "b"));
}

TEST(LivenessTest, LoopKeepsCounterLive) {
  auto D = desc(R"(
x := begin
  ** S **
    n: integer, s: integer,
    x.execute := begin
      input (n);
      s <- 0;
      repeat
        exit_when (n = 0);
        s <- s + 1;
        n <- n - 1;
      end_repeat;
      output (s);
    end
end
)");
  const Routine *Entry = D->entryRoutine();
  CFG G = CFG::build(*D, *Entry);
  Liveness L(G);
  const auto *Rep = cast<RepeatStmt>(Entry->Body[2].get());
  const Stmt *Bump = Rep->getBody()[1].get(); // s <- s + 1
  // n is still needed (checked again next iteration).
  EXPECT_FALSE(L.deadAfter(Bump, "n"));
  // At the loop exit, only s matters.
  const auto *ExitW = cast<ExitWhenStmt>(Rep->getBody()[0].get());
  EXPECT_TRUE(L.liveOnExit(ExitW, "s"));
  EXPECT_FALSE(L.liveOnExit(ExitW, "n"));
}

TEST(LivenessTest, ExitPathLivenessDistinguishesExits) {
  // `k` is read after the loop, so it is live on every exit edge; `t` is
  // only used inside the loop.
  auto D = desc(R"(
x := begin
  ** S **
    n: integer, k: integer, t: integer,
    x.execute := begin
      input (n, k);
      repeat
        exit_when (n = 0);
        t <- n + k;
        exit_when (t = 7);
        n <- n - 1;
      end_repeat;
      output (k);
    end
end
)");
  const Routine *Entry = D->entryRoutine();
  CFG G = CFG::build(*D, *Entry);
  Liveness L(G);
  const auto *Rep = cast<RepeatStmt>(Entry->Body[1].get());
  const auto *Exit1 = cast<ExitWhenStmt>(Rep->getBody()[0].get());
  const auto *Exit2 = cast<ExitWhenStmt>(Rep->getBody()[2].get());
  EXPECT_TRUE(L.liveOnExit(Exit1, "k"));
  EXPECT_TRUE(L.liveOnExit(Exit2, "k"));
  EXPECT_FALSE(L.liveOnExit(Exit1, "t"));
  EXPECT_FALSE(L.liveOnExit(Exit2, "t"));
  EXPECT_FALSE(L.liveOnExit(Exit1, "n"));
}

TEST(ReachingDefsTest, UniqueConstantPropagates) {
  auto D = desc(R"(
x := begin
  ** S **
    rf<>, a: integer,
    x.execute := begin
      input (a);
      rf <- 1;
      if rf then a <- a + 1; end_if;
      output (a);
    end
end
)");
  const Routine *Entry = D->entryRoutine();
  CFG G = CFG::build(*D, *Entry);
  ReachingDefs RD(G);
  // The only definition of rf reaching the if is the literal `rf <- 1`.
  const Stmt *Def = Entry->Body[1].get();
  EXPECT_EQ(RD.defsReaching(G.nodeFor(Entry->Body[2].get()), "rf"),
            nodesOf(G, {Def}));
  const auto *Lit = dyn_cast<IntLit>(cast<AssignStmt>(Def)->getValue());
  ASSERT_NE(Lit, nullptr);
  EXPECT_EQ(Lit->getValue(), 1);
}

TEST(ReachingDefsTest, TwoDefsBlockConstant) {
  auto D = desc(R"(
x := begin
  ** S **
    f<>, a: integer,
    x.execute := begin
      input (a);
      if a = 0 then f <- 1; else f <- 0; end_if;
      output (f);
    end
end
)");
  const Routine *Entry = D->entryRoutine();
  CFG G = CFG::build(*D, *Entry);
  ReachingDefs RD(G);
  // Both arms' definitions reach the output.
  const auto *If = cast<IfStmt>(Entry->Body[1].get());
  EXPECT_EQ(RD.defsReaching(G.nodeFor(Entry->Body[2].get()), "f"),
            nodesOf(G, {If->getThen()[0].get(), If->getElse()[0].get()}));
}

TEST(ReachingDefsTest, InputDefBlocksConstant) {
  auto D = desc(R"(
x := begin
  ** S **
    f<>,
    x.execute := begin input (f); output (f); end
end
)");
  const Routine *Entry = D->entryRoutine();
  CFG G = CFG::build(*D, *Entry);
  ReachingDefs RD(G);
  // The unique reaching definition is the input, whose value is unknown.
  EXPECT_EQ(RD.defsReaching(G.nodeFor(Entry->Body[1].get()), "f"),
            nodesOf(G, {Entry->Body[0].get()}));
}

TEST(ReachingDefsTest, RedefinitionInLoopBlocksConstant) {
  auto D = desc(R"(
x := begin
  ** S **
    c: integer, n: integer,
    x.execute := begin
      input (n);
      c <- 0;
      repeat
        exit_when (n = 0);
        c <- c + 1;
        n <- n - 1;
      end_repeat;
      output (c);
    end
end
)");
  const Routine *Entry = D->entryRoutine();
  CFG G = CFG::build(*D, *Entry);
  ReachingDefs RD(G);
  // At the output, both `c <- 0` and the loop increment reach.
  const auto *Rep = cast<RepeatStmt>(Entry->Body[2].get());
  EXPECT_EQ(RD.defsReaching(G.nodeFor(Entry->Body[3].get()), "c"),
            nodesOf(G, {Entry->Body[1].get(), Rep->getBody()[1].get()}));
}

//===----------------------------------------------------------------------===//
// Reference: the name-set fixpoints the bit-vector analyses replaced
//===----------------------------------------------------------------------===//

/// A node's reads and writes as names, computed from its statement
/// through the name-set effect summaries, the way CFG::build did before
/// it numbered the variables.
struct RefEffects {
  std::set<std::string> Reads, Writes;
};

std::vector<RefEffects> refEffects(const Description &D, const CFG &G) {
  std::vector<RefEffects> Out(G.nodes().size());
  for (size_t I = 0; I < Out.size(); ++I) {
    const CFGNode &N = G.nodes()[I];
    RefEffects &E = Out[I];
    if (N.R == CFGNode::Role::Exit) {
      E.Reads.insert(MemoryVar);
    } else if (N.R == CFGNode::Role::IfCond) {
      collectExprEffects(D, *cast<IfStmt>(N.S)->getCond(), E.Reads, &E.Writes);
    } else if (N.R == CFGNode::Role::ExitCond) {
      collectExprEffects(D, *cast<ExitWhenStmt>(N.S)->getCond(), E.Reads,
                         &E.Writes);
    } else if (N.R == CFGNode::Role::Plain) {
      EffectSummary Sum = summarizeStmt(D, *N.S);
      E.Reads = Sum.Reads;
      E.Writes = Sum.Writes;
    }
  }
  return Out;
}

/// Backward liveness over name sets.
struct RefLiveness {
  std::vector<std::set<std::string>> In, Out;

  RefLiveness(const CFG &G, const std::vector<RefEffects> &E) {
    size_t N = G.nodes().size();
    In.resize(N);
    Out.resize(N);
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (size_t I = N; I-- > 0;) {
        std::set<std::string> NewOut;
        for (int S : G.nodes()[I].Succs)
          NewOut.insert(In[S].begin(), In[S].end());
        std::set<std::string> NewIn = NewOut;
        for (const std::string &W : E[I].Writes)
          NewIn.erase(W);
        NewIn.insert(E[I].Reads.begin(), E[I].Reads.end());
        if (NewIn != In[I] || NewOut != Out[I]) {
          In[I] = std::move(NewIn);
          Out[I] = std::move(NewOut);
          Changed = true;
        }
      }
    }
  }
};

/// Reaching definitions over per-variable sets of definition nodes, with
/// predecessors found by scanning every node's successors.
struct RefReachingDefs {
  std::vector<std::map<std::string, std::set<int>>> In;

  RefReachingDefs(const CFG &G, const std::vector<RefEffects> &E) {
    size_t N = G.nodes().size();
    In.resize(N);
    std::vector<std::map<std::string, std::set<int>>> Out(N);
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (size_t I = 0; I < N; ++I) {
        std::map<std::string, std::set<int>> NewIn;
        for (size_t P = 0; P < N; ++P)
          for (int S : G.nodes()[P].Succs)
            if (static_cast<size_t>(S) == I)
              for (const auto &[Var, Defs] : Out[P])
                NewIn[Var].insert(Defs.begin(), Defs.end());
        std::map<std::string, std::set<int>> NewOut = NewIn;
        for (const std::string &W : E[I].Writes)
          NewOut[W] = {static_cast<int>(I)};
        if (NewIn != In[I] || NewOut != Out[I]) {
          In[I] = std::move(NewIn);
          Out[I] = std::move(NewOut);
          Changed = true;
        }
      }
    }
  }

  std::vector<int> defsReaching(size_t Node, const std::string &Var) const {
    auto It = In[Node].find(Var);
    if (It == In[Node].end())
      return {};
    return std::vector<int>(It->second.begin(), It->second.end());
  }
};

/// Asks the bit-vector analyses and the reference every question a rule
/// can ask of routine \p R, for every name the routine mentions and one
/// it never does: the node's bits, dead after the node, live on each
/// exit edge, and the definitions reaching the node. Returns the number
/// of questions asked.
size_t expectAgreement(const Description &D, const Routine &R,
                       const std::string &Where) {
  CFG G = CFG::build(D, R);
  Liveness L(G);
  ReachingDefs RD(G);
  std::vector<RefEffects> E = refEffects(D, G);
  RefLiveness RL(G, E);
  RefReachingDefs RR(G, E);
  std::set<std::string> Names = {MemoryVar, IoVar, "never.mentioned"};
  for (const RefEffects &N : E) {
    Names.insert(N.Reads.begin(), N.Reads.end());
    Names.insert(N.Writes.begin(), N.Writes.end());
  }
  size_t Asked = 0;
  for (size_t I = 0; I < G.nodes().size(); ++I) {
    const CFGNode &N = G.nodes()[I];
    for (const std::string &Name : Names) {
      std::string At = Where + " node " + std::to_string(I) + " " + Name;
      int V = G.varIndex(Name);
      EXPECT_EQ(V >= 0 && testBit(N.Reads.data(), V), E[I].Reads.count(Name))
          << At;
      EXPECT_EQ(V >= 0 && testBit(N.Writes.data(), V),
                E[I].Writes.count(Name))
          << At;
      if (N.S) {
        EXPECT_EQ(L.deadAfter(N.S, Name), !RL.Out[I].count(Name)) << At;
      }
      if (N.R == CFGNode::Role::ExitCond) {
        EXPECT_EQ(L.liveOnExit(cast<ExitWhenStmt>(N.S), Name),
                  RL.In[N.TakenSucc].count(Name) != 0)
            << At;
      }
      EXPECT_EQ(RD.defsReaching(static_cast<int>(I), Name),
                RR.defsReaching(I, Name))
          << At;
      ++Asked;
    }
  }
  return Asked;
}

TEST(DataflowReferenceTest, AgreesOnEveryLibraryRoutine) {
  size_t Asked = 0;
  for (const descriptions::Entry &En : descriptions::allEntries()) {
    auto D = descriptions::load(En.Id);
    ASSERT_TRUE(D) << En.Id;
    for (const Routine *R : D->routines())
      Asked += expectAgreement(*D, *R, En.Id + " " + R->Name);
  }
  EXPECT_GT(Asked, 0u);
}

TEST(DataflowReferenceTest, AgreesAlongEveryRecordedDerivation) {
  size_t Versions = 0;
  forEachCorpusVersion([&](const analysis::AnalysisCase &C, bool Inst,
                           size_t Step, const Description &D) {
    ++Versions;
    for (const Routine *R : D.routines())
      expectAgreement(D, *R,
                      C.Id + (Inst ? " instruction" : " operator") +
                          " step " + std::to_string(Step) + " " + R->Name);
  });
  // 28 library descriptions plus one version per recorded step.
  size_t Steps = 0;
  for (const analysis::AnalysisCase &C : analysis::corpus())
    Steps += C.OperatorScript.size() + C.InstructionScript.size();
  EXPECT_EQ(Versions, 28 + Steps);
}

TEST(DataflowReferenceTest, AgreesOnRareShapes) {
  // Calls through a routine that writes a global, an unknown callee,
  // mutual recursion (the summary's recursion guard), an exit_when
  // outside any loop, and two exits from one loop.
  const char *Sources[] = {
      R"(
x := begin
  ** S **
    p: integer, c: integer, n: integer,
    next(): integer := begin next <- Mb[p]; p <- p + 1; end
    x.execute := begin
      input (p, n);
      c <- next();
      repeat exit_when (n = 0); c <- c + next(); n <- n - 1; end_repeat;
      output (c);
    end
end
)",
      R"(
x := begin
  ** S **
    a: integer, b: integer,
    x.execute := begin input (a); b <- a + mystery(); output (b); end
end
)",
      R"(
x := begin
  ** S **
    a: integer, b: integer,
    even(): integer := begin even <- odd() + a; end
    odd(): integer := begin odd <- even(); b <- b - 1; end
    x.execute := begin input (a, b); a <- even(); output (a, b); end
end
)",
      R"(
x := begin
  ** S **
    a: integer, b: integer,
    x.execute := begin
      input (a);
      b <- a;
      exit_when (a = 0);
      b <- b + 1;
      output (b);
    end
end
)",
      R"(
x := begin
  ** S **
    n: integer, k: integer, t: integer, f<>,
    x.execute := begin
      input (n, k);
      t <- 0;
      repeat
        exit_when (n = 0);
        t <- t + k;
        f <- 1;
        exit_when (t = 7);
        f <- 0;
        n <- n - 1;
      end_repeat;
      output (t, f);
    end
end
)",
  };
  for (const char *Src : Sources) {
    DiagnosticEngine Diags;
    auto D = parseDescription(Src, Diags);
    ASSERT_TRUE(D) << Diags.str();
    for (const Routine *R : D->routines())
      EXPECT_GT(expectAgreement(*D, *R, R->Name), 0u) << Src;
  }
}

//===----------------------------------------------------------------------===//
// Frozen: what the rules that read dataflow do
//===----------------------------------------------------------------------===//

TEST(DataflowRulesTest, FrozenRuleTable) {
  // Recorded with the name-set analyses, before copy-propagate and
  // dead-assign-elim gained their pre-checks: each refusal must keep its
  // place and its reason, and each application its result.
  static const std::map<std::string, std::string> Frozen = {
      {"i8086.cmpsb/pascal.sequal",
       "copy-propagate=263/0:ec8775caa1bab4b6 "
       "dead-assign-elim=263/36:2d55adbf9ffab1a5 "
       "move-up=263/60:5eb528ea15f8cf3 "
       "move-down=263/81:1d007d80ae274364 "
       "fuse-load-store=263/0:a4fec24f07aeec7b "
       "count-up-to-down=0/0:cbf29ce484222325"},
      {"i8086.movsb/pascal.smove",
       "copy-propagate=127/0:4b6a4de99dbb7126 "
       "dead-assign-elim=127/21:e681e6c8a372acc8 "
       "move-up=127/23:a933c6aa76b9157f "
       "move-down=127/32:ef6ca159193cc5e6 "
       "fuse-load-store=127/0:7dbe463398ab87ce "
       "count-up-to-down=0/0:cbf29ce484222325"},
      {"i8086.movsb/pl1.move",
       "copy-propagate=149/0:27b266a72ada6f38 "
       "dead-assign-elim=149/23:46488a0afbabf628 "
       "move-up=149/22:bec6f7c8966a4711 "
       "move-down=149/36:861b07f9755ce9c0 "
       "fuse-load-store=149/0:2913c820bb95f69e "
       "count-up-to-down=3/3:d510394f9a24987d"},
      {"i8086.scasb/clu.search",
       "copy-propagate=195/0:b36b3242286f9046 "
       "dead-assign-elim=195/29:752cd59eba290996 "
       "move-up=195/33:48e7fbfd84cffbb5 "
       "move-down=195/47:a5977b2d16a9ee54 "
       "fuse-load-store=195/0:9bdfd6e1c6a5b392 "
       "count-up-to-down=0/0:cbf29ce484222325"},
      {"i8086.scasb/rigel.index",
       "copy-propagate=190/0:ea352cd1fbd42863 "
       "dead-assign-elim=190/29:87e1cae970996765 "
       "move-up=190/39:ac42c425bf5bc478 "
       "move-down=190/51:ab25d212e9a85ae0 "
       "fuse-load-store=190/0:e63e0e55a14965f1 "
       "count-up-to-down=0/0:cbf29ce484222325"},
      {"i8086.stosb/pc2.clear",
       "copy-propagate=77/0:fb3dd9169033fdf8 "
       "dead-assign-elim=77/11:9a12818d413a984c "
       "move-up=77/17:14277143b483abbd "
       "move-down=77/24:15b3ed56175d1077 "
       "fuse-load-store=77/0:916d77e958686f26 "
       "count-up-to-down=0/0:cbf29ce484222325"},
      {"ibm370.mvc/pascal.sassign",
       "copy-propagate=186/2:7d1918f73b578587 "
       "dead-assign-elim=186/26:b52e3c5649824804 "
       "move-up=186/34:21d40d1b3cfe7dad "
       "move-down=186/54:d509c94af03be6d "
       "fuse-load-store=186/3:81952d970a8afca9 "
       "count-up-to-down=0/0:cbf29ce484222325"},
      {"vax.cmpc3/pascal.sequal",
       "copy-propagate=58/0:92be741916d3b56d "
       "dead-assign-elim=58/5:c2633f41d3dbca89 "
       "move-up=58/4:4134de3bff7cded5 "
       "move-down=58/3:27f9ca19559e5c01 "
       "fuse-load-store=58/0:250ddcd7fb698ca8 "
       "count-up-to-down=0/0:cbf29ce484222325"},
      {"vax.locc/clu.search",
       "copy-propagate=42/0:16fe717addeaa439 "
       "dead-assign-elim=42/1:3bf5c78d1f64989c "
       "move-up=42/0:11d9a48104884117 "
       "move-down=42/0:f3584dbfc6123d9 "
       "fuse-load-store=42/0:914c269efe20eefc "
       "count-up-to-down=0/0:cbf29ce484222325"},
      {"vax.locc/rigel.index",
       "copy-propagate=35/0:f1ae8a7fdb96f42a "
       "dead-assign-elim=35/1:e6fdd4d46ad18a07 "
       "move-up=35/1:83c643c3a27a013d "
       "move-down=35/0:521e19b44676a096 "
       "fuse-load-store=35/0:4c85d36a0e4e5b99 "
       "count-up-to-down=0/0:cbf29ce484222325"},
      {"vax.movc3/pascal.sassign",
       "copy-propagate=158/2:681f73d3a7976ced "
       "dead-assign-elim=158/30:486465563d81945c "
       "move-up=158/52:c944abd4e68124ea "
       "move-down=158/56:8699441726fc64cf "
       "fuse-load-store=158/3:ea4319d485e6d39f "
       "count-up-to-down=0/0:cbf29ce484222325"},
      {"vax.movc3/pc2.copy",
       "copy-propagate=15/0:51b406d29c6a68a8 "
       "dead-assign-elim=15/0:49d94b2bf684e02c "
       "move-up=15/0:e97dc67a636a4c3e "
       "move-down=15/0:927adb2a430e640d "
       "fuse-load-store=15/0:4392993542b61019 "
       "count-up-to-down=0/0:cbf29ce484222325"},
      {"vax.movc5/pc2.clear",
       "copy-propagate=55/0:9ae3aa2179b9b3ee "
       "dead-assign-elim=55/3:18854e756825bf3f "
       "move-up=55/18:8d4bc2b2c8cf7a11 "
       "move-down=55/17:1c819f32af747582 "
       "fuse-load-store=55/0:8fd222bd3c13d446 "
       "count-up-to-down=0/0:cbf29ce484222325"},
      {"vax.skpc/rigel.span",
       "copy-propagate=30/0:93d3a397afa4b7e9 "
       "dead-assign-elim=30/1:da7186dfc339c3fd "
       "move-up=30/0:7ea1d85e7a4ad0a5 "
       "move-down=30/0:6c162ee0c7283433 "
       "fuse-load-store=30/0:4931d53d943aa39 "
       "count-up-to-down=0/0:cbf29ce484222325"},
  };
  std::map<std::string, std::string> Table = ruleTable();
  EXPECT_EQ(Table.size(), analysis::corpus().size());
  for (const auto &[Case, Line] : Table) {
    auto It = Frozen.find(Case);
    ASSERT_NE(It, Frozen.end()) << Case;
    EXPECT_EQ(Line, It->second) << Case;
  }
}

} // namespace
