//===- intern_test.cpp - Description keys / COW handle tests ----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// Tests for the searcher's hot path: the canonical fingerprint and the
// identity of a description, FeatureVec distances and copy-on-write
// engine state.
//
// Two kinds of oracle. The reference implementations below are the
// straightforward map-based walks the hot path once replaced (the
// "Legacy" in the parity tests' names); they live only here, and the
// parity tests compare against them on the whole description library
// and on derived states. The frozen tables pin values that must never
// move: every library description's fingerprint and every recorded
// pairing's key (both are persistent registry keys), and the scripts and
// node traffic of two whole searches. Run under ASan/UBSan in the
// sanitizers CI job, these tests also exercise the sharing/undo aliasing
// edges.
//
//===----------------------------------------------------------------------===//

#include "CorpusSweep.h"
#include "descriptions/Descriptions.h"
#include "isdl/Intern.h"
#include "isdl/Parser.h"
#include "isdl/Printer.h"
#include "isdl/Traverse.h"
#include "search/BatchDriver.h"
#include "search/Canon.h"
#include "search/Searcher.h"
#include "transform/Transform.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <thread>
#include <vector>

using namespace extra;
using namespace extra::isdl;
using transform::Engine;
using transform::Script;
using transform::Step;

namespace {

std::vector<std::string> corpusIds() {
  std::vector<std::string> Ids;
  for (const descriptions::Entry &E : descriptions::allEntries())
    Ids.push_back(E.Id);
  return Ids;
}

//===----------------------------------------------------------------------===//
// Reference fingerprint: one map-based walk over the AST
//===----------------------------------------------------------------------===//

/// Streams canonical tokens into an FNV-1a accumulator. The token layout
/// mirrors the lockstep order of isdl::matchStmts/matchExpr so that two
/// matchable descriptions emit identical streams.
class RefCanonicalizer {
public:
  explicit RefCanonicalizer(const Description &D) : D(D) {}

  uint64_t run() {
    const Routine *Entry = D.entryRoutine();
    if (!Entry) {
      mix(Tag::NoEntry);
      return H;
    }
    nameId(Entry->Name);
    // Expand routines in first-mention order. Matching binds routines at
    // call sites; because both sides of a successful match mention bound
    // routines in the same lockstep order, first-mention expansion is
    // isomorphism-invariant (unlike alphabetical order, which depends on
    // the very names we are abstracting away).
    while (NextToExpand < Mentioned.size()) {
      const std::string Name = Mentioned[NextToExpand++];
      const Routine *R = D.findRoutine(Name);
      if (!R)
        continue;
      mix(Tag::RoutineBody);
      walk(R->Body);
      mix(Tag::End);
    }
    return H;
  }

private:
  enum class Tag : uint64_t {
    NoEntry = 1,
    RoutineBody,
    End,
    Assign,
    AssignToMem,
    If,
    Else,
    Repeat,
    ExitWhen,
    Input,
    Output,
    Constrain,
    Assert,
    IntLit,
    CharLit,
    VarRef,
    MemRef,
    Call,
    Unary,
    Binary,
    DeclaredVar,
    UndeclaredVar,
    RoutineName,
  };

  void mix(uint64_t V) {
    // FNV-1a over the value's bytes.
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (I * 8)) & 0xFF;
      H *= 1099511628211ULL;
    }
  }
  void mix(Tag T) { mix(static_cast<uint64_t>(T)); }

  /// Canonical index of a name, assigned at first mention. The first
  /// mention also records what kind of thing the name is on this side
  /// (routine / declared variable / undeclared), because the matcher
  /// insists the two sides agree on that.
  void nameId(const std::string &Name) {
    auto [It, Inserted] = Ids.emplace(Name, Ids.size());
    if (Inserted) {
      Mentioned.push_back(Name);
      if (D.findRoutine(Name))
        mix(Tag::RoutineName);
      else
        mix(D.findDecl(Name) ? Tag::DeclaredVar : Tag::UndeclaredVar);
    }
    mix(It->second);
  }

  void walk(const Expr &E) {
    switch (E.getKind()) {
    case Expr::Kind::IntLit:
      mix(Tag::IntLit);
      mix(static_cast<uint64_t>(cast<IntLit>(&E)->getValue()));
      return;
    case Expr::Kind::CharLit:
      mix(Tag::CharLit);
      mix(cast<CharLit>(&E)->getValue());
      return;
    case Expr::Kind::VarRef:
      mix(Tag::VarRef);
      nameId(cast<VarRef>(&E)->getName());
      return;
    case Expr::Kind::MemRef:
      mix(Tag::MemRef);
      walk(*cast<MemRef>(&E)->getAddress());
      return;
    case Expr::Kind::Call:
      mix(Tag::Call);
      nameId(cast<CallExpr>(&E)->getCallee());
      return;
    case Expr::Kind::Unary: {
      const auto *U = cast<UnaryExpr>(&E);
      mix(Tag::Unary);
      mix(static_cast<uint64_t>(U->getOp()));
      walk(*U->getOperand());
      return;
    }
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(&E);
      mix(Tag::Binary);
      mix(static_cast<uint64_t>(B->getOp()));
      walk(*B->getLHS());
      walk(*B->getRHS());
      return;
    }
    }
  }

  void walk(const Stmt &S) {
    switch (S.getKind()) {
    case Stmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      mix(isa<MemRef>(A->getTarget()) ? Tag::AssignToMem : Tag::Assign);
      walk(*A->getTarget());
      walk(*A->getValue());
      return;
    }
    case Stmt::Kind::If: {
      const auto *If = cast<IfStmt>(&S);
      mix(Tag::If);
      walk(*If->getCond());
      walk(If->getThen());
      mix(Tag::Else);
      walk(If->getElse());
      mix(Tag::End);
      return;
    }
    case Stmt::Kind::Repeat:
      mix(Tag::Repeat);
      walk(cast<RepeatStmt>(&S)->getBody());
      mix(Tag::End);
      return;
    case Stmt::Kind::ExitWhen:
      mix(Tag::ExitWhen);
      walk(*cast<ExitWhenStmt>(&S)->getCond());
      return;
    case Stmt::Kind::Input: {
      const auto *In = cast<InputStmt>(&S);
      mix(Tag::Input);
      mix(In->getTargets().size());
      for (const std::string &T : In->getTargets())
        nameId(T);
      return;
    }
    case Stmt::Kind::Output: {
      const auto *Out = cast<OutputStmt>(&S);
      mix(Tag::Output);
      mix(Out->getValues().size());
      for (const ExprPtr &V : Out->getValues())
        walk(*V);
      return;
    }
    case Stmt::Kind::Constrain: {
      const auto *C = cast<ConstrainStmt>(&S);
      mix(Tag::Constrain);
      for (char Ch : C->getTag())
        mix(static_cast<uint64_t>(Ch));
      walk(*C->getPred());
      return;
    }
    case Stmt::Kind::Assert:
      mix(Tag::Assert);
      walk(*cast<AssertStmt>(&S)->getPred());
      return;
    }
  }

  void walk(const StmtList &Stmts) {
    for (const StmtPtr &S : Stmts)
      walk(*S);
  }

  const Description &D;
  uint64_t H = 14695981039346656037ULL; // FNV offset basis.
  std::map<std::string, uint64_t> Ids;
  std::vector<std::string> Mentioned;
  size_t NextToExpand = 0;
};

uint64_t referenceFingerprint(const Description &D) {
  return RefCanonicalizer(D).run();
}

//===----------------------------------------------------------------------===//
// Reference structural distance: string-keyed feature counts
//===----------------------------------------------------------------------===//

/// Feature vector: counts of syntactic categories, operators keyed by
/// spelling.
std::map<std::string, int> referenceFeatures(const Description &D) {
  std::map<std::string, int> F;
  F["routines"] = static_cast<int>(D.routines().size());
  F["decls"] = static_cast<int>(D.decls().size());
  for (const Routine *R : D.routines()) {
    forEachStmt(R->Body, [&](const Stmt &S) {
      switch (S.getKind()) {
      case Stmt::Kind::Assign:
        ++F["assign"];
        break;
      case Stmt::Kind::If:
        ++F["if"];
        break;
      case Stmt::Kind::Repeat:
        ++F["repeat"];
        break;
      case Stmt::Kind::ExitWhen:
        ++F["exit"];
        break;
      case Stmt::Kind::Input:
        F["input-arity"] +=
            static_cast<int>(cast<InputStmt>(&S)->getTargets().size());
        break;
      case Stmt::Kind::Output:
        F["output-arity"] +=
            static_cast<int>(cast<OutputStmt>(&S)->getValues().size());
        break;
      case Stmt::Kind::Constrain:
        ++F["constrain"];
        break;
      case Stmt::Kind::Assert:
        ++F["assert"];
        break;
      }
      forEachExpr(S, [&](const Expr &E) {
        switch (E.getKind()) {
        case Expr::Kind::Binary:
          ++F[std::string("op:") +
              spelling(cast<BinaryExpr>(&E)->getOp())];
          break;
        case Expr::Kind::Unary:
          ++F[std::string("op:") + spelling(cast<UnaryExpr>(&E)->getOp())];
          break;
        case Expr::Kind::MemRef:
          ++F["mem"];
          break;
        case Expr::Kind::Call:
          ++F["call"];
          break;
        case Expr::Kind::IntLit:
          ++F["lit"];
          break;
        default:
          break;
        }
      });
    });
  }
  return F;
}

/// L1 distance over the string-keyed feature counts.
unsigned referenceDistance(const Description &A, const Description &B) {
  std::map<std::string, int> FA = referenceFeatures(A),
                             FB = referenceFeatures(B);
  unsigned D = 0;
  for (const auto &[K, V] : FA) {
    auto It = FB.find(K);
    D += static_cast<unsigned>(std::abs(V - (It == FB.end() ? 0 : It->second)));
  }
  for (const auto &[K, V] : FB)
    if (!FA.count(K))
      D += static_cast<unsigned>(std::abs(V));
  return D;
}

//===----------------------------------------------------------------------===//
// Fingerprints: parity with the reference walk, and frozen values
// (registry dedup keys and recorded traces depend on them).
//===----------------------------------------------------------------------===//

TEST(InternTest, FingerprintMatchesLegacyOnWholeCorpus) {
  for (const std::string &Id : corpusIds()) {
    auto D = descriptions::load(Id);
    ASSERT_TRUE(D) << Id;
    EXPECT_EQ(search::fingerprint(*D), referenceFingerprint(*D))
        << "interned fingerprint diverged from the reference on " << Id;
  }
}

TEST(InternTest, FingerprintMatchesLegacyAfterTransformations) {
  // Parity must hold on *derived* states too, not just library roots:
  // apply every applicable candidate step to every description and
  // compare on the results.
  for (const std::string &Id : corpusIds()) {
    auto D = descriptions::load(Id);
    ASSERT_TRUE(D) << Id;
    for (const Step &S : search::enumerateCandidates(*D, *D)) {
      Engine E(D->clone());
      if (!E.apply(S).Applied)
        continue;
      const Description &After = E.current();
      EXPECT_EQ(search::fingerprint(After), referenceFingerprint(After))
          << Id << " after " << S.str();
    }
  }
}

TEST(InternTest, FrozenLibraryFingerprints) {
  // Every library description's canonical fingerprint. A change here
  // re-keys every registry on disk; it must be deliberate and listed with
  // its old and new values wherever the change is recorded.
  const std::map<std::string, uint64_t> Frozen = {
      {"rigel.index", 0x2aae2c852e9e5f07ull},
      {"clu.search", 0xbf917936930c87afull},
      {"pascal.smove", 0x1c5be186f905a76aull},
      {"pl1.move", 0x8e2cc5e04d5fff7aull},
      {"pascal.sequal", 0x063317180d51a6a9ull},
      {"pc2.copy", 0xfd396cbb398ce5faull},
      {"pc2.clear", 0x7f6865e485d6ec5eull},
      {"pascal.sassign", 0x14ca28214e97f96aull},
      {"rigel.span", 0xd1b6dc1524f0adf5ull},
      {"i8086.scasb", 0x70e7080a756c8324ull},
      {"i8086.movsb", 0xa47791ef5a168590ull},
      {"i8086.cmpsb", 0x2fdb36143b679269ull},
      {"vax.locc", 0xe2d00404eee48a6cull},
      {"vax.cmpc3", 0xd657b5fe43b4033dull},
      {"vax.movc3", 0x17839f83d37f4f00ull},
      {"vax.movc5", 0x33da5731aa630370ull},
      {"ibm370.mvc", 0x93c05acda493c05aull},
      {"i8086.stosb", 0xaa7ae53c932d2692ull},
      {"vax.skpc", 0x73897c95bbfc8c4dull},
      {"ibm370.clc", 0xc098ea008d8cf0a1ull},
      {"eclipse.cmv", 0x116b043028f8a618ull},
  };
  std::vector<std::string> Ids = corpusIds();
  EXPECT_EQ(Ids.size(), Frozen.size()) << "library grew: freeze the newcomer";
  for (const std::string &Id : Ids) {
    auto It = Frozen.find(Id);
    ASSERT_NE(It, Frozen.end()) << Id << " has no frozen fingerprint";
    auto D = descriptions::load(Id);
    ASSERT_TRUE(D) << Id;
    EXPECT_EQ(search::fingerprint(*D), It->second) << Id;
  }
}

TEST(InternTest, FrozenPairingKeys) {
  // The registry key of every recorded pairing, in both modes (Extension
  // perturbs the key so the two modes are distinct entries).
  struct Frozen {
    const char *Operator, *Instruction;
    analysis::Mode M;
    const char *Key;
  };
  const analysis::Mode Base = analysis::Mode::Base;
  const analysis::Mode Ext = analysis::Mode::Extension;
  const Frozen Table[] = {
      {"pascal.smove", "i8086.movsb", Base, "0x1ed6d8d75a625b71"},
      {"pascal.smove", "i8086.movsb", Ext, "0x80e1a16e25282764"},
      {"pl1.move", "i8086.movsb", Base, "0x99c3193c93715ee6"},
      {"pl1.move", "i8086.movsb", Ext, "0x07f46085ec3b22f3"},
      {"rigel.index", "i8086.scasb", Base, "0xde3f9bf3030f0a2e"},
      {"rigel.index", "i8086.scasb", Ext, "0x4008e24a7c45763b"},
      {"clu.search", "i8086.scasb", Base, "0x8d3a7bbeb56e301c"},
      {"clu.search", "i8086.scasb", Ext, "0x130d0207ca244c09"},
      {"pascal.sequal", "i8086.cmpsb", Base, "0xf9d4750c58a01e41"},
      {"pascal.sequal", "i8086.cmpsb", Ext, "0x67e30cb527ea6254"},
      {"pc2.copy", "vax.movc3", Base, "0xa1630f1aed4edc8e"},
      {"pc2.copy", "vax.movc3", Ext, "0x3f5476a39204a09b"},
      {"pc2.clear", "vax.movc5", Base, "0x1f0efa4265062214"},
      {"pc2.clear", "vax.movc5", Ext, "0x813983fb1a4c5e01"},
      {"rigel.index", "vax.locc", Base, "0x4cd49ff589970376"},
      {"rigel.index", "vax.locc", Ext, "0xd2e3e64cf6dd7f63"},
      {"clu.search", "vax.locc", Base, "0x1b0287b40cd63954"},
      {"clu.search", "vax.locc", Ext, "0x8535fe0d739c4541"},
      {"pascal.sequal", "vax.cmpc3", Base, "0xa050f6e6536f8f15"},
      {"pascal.sequal", "vax.cmpc3", Ext, "0x3e678f5f2c25f300"},
      {"pascal.sassign", "ibm370.mvc", Base, "0xc10ca3d3f6c9a56f"},
      {"pascal.sassign", "ibm370.mvc", Ext, "0x5f3bda6a8983d97a"},
      {"pc2.clear", "i8086.stosb", Base, "0xa86f48554c4c1d32"},
      {"pc2.clear", "i8086.stosb", Ext, "0x365831ec33066127"},
      {"rigel.span", "vax.skpc", Base, "0x5d2b6a4abc85ceb4"},
      {"rigel.span", "vax.skpc", Ext, "0xc31c13f3c3cfb2a1"},
      {"pascal.sassign", "vax.movc3", Base, "0x4d43f889a9de13c1"},
      {"pascal.sassign", "vax.movc3", Ext, "0xd3748130d6946fd4"},
  };
  // The table covers every pairing the batch driver runs, in its own mode.
  for (const search::BatchCase &C : search::libraryCases()) {
    bool Covered = false;
    for (const Frozen &F : Table)
      Covered = Covered || (C.OperatorId == F.Operator &&
                            C.InstructionId == F.Instruction && C.M == F.M);
    EXPECT_TRUE(Covered) << C.Id << " has no frozen pairing key";
  }
  for (const Frozen &F : Table) {
    auto Key = search::pairingKeyHex(F.Operator, F.Instruction, F.M);
    ASSERT_TRUE(bool(Key)) << F.Instruction << "/" << F.Operator;
    EXPECT_EQ(*Key, F.Key) << F.Instruction << "/" << F.Operator << " in "
                           << analysis::modeName(F.M) << " mode";
  }
}

TEST(InternTest, IdentityIsAPureFunctionOfTheDescription) {
  // Both keys are one walk over the description and nothing else: a
  // clone keys as its original does, and a handle's identity is the same
  // value on whichever thread computes or reads it.
  std::vector<std::string> Where;
  std::vector<Description> Versions;
  extra::testing::forEachCorpusVersion(
      [&](const analysis::AnalysisCase &C, bool Inst, size_t Step,
          const Description &D) {
        Where.push_back(C.Id + (Inst ? " instruction" : " operator") +
                        " step " + std::to_string(Step));
        Description Clone = D.clone();
        EXPECT_EQ(isdl::identity(Clone), isdl::identity(D)) << Where.back();
        EXPECT_EQ(canonicalFingerprint(Clone), canonicalFingerprint(D))
            << Where.back();
        Versions.push_back(std::move(Clone));
      });
  ASSERT_GT(Versions.size(), 28u);

  // One thread builds every handle and reads half of them; another reads
  // them all, half from the first thread's cache and half afresh.
  std::vector<DescHandle> Handles;
  std::thread([&] {
    for (size_t I = 0; I < Versions.size(); ++I) {
      Handles.emplace_back(Versions[I].clone());
      if (I % 2 == 0)
        Handles.back().identity();
    }
  }).join();
  std::vector<uint64_t> Read;
  std::thread([&] {
    for (const DescHandle &H : Handles)
      Read.push_back(H.identity());
  }).join();
  for (size_t I = 0; I < Versions.size(); ++I)
    EXPECT_EQ(Read[I], isdl::identity(Versions[I])) << Where[I];

  // Different bodies key differently; a renamed variable changes the
  // identity but not the rename-invariant fingerprint.
  DiagnosticEngine Diags;
  auto Parse = [&Diags](const std::string &Var, const std::string &Stmt) {
    return parseDescription("t.op := begin\n"
                            "  ** S **\n"
                            "    " + Var + ": integer,\n"
                            "    t.execute := begin\n"
                            "      " + Stmt + "\n"
                            "    end\n"
                            "end\n",
                            Diags);
  };
  auto Plus = Parse("a", "a <- a + 1;"), Minus = Parse("a", "a <- a - 7;"),
       Renamed = Parse("b", "b <- b + 1;");
  ASSERT_TRUE(Plus && Minus && Renamed && !Diags.hasErrors()) << Diags.str();
  EXPECT_NE(isdl::identity(*Plus), isdl::identity(*Minus));
  EXPECT_NE(canonicalFingerprint(*Plus), canonicalFingerprint(*Minus));
  EXPECT_NE(isdl::identity(*Plus), isdl::identity(*Renamed));
  EXPECT_EQ(canonicalFingerprint(*Plus), canonicalFingerprint(*Renamed));
}

TEST(InternTest, HandleIdentityIsTheInternersOnEveryCorpusVersion) {
  // The searcher keys its expansion records, verify memo and proposal
  // cache by the identity cached on each version's handle.
  size_t Versions = 0;
  extra::testing::forEachCorpusVersion(
      [&](const analysis::AnalysisCase &C, bool Inst, size_t Step,
          const Description &D) {
        ++Versions;
        DescHandle H(D.clone());
        uint64_t Id = H.identity();
        EXPECT_EQ(Id, isdl::identity(D))
            << C.Id << (Inst ? " instruction" : " operator") << " step "
            << Step;
        EXPECT_EQ(H.identity(), Id); // Now from the cache.
      });
  EXPECT_GT(Versions, 28u);
}

TEST(InternTest, IdentityIncludesDeclarationTypes) {
  // The expansion records and the verify memo are keyed by identity, and
  // both depend on declared types: on scasb, `record-exit-cause flag=rf`
  // and `invert-flag var=rf` are proposed only while rf is a one-bit
  // flag. Widening rf must therefore change the identity, although the
  // rename-invariant fingerprint (which ignores types) stays put.
  auto Flag = descriptions::load("i8086.scasb");
  ASSERT_TRUE(Flag);
  std::string Text = printDescription(*Flag);
  size_t At = Text.find("rf<>,");
  ASSERT_NE(At, std::string::npos);
  Text.replace(At, 5, "rf<7:0>,");
  DiagnosticEngine Diags;
  auto Byte = parseDescription(Text, Diags);
  ASSERT_TRUE(Byte && !Diags.hasErrors()) << Diags.str();

  EXPECT_NE(isdl::identity(*Flag), isdl::identity(*Byte));
  EXPECT_EQ(search::fingerprint(*Flag), search::fingerprint(*Byte));

  auto Pool = [](const Description &D) {
    std::vector<std::string> Out;
    for (const Step &S : search::enumerateCandidates(D, D))
      Out.push_back(S.str());
    return Out;
  };
  std::vector<std::string> FlagPool = Pool(*Flag), BytePool = Pool(*Byte);
  EXPECT_NE(FlagPool, BytePool);
  for (const char *Needs : {"record-exit-cause flag=rf", "invert-flag var=rf"}) {
    EXPECT_NE(std::find(FlagPool.begin(), FlagPool.end(), Needs),
              FlagPool.end())
        << Needs;
    EXPECT_EQ(std::find(BytePool.begin(), BytePool.end(), Needs),
              BytePool.end())
        << Needs;
  }
}

//===----------------------------------------------------------------------===//
// Structural distance: FeatureVec parity with the reference, and the
// properties the beam relies on
//===----------------------------------------------------------------------===//

TEST(InternTest, FeatureDistanceMatchesLegacyOnAllPairs) {
  std::vector<std::unique_ptr<Description>> Descs;
  for (const std::string &Id : corpusIds())
    Descs.push_back(descriptions::load(Id));
  for (size_t A = 0; A < Descs.size(); ++A) {
    FeatureVec FA = FeatureVec::of(*Descs[A]);
    for (size_t B = 0; B < Descs.size(); ++B) {
      FeatureVec FB = FeatureVec::of(*Descs[B]);
      EXPECT_EQ(FA.distance(FB), referenceDistance(*Descs[A], *Descs[B]))
          << corpusIds()[A] << " vs " << corpusIds()[B];
    }
  }
}

TEST(InternTest, HandleDistanceShortCircuitsOnSharedVersion) {
  DescHandle A(descriptions::load("i8086.scasb")->clone());
  DescHandle B = A; // shared version
  EXPECT_TRUE(A.same(B));
  EXPECT_EQ(DescHandle::distance(A, B), 0u);
  // A distinct but structurally equal version measures 0 the long way.
  DescHandle C(A.clone());
  EXPECT_FALSE(A.same(C));
  EXPECT_EQ(DescHandle::distance(A, C), 0u);
}

TEST(StructuralDistanceTest, ZeroOnIdenticalAndRenamed) {
  DescHandle A(descriptions::load("rigel.index")->clone());
  EXPECT_EQ(A.features().distance(FeatureVec::of(*A)), 0u);
  // Renaming does not change the structure.
  Engine E(A);
  ASSERT_TRUE(E.apply({"rename-variable", "",
                       {{"from", "Src.Length"}, {"to", "n"}}})
                  .Applied);
  EXPECT_FALSE(E.currentHandle().same(A));
  EXPECT_EQ(DescHandle::distance(A, E.currentHandle()), 0u);
}

TEST(StructuralDistanceTest, EmptyRoutineDescriptions) {
  // Degenerate descriptions with an empty entry routine: the distance
  // must be well-defined (no crash), zero against itself, and positive
  // against any real description.
  DiagnosticEngine Diags;
  auto Empty = parseDescription(R"(
e.op := begin
  ** S **
    e.execute := begin
    end
end
)",
                                Diags);
  ASSERT_TRUE(Empty && !Diags.hasErrors()) << Diags.str();
  DescHandle E(std::move(*Empty));
  DescHandle EmptyAgain(E.clone());
  EXPECT_EQ(DescHandle::distance(E, EmptyAgain), 0u);

  DescHandle Real(descriptions::load("pc2.clear")->clone());
  EXPECT_GT(DescHandle::distance(E, Real), 0u);
  EXPECT_EQ(DescHandle::distance(E, Real), DescHandle::distance(Real, E));
}

TEST(StructuralDistanceTest, SensitiveToStructure) {
  FeatureVec A = FeatureVec::of(*descriptions::load("rigel.index"));
  FeatureVec B = FeatureVec::of(*descriptions::load("i8086.scasb"));
  EXPECT_GT(A.distance(B), 0u);
}

//===----------------------------------------------------------------------===//
// Copy-on-write engine: sharing, apply, undo-after-share
//===----------------------------------------------------------------------===//

/// A step that applies on every library description.
Step anyApplicableStep(const Description &D, bool &Found) {
  for (const Step &S : search::enumerateCandidates(D, D)) {
    Engine Probe(D.clone());
    if (Probe.apply(S).Applied) {
      Found = true;
      return S;
    }
  }
  Found = false;
  return Step{};
}

TEST(InternTest, CowApplyMatchesOwnedApplyOnWholeCorpus) {
  for (const std::string &Id : corpusIds()) {
    auto D = descriptions::load(Id);
    ASSERT_TRUE(D) << Id;
    DescHandle Shared(D->clone());
    for (const Step &S : search::enumerateCandidates(*D, *D)) {
      // Owned path: engine owns a private description from the start.
      Engine Owned(D->clone());
      // COW path: engine shares `Shared` until the step applies.
      Engine Cow(Shared);
      transform::ApplyResult ROwned = Owned.apply(S);
      transform::ApplyResult RCow = Cow.apply(S);
      ASSERT_EQ(ROwned.Applied, RCow.Applied) << Id << " step " << S.str();
      if (!ROwned.Applied)
        continue;
      // Byte-identical text, equal fingerprints (by the fingerprint walk
      // and by the reference), and equal structural distance against the
      // untouched original.
      EXPECT_EQ(printDescription(Owned.current()),
                printDescription(Cow.current()))
          << Id << " step " << S.str();
      EXPECT_EQ(search::fingerprint(Owned.current()),
                search::fingerprint(Cow.current()));
      EXPECT_EQ(referenceFingerprint(Owned.current()),
                referenceFingerprint(Cow.current()));
      EXPECT_EQ(DescHandle::distance(Owned.currentHandle(), Shared),
                DescHandle::distance(Cow.currentHandle(), Shared));
      // The shared original must be untouched by the COW apply.
      EXPECT_EQ(printDescription(*Shared), printDescription(*D))
          << Id << " step " << S.str() << " mutated a shared version";
    }
  }
}

TEST(InternTest, RefusalsLeaveScratchBufferPure) {
  // The scratch-reuse contract (Transformation::apply): a refused rule
  // must leave the working copy untouched, because the next attempt on
  // the same version reuses the buffer instead of re-cloning. Sweep
  // every candidate through ONE engine per description — refusals and
  // successes interleaved on the same thread-local scratch slot — and
  // check each applied result against a fresh single-use engine. A rule
  // that mutated before refusing would corrupt the shared buffer and
  // diverge the next applied candidate. The sweep covers the library and
  // every version along the recorded derivations.
  auto Sweep = [](const std::string &Where, const Description &D,
                  bool Instruction) {
    DescHandle Shared(D.clone());
    std::string Before = printDescription(D);
    Engine Reused(Shared);
    for (const Step &S : search::enumerateCandidates(D, D, Instruction)) {
      bool Applied = Reused.apply(S).Applied;
      if (!Applied) {
        EXPECT_EQ(printDescription(Reused.current()), Before)
            << Where << ": refusal of " << S.str() << " mutated engine state";
        continue;
      }
      Engine Fresh(D.clone());
      ASSERT_TRUE(Fresh.apply(S).Applied) << Where << " step " << S.str();
      EXPECT_EQ(printDescription(Reused.current()),
                printDescription(Fresh.current()))
          << Where << ": scratch buffer was dirty before " << S.str();
      // Back to the shared version so every candidate starts equal.
      ASSERT_TRUE(Reused.undo());
      ASSERT_TRUE(Reused.currentHandle().same(Shared));
    }
  };
  for (const std::string &Id : corpusIds()) {
    auto D = descriptions::load(Id);
    ASSERT_TRUE(D) << Id;
    Sweep(Id, *D, true);
  }
  size_t Versions = 0;
  extra::testing::forEachCorpusVersion(
      [&](const analysis::AnalysisCase &C, bool Inst, size_t Step,
          const Description &D) {
        ++Versions;
        Sweep(C.Id + (Inst ? " instruction" : " operator") + " step " +
                  std::to_string(Step),
              D, Inst);
      });
  size_t Steps = 0;
  for (const analysis::AnalysisCase &C : analysis::corpus())
    Steps += C.OperatorScript.size() + C.InstructionScript.size();
  EXPECT_EQ(Versions, 28 + Steps);
}

TEST(InternTest, UndoAfterShareRestoresExactText) {
  for (const std::string &Id : corpusIds()) {
    auto D = descriptions::load(Id);
    ASSERT_TRUE(D) << Id;
    bool Found = false;
    Step S = anyApplicableStep(*D, Found);
    if (!Found)
      continue;
    std::string Original = printDescription(*D);
    DescHandle Shared(D->clone());
    Engine E(Shared);
    ASSERT_TRUE(E.apply(S).Applied) << Id;
    // Keep a handle to the post-step version, then undo: the kept handle
    // must still read the post-step text (versions are immutable), and
    // the engine must be back on the pre-step version byte for byte.
    DescHandle After = E.currentHandle();
    std::string AfterText = printDescription(*After);
    ASSERT_TRUE(E.undo());
    EXPECT_EQ(printDescription(E.current()), Original) << Id;
    EXPECT_TRUE(E.currentHandle().same(Shared)) << Id;
    EXPECT_EQ(printDescription(*After), AfterText)
        << Id << ": undo mutated a shared post-step version";
  }
}

TEST(InternTest, TakeOnSharedHandleLeavesSiblingIntact) {
  auto D = descriptions::load("pc2.clear");
  ASSERT_TRUE(D);
  DescHandle A(D->clone());
  DescHandle B = A;
  std::string Text = printDescription(*A);
  Description Taken = std::move(A).take(); // shared: must deep-copy
  EXPECT_FALSE(A.valid());
  ASSERT_TRUE(B.valid());
  EXPECT_EQ(printDescription(*B), Text);
  EXPECT_EQ(printDescription(Taken), Text);
  // Sole owner: take() may move, and the handle dies.
  Description Taken2 = std::move(B).take();
  EXPECT_FALSE(B.valid());
  EXPECT_EQ(printDescription(Taken2), Text);
}

//===----------------------------------------------------------------------===//
// Frozen whole searches: the representation may not change what the
// search explores (same scripts, same node traffic, and the same share of
// candidate attempts answered by expansion records). Recorded at
// VerifyTrials = 0, which keeps the tests fast; replay is not under test.
//===----------------------------------------------------------------------===//

struct FrozenSearch {
  const char *Operator, *Instruction;
  std::vector<std::string> OperatorScript, InstructionScript;
  uint64_t Expanded, Generated, HashHits, Reopened, Tried, DeadEnds,
      OutcomeHits;
};

void expectFrozenSearch(const FrozenSearch &F) {
  auto Op = descriptions::load(F.Operator);
  auto Inst = descriptions::load(F.Instruction);
  ASSERT_TRUE(Op && Inst);

  search::SearchLimits Limits;
  Limits.VerifyTrials = 0;
  search::SearchOutcome O = search::searchDerivation(*Op, *Inst, Limits);

  ASSERT_TRUE(O.Found) << O.FailureReason;
  auto Texts = [](const Script &S) {
    std::vector<std::string> Out;
    for (const Step &St : S)
      Out.push_back(St.str());
    return Out;
  };
  EXPECT_EQ(Texts(O.OperatorScript), F.OperatorScript);
  EXPECT_EQ(Texts(O.InstructionScript), F.InstructionScript);
  EXPECT_EQ(O.Stats.NodesExpanded, F.Expanded);
  EXPECT_EQ(O.Stats.NodesGenerated, F.Generated);
  EXPECT_EQ(O.Stats.HashHits, F.HashHits);
  EXPECT_EQ(O.Stats.Reopened, F.Reopened);
  EXPECT_EQ(O.Stats.CandidatesTried, F.Tried);
  EXPECT_EQ(O.Stats.DeadEnds, F.DeadEnds);
  EXPECT_EQ(O.Stats.OutcomeHits, F.OutcomeHits);
}

TEST(InternTest, FrozenSearchTrafficMovc3) {
  expectFrozenSearch({"pc2.copy",
                      "vax.movc3",
                      {"swap-relational-operands occurrence=0",
                       "swap-commutative occurrence=1 op=+"},
                      {"replace-output code=none"},
                      /*Expanded=*/10,
                      /*Generated=*/235,
                      /*HashHits=*/99,
                      /*Reopened=*/0,
                      /*Tried=*/1595,
                      /*DeadEnds=*/1315,
                      /*OutcomeHits=*/660});
}

TEST(InternTest, FrozenSearchTrafficSkpc) {
  expectFrozenSearch({"rigel.span",
                      "vax.skpc",
                      {"permute-inputs order=2,1,0",
                       "swap-relational-operands occurrence=1"},
                      {"allocate-temp name=t0 section=OPERANDS type=bits:15:0",
                       "add-prologue code=t0 <- r0;",
                       "replace-output code=output (t0 - r0);",
                       "empty-if-elim"},
                      /*Expanded=*/14,
                      /*Generated=*/353,
                      /*HashHits=*/114,
                      /*Reopened=*/0,
                      /*Tried=*/2977,
                      /*DeadEnds=*/2588,
                      /*OutcomeHits=*/1780});
}

} // namespace
