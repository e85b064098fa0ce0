//===- codegen_test.cpp - Retargetable code generator tests -----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "codegen/Frontend.h"
#include "registry/Harness.h"
#include "sim/Sim370.h"
#include "sim/Sim8086.h"
#include "sim/SimVax.h"

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

using namespace extra;
using namespace extra::codegen;
using interp::Memory;
using interp::loadBytes;
using interp::storeBytes;
using registry::MachineKind;
using registry::corpusTarget;

namespace {

std::string joined(const std::vector<std::string> &Lines) {
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Intel 8086
//===----------------------------------------------------------------------===//

TEST(I8086CodegenTest, IndexEmitsThePaperListing) {
  auto T = corpusTarget(MachineKind::I8086);
  Program P;
  P.Ops.push_back(strIndex("result", Value::symbol("str"),
                           Value::symbol("len"), Value::symbol("ch")));
  CodeGenResult R = T->generate(P);
  EXPECT_EQ(R.ExoticCount, 1u);
  std::string Asm = joined(R.Asm);
  // The §4.1 hand translation: save initial address, zero zf, cld, the
  // repeat-prefixed scasb, and the index computation.
  EXPECT_NE(Asm.find("mov bx, di"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("cmp si, 1"), std::string::npos);
  EXPECT_NE(Asm.find("cld"), std::string::npos);
  EXPECT_NE(Asm.find("repne scasb"), std::string::npos);
  EXPECT_NE(Asm.find("sub di, bx"), std::string::npos);
}

TEST(I8086CodegenTest, GeneratedIndexRunsCorrectly) {
  auto T = corpusTarget(MachineKind::I8086);
  Program P;
  P.Ops.push_back(strIndex("result", Value::symbol("str"),
                           Value::symbol("len"), Value::symbol("ch")));
  CodeGenResult R = T->generate(P);
  Memory M;
  storeBytes(M, 100, "hello");
  for (auto [Ch, Want] : std::vector<std::pair<int, int>>{
           {'l', 3}, {'h', 1}, {'o', 5}, {'z', 0}}) {
    sim::SimResult S = sim::run8086(
        R.Asm, M, {{"str", 100}, {"len", 5}, {"ch", Ch}});
    ASSERT_TRUE(S.Ok) << S.Error;
    EXPECT_EQ(S.reg("result"), Want) << "ch=" << static_cast<char>(Ch);
  }
  // Empty string: not found.
  sim::SimResult S =
      sim::run8086(R.Asm, M, {{"str", 100}, {"len", 0}, {"ch", 'h'}});
  ASSERT_TRUE(S.Ok);
  EXPECT_EQ(S.reg("result"), 0);
}

TEST(I8086CodegenTest, MoveAndEqualRunCorrectly) {
  auto T = corpusTarget(MachineKind::I8086);
  Program P;
  P.Ops.push_back(strMove(Value::literal(200), Value::literal(100),
                          Value::literal(5)));
  P.Ops.push_back(strEqual("eq", Value::literal(100), Value::literal(200),
                           Value::literal(5)));
  CodeGenResult R = T->generate(P);
  EXPECT_EQ(R.ExoticCount, 2u);
  Memory M;
  storeBytes(M, 100, "amove");
  sim::SimResult S = sim::run8086(R.Asm, M);
  ASSERT_TRUE(S.Ok) << S.Error << "\n" << joined(R.Asm);
  EXPECT_EQ(loadBytes(S.Mem, 200, 5), "amove");
  EXPECT_EQ(S.reg("eq"), 1);
}

TEST(I8086CodegenTest, BlockCopyDecomposesAndHandlesOverlap) {
  auto T = corpusTarget(MachineKind::I8086);
  Program P;
  // Overlapping copy: only the decomposed, direction-checked loop is
  // correct, and 8086 has no analyzed overlap-safe exotic binding.
  P.Ops.push_back(blockCopy(Value::literal(102), Value::literal(100),
                            Value::literal(4)));
  CodeGenResult R = T->generate(P);
  EXPECT_EQ(R.DecomposedCount, 1u);
  Memory M;
  storeBytes(M, 100, "abcd");
  sim::SimResult S = sim::run8086(R.Asm, M);
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_EQ(loadBytes(S.Mem, 102, 4), "abcd");
}

TEST(I8086CodegenTest, BlockClearUsesStosb) {
  // The extended stosb/pc2.clear analysis gives the 8086 an exotic
  // BlockClear implementation.
  auto T = corpusTarget(MachineKind::I8086);
  Program P;
  P.Ops.push_back(blockClear(Value::literal(400), Value::literal(6)));
  CodeGenResult R = T->generate(P);
  EXPECT_EQ(R.ExoticCount, 1u);
  EXPECT_NE(joined(R.Asm).find("rep stosb"), std::string::npos);
  Memory M;
  storeBytes(M, 400, "dirty!");
  sim::SimResult S = sim::run8086(R.Asm, M);
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_EQ(loadBytes(S.Mem, 400, 6), std::string(6, '\0'));
}

TEST(I8086CodegenTest, DecomposedIndexMatchesExotic) {
  auto T = corpusTarget(MachineKind::I8086);
  Program P;
  P.Ops.push_back(strIndex("r1", Value::symbol("s"), Value::symbol("n"),
                           Value::symbol("c")));
  CodeGenResult Exotic = T->generate(P);

  CodeGenContext Ctx;
  T->decompose(P.Ops[0], Ctx);
  std::vector<std::string> Decomposed = Ctx.takeLines();

  Memory M;
  storeBytes(M, 64, "abacus");
  for (int Ch : {'a', 'b', 'c', 'u', 's', 'z'}) {
    std::map<std::string, int64_t> Regs = {{"s", 64}, {"n", 6}, {"c", Ch}};
    sim::SimResult A = sim::run8086(Exotic.Asm, M, Regs);
    sim::SimResult B = sim::run8086(Decomposed, M, Regs);
    ASSERT_TRUE(A.Ok && B.Ok) << A.Error << B.Error;
    EXPECT_EQ(A.reg("r1"), B.reg("r1")) << "ch=" << static_cast<char>(Ch);
  }
}

TEST(I8086CodegenTest, DecomposedEqualMatchesExotic) {
  auto T = corpusTarget(MachineKind::I8086);
  Memory M;
  storeBytes(M, 100, "equalize");
  storeBytes(M, 200, "equalize");
  storeBytes(M, 300, "equalizr");
  for (auto [B, Want] : std::vector<std::pair<int64_t, int64_t>>{
           {200, 1}, {300, 0}}) {
    Program P;
    P.Ops.push_back(strEqual("r", Value::literal(100), Value::literal(B),
                             Value::literal(8)));
    CodeGenResult Exotic = T->generate(P);
    CodeGenContext Ctx;
    T->decompose(P.Ops[0], Ctx);
    sim::SimResult A = sim::run8086(Exotic.Asm, M);
    sim::SimResult D = sim::run8086(Ctx.takeLines(), M);
    ASSERT_TRUE(A.Ok && D.Ok) << A.Error << D.Error;
    EXPECT_EQ(A.reg("r"), Want);
    EXPECT_EQ(D.reg("r"), Want);
  }
}

TEST(I8086CodegenTest, CascadedSearchesReuseAl) {
  // §6: "if exotic instructions are cascaded or put in loops, additional
  // loads of the registers are not necessary." Searching two strings for
  // the same character must load al only once.
  auto T = corpusTarget(MachineKind::I8086);
  Program P;
  P.Ops.push_back(strIndex("i1", Value::symbol("s1"), Value::symbol("n1"),
                           Value::symbol("c")));
  P.Ops.push_back(strIndex("i2", Value::symbol("s2"), Value::symbol("n2"),
                           Value::symbol("c")));
  CodeGenResult R = T->generate(P);
  unsigned AlLoads = 0;
  for (const std::string &L : R.Asm)
    if (L.find("mov al, c") != std::string::npos)
      ++AlLoads;
  EXPECT_EQ(AlLoads, 1u) << joined(R.Asm);
}

//===----------------------------------------------------------------------===//
// VAX-11
//===----------------------------------------------------------------------===//

TEST(VaxCodegenTest, IndexViaLoccRunsCorrectly) {
  auto T = corpusTarget(MachineKind::Vax);
  Program P;
  P.Ops.push_back(strIndex("result", Value::symbol("str"),
                           Value::symbol("len"), Value::symbol("ch")));
  // VAX string lengths are 16 bits — a non-trivial constraint on a
  // 32-bit machine (§4.1). The front end vouches that a declared Pascal
  // string is at most 255 characters.
  P.Facts.KnownRanges["len"] = {0, 255};
  CodeGenResult R = T->generate(P);
  EXPECT_EQ(R.ExoticCount, 1u);
  Memory M;
  storeBytes(M, 100, "hello");
  for (auto [Ch, Want] : std::vector<std::pair<int, int>>{
           {'l', 3}, {'h', 1}, {'o', 5}, {'z', 0}}) {
    sim::SimResult S =
        sim::runVax(R.Asm, M, {{"str", 100}, {"len", 5}, {"ch", Ch}});
    ASSERT_TRUE(S.Ok) << S.Error << "\n" << joined(R.Asm);
    EXPECT_EQ(S.reg("result"), Want) << "ch=" << static_cast<char>(Ch);
  }
}

TEST(VaxCodegenTest, StrMoveNeedsNoOverlapAxiom) {
  auto T = corpusTarget(MachineKind::Vax);
  Program P;
  P.Ops.push_back(strMove(Value::symbol("dst"), Value::symbol("src"),
                          Value::symbol("len")));
  P.Facts.KnownRanges["len"] = {0, 255};
  // Without the Pascal no-overlap guarantee, the relational constraint
  // cannot be discharged: decomposition (§4.3's failure, compiler-side).
  CodeGenResult NoAxiom = T->generate(P);
  EXPECT_EQ(NoAxiom.DecomposedCount, 1u);

  P.Facts.Axioms.insert("pascal.no-overlap");
  CodeGenResult WithAxiom = T->generate(P);
  EXPECT_EQ(WithAxiom.ExoticCount, 1u);
  EXPECT_NE(joined(WithAxiom.Asm).find("movc3"), std::string::npos);
}

TEST(VaxCodegenTest, BlockCopyUsesMovc3Unconditionally) {
  auto T = corpusTarget(MachineKind::Vax);
  Program P;
  P.Ops.push_back(blockCopy(Value::literal(102), Value::literal(100),
                            Value::literal(4)));
  CodeGenResult R = T->generate(P);
  EXPECT_EQ(R.ExoticCount, 1u);
  Memory M;
  storeBytes(M, 100, "abcd");
  sim::SimResult S = sim::runVax(R.Asm, M);
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_EQ(loadBytes(S.Mem, 102, 4), "abcd"); // overlap-safe
}

TEST(VaxCodegenTest, SixtyFiveKMoveChunksLikeSection6) {
  // §6's rewriting-rule example: a 100000-byte literal move becomes
  // consecutive movc3 substrings of at most 65535 bytes.
  auto T = corpusTarget(MachineKind::Vax);
  Program P;
  P.Ops.push_back(blockCopy(Value::literal(200000), Value::literal(0),
                            Value::literal(100000)));
  CodeGenResult R = T->generate(P);
  ASSERT_EQ(R.Notes.size(), 1u);
  EXPECT_NE(R.Notes[0].Chosen.find("rewritten"), std::string::npos)
      << R.Notes[0].Chosen;
  unsigned Movc3Count = 0;
  for (const std::string &L : R.Asm)
    if (L.find("movc3 r0") != std::string::npos)
      ++Movc3Count;
  EXPECT_EQ(Movc3Count, 2u); // 65535 + 34465
  interp::Memory M;
  for (int64_t I = 0; I < 100000; I += 997)
    M[I] = static_cast<uint8_t>(I & 0xFF);
  sim::SimResult S = sim::runVax(R.Asm, M, {}, 10000000);
  ASSERT_TRUE(S.Ok) << S.Error;
  for (int64_t I = 0; I < 100000; I += 997) {
    ASSERT_TRUE(S.Mem.contains(200000 + I)) << I;
    ASSERT_EQ(S.Mem.get(200000 + I), static_cast<uint8_t>(I & 0xFF)) << I;
  }
}

TEST(VaxCodegenTest, OverlappingLongCopyDecomposes) {
  // Chunking is forward-only; a potentially overlapping long copy must
  // not be chunked.
  auto T = corpusTarget(MachineKind::Vax);
  Program P;
  P.Ops.push_back(blockCopy(Value::literal(50000), Value::literal(0),
                            Value::literal(100000)));
  CodeGenResult R = T->generate(P);
  EXPECT_EQ(R.DecomposedCount, 1u);
}

TEST(VaxCodegenTest, ClearAndEqualRunCorrectly) {
  auto T = corpusTarget(MachineKind::Vax);
  Program P;
  P.Ops.push_back(blockClear(Value::literal(100), Value::literal(4)));
  P.Ops.push_back(strEqual("eq", Value::literal(100), Value::literal(200),
                           Value::literal(4)));
  CodeGenResult R = T->generate(P);
  EXPECT_EQ(R.ExoticCount, 2u);
  Memory M;
  storeBytes(M, 100, "junk");
  // 200.. is already zero.
  sim::SimResult S = sim::runVax(R.Asm, M);
  ASSERT_TRUE(S.Ok) << S.Error << "\n" << joined(R.Asm);
  EXPECT_EQ(loadBytes(S.Mem, 100, 4), std::string(4, '\0'));
  EXPECT_EQ(S.reg("eq"), 1);
}

TEST(VaxCodegenTest, Movc3ForgetsTheCharacterLoccLoaded) {
  // movc3 zeroes r2, r4 and r5 besides r0, r1 and r3, so a second locc
  // of the same character must reload r2. A short move takes the binding
  // row; a 70000-byte one takes the chunked rewrite. Both copy rows too.
  Memory M;
  storeBytes(M, 100, "reproduction!!");
  for (const char *Move :
       {"move(400, 100, 14);", "move(100000, 100, 70000);",
        "copy(400, 100, 14);", "copy(100000, 100, 70000);"}) {
    DiagnosticEngine Diags;
    auto P = parseProgram(std::string("assume pascal.no-overlap;\n"
                                      "found := index(100, 14, 'e');\n") +
                              Move + "\nsame := index(100, 14, 'e');\n",
                          Diags);
    ASSERT_TRUE(P) << Diags.str();
    auto Check = [&](const Target &T, const char *Side) {
      CodeGenResult R = T.generate(*P);
      sim::SimResult S = sim::runVax(R.Asm, M);
      ASSERT_TRUE(S.Ok) << Side << ", " << Move << ": " << S.Error;
      EXPECT_EQ(S.reg("found"), 2) << Side << ", " << Move;
      EXPECT_EQ(S.reg("same"), 2) << Side << ", " << Move << "\n"
                                  << joined(R.Asm);
    };
    Check(*corpusTarget(MachineKind::Vax), "registry");
    Check(*makeVaxTarget(), "decomposition");
  }
}

//===----------------------------------------------------------------------===//
// IBM 370
//===----------------------------------------------------------------------===//

TEST(Ibm370CodegenTest, MvcEmitsLengthMinusOne) {
  auto T = corpusTarget(MachineKind::Ibm370);
  Program P;
  P.Ops.push_back(strMove(Value::literal(300), Value::literal(100),
                          Value::literal(10)));
  CodeGenResult R = T->generate(P);
  EXPECT_EQ(R.ExoticCount, 1u);
  // 10 bytes => length field 9 (the §4.2 coding constraint).
  EXPECT_NE(joined(R.Asm).find("mvc (r1), (r2), 9"), std::string::npos)
      << joined(R.Asm);
  Memory M;
  storeBytes(M, 100, "0123456789");
  sim::SimResult S = sim::run370(R.Asm, M);
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_EQ(loadBytes(S.Mem, 300, 10), "0123456789");
}

TEST(Ibm370CodegenTest, LongMoveChunksInto256ByteMvcs) {
  auto T = corpusTarget(MachineKind::Ibm370);
  Program P;
  P.Ops.push_back(strMove(Value::literal(2000), Value::literal(100),
                          Value::literal(600)));
  CodeGenResult R = T->generate(P);
  ASSERT_EQ(R.Notes.size(), 1u);
  EXPECT_NE(R.Notes[0].Chosen.find("rewritten"), std::string::npos);
  unsigned MvcCount = 0;
  for (const std::string &L : R.Asm)
    if (L.find("mvc (") != std::string::npos)
      ++MvcCount;
  EXPECT_EQ(MvcCount, 3u); // 256 + 256 + 88
  Memory M;
  for (int I = 0; I < 600; ++I)
    M[100 + I] = static_cast<uint8_t>(I & 0xFF);
  sim::SimResult S = sim::run370(R.Asm, M);
  ASSERT_TRUE(S.Ok) << S.Error;
  for (int I = 0; I < 600; ++I) {
    ASSERT_TRUE(S.Mem.contains(2000 + I)) << I;
    ASSERT_EQ(S.Mem.get(2000 + I), static_cast<uint8_t>(I & 0xFF)) << I;
  }
}

TEST(Ibm370CodegenTest, SymbolicLengthDecomposes) {
  auto T = corpusTarget(MachineKind::Ibm370);
  Program P;
  P.Ops.push_back(strMove(Value::symbol("d"), Value::symbol("s"),
                          Value::symbol("n")));
  CodeGenResult R = T->generate(P);
  EXPECT_EQ(R.DecomposedCount, 1u);
  Memory M;
  storeBytes(M, 100, "dyn");
  sim::SimResult S =
      sim::run370(R.Asm, M, {{"d", 200}, {"s", 100}, {"n", 3}});
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_EQ(loadBytes(S.Mem, 200, 3), "dyn");
}

TEST(Ibm370CodegenTest, FactKnownLengthUsesMvc) {
  auto T = corpusTarget(MachineKind::Ibm370);
  Program P;
  P.Ops.push_back(strMove(Value::symbol("d"), Value::symbol("s"),
                          Value::symbol("n")));
  // The front end knows n = 12 from constant propagation (§6).
  P.Facts.KnownValues["n"] = 12;
  CodeGenResult R = T->generate(P);
  EXPECT_EQ(R.ExoticCount, 1u);
  EXPECT_NE(joined(R.Asm).find(", 11"), std::string::npos);
}

TEST(Ibm370CodegenTest, RangeBoundedLengthDecomposes) {
  // A length known only by its range cannot be encoded into mvc's length
  // field, however narrow the range: the move decomposes.
  auto T = corpusTarget(MachineKind::Ibm370);
  for (const char *Range : {"range n 1 100;", "range n 1 255;",
                            "range n 1 256;"}) {
    DiagnosticEngine Diags;
    auto P = parseProgram(std::string(Range) +
                              " assume pascal.no-overlap; move(300, 100, n);",
                          Diags);
    ASSERT_TRUE(P.has_value()) << Diags.str();
    CodeGenResult R;
    ASSERT_NO_THROW(R = T->generate(*P)) << Range;
    EXPECT_EQ(R.DecomposedCount, 1u) << Range;
    Memory M;
    storeBytes(M, 100, "reproduction!!");
    sim::SimResult S = sim::run370(R.Asm, M, {{"n", 12}});
    ASSERT_TRUE(S.Ok) << Range << ": " << S.Error;
    EXPECT_EQ(loadBytes(S.Mem, 300, 12), "reproduction") << Range;
    EXPECT_FALSE(S.Mem.contains(312)) << Range;
  }
}

//===----------------------------------------------------------------------===//
// Frozen listings
//===----------------------------------------------------------------------===//

/// A listing pinned as "<lines>:<FNV-1a of its text>", with every label
/// renamed L0, L1, ... in order of first appearance, so two listings that
/// differ only in label numbering pin alike.
std::string listingDigest(const std::vector<std::string> &Asm) {
  std::set<std::string> Labels;
  for (const std::string &L : Asm)
    if (!L.empty() && L[0] != ' ' && L[0] != ';' && L.back() == ':')
      Labels.insert(L.substr(0, L.size() - 1));
  auto IsWordChar = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  std::map<std::string, std::string> Renamed;
  std::string Text;
  for (const std::string &L : Asm) {
    for (size_t I = 0; I < L.size();) {
      if (!IsWordChar(L[I])) {
        Text += L[I++];
        continue;
      }
      size_t J = I;
      while (J < L.size() && IsWordChar(L[J]))
        ++J;
      std::string Word = L.substr(I, J - I);
      if (Labels.count(Word))
        Word = Renamed.emplace(Word, "L" + std::to_string(Renamed.size()))
                   .first->second;
      Text += Word;
      I = J;
    }
    Text += '\n';
  }
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char Ch : Text)
    H = (H ^ Ch) * 0x100000001b3ULL;
  std::ostringstream Out;
  Out << Asm.size() << ":" << std::hex << H;
  return Out.str();
}

TEST(FrozenListingTest, EveryDecompositionAndLoweredBinding) {
  // Each machine x operator x operand shape, decomposed by the bare
  // target and compiled by the corpus target. Then, compiled by the
  // corpus target: the demo program; two-op programs whose second op
  // finds a register the first loaded; and literal lengths past the mvc
  // and movc3 ranges, which the rewriting rules chunk.
  using V = Value;
  const std::vector<HLOp> Literals = {
      strIndex("i", V::literal(300), V::literal(16), V::literal('r')),
      strMove(V::literal(300), V::literal(100), V::literal(16)),
      strEqual("eq", V::literal(100), V::literal(300), V::literal(16)),
      blockCopy(V::literal(300), V::literal(100), V::literal(16)),
      blockClear(V::literal(400), V::literal(8))};
  const std::vector<HLOp> Symbols = {
      strIndex("i", V::symbol("s"), V::symbol("n"), V::symbol("c")),
      strMove(V::symbol("d"), V::symbol("s"), V::symbol("n")),
      strEqual("eq", V::symbol("a"), V::symbol("b"), V::symbol("n")),
      blockCopy(V::symbol("d"), V::symbol("s"), V::symbol("n")),
      blockClear(V::symbol("d"), V::symbol("n"))};
  // {name, ops, whether the length symbol n has a known range}.
  const std::vector<std::tuple<std::string, const std::vector<HLOp> *, bool>>
      Shapes = {{"literals", &Literals, false},
                {"symbols", &Symbols, false},
                {"ranged", &Symbols, true}};
  const std::vector<std::pair<std::string, std::vector<HLOp>>> Programs = {
      {"index twice",
       {strIndex("i", V::literal(300), V::literal(16), V::literal('r')),
        strIndex("j", V::literal(400), V::literal(8), V::literal('r'))}},
      {"move twice",
       {strMove(V::literal(300), V::literal(100), V::literal(16)),
        strMove(V::literal(300), V::literal(200), V::literal(8))}},
      {"move then clear",
       {strMove(V::literal(300), V::literal(100), V::literal(16)),
        blockClear(V::literal(300), V::literal(8))}},
      {"long move",
       {strMove(V::literal(2000), V::literal(100), V::literal(600))}},
      {"long copy",
       {blockCopy(V::literal(200000), V::literal(0), V::literal(100000))}},
  };
  auto ProgramOf = [](std::vector<HLOp> Ops, bool Ranged) {
    Program P;
    P.Ops = std::move(Ops);
    P.Facts.Axioms.insert("pascal.no-overlap");
    if (Ranged)
      P.Facts.KnownRanges["n"] = {1, 200};
    return P;
  };

  std::vector<std::pair<std::string, std::string>> Listings;
  for (MachineKind MK : registry::allMachines()) {
    std::string M = registry::machineName(MK);
    auto Bare = MK == MachineKind::I8086 ? makeI8086Target()
                : MK == MachineKind::Vax   ? makeVaxTarget()
                                           : makeIbm370Target();
    auto Corpus = corpusTarget(MK);
    for (const auto &[Shape, Ops, Ranged] : Shapes)
      for (const HLOp &O : *Ops) {
        std::string Tag = M + " " + opKindName(O.K) + " " + Shape;
        CodeGenContext Ctx;
        Bare->decompose(O, Ctx);
        Listings.emplace_back(Tag + " decompose",
                              listingDigest(Ctx.takeLines()));
        Listings.emplace_back(
            Tag + " corpus",
            listingDigest(Corpus->generate(ProgramOf({O}, Ranged)).Asm));
      }
    Listings.emplace_back(
        M + " demo",
        listingDigest(Corpus->generate(registry::demoProgram()).Asm));
    for (const auto &[Name, Ops] : Programs)
      Listings.emplace_back(
          M + " " + Name,
          listingDigest(Corpus->generate(ProgramOf(Ops, false)).Asm));
  }

  static const std::vector<std::pair<std::string, std::string>> Frozen = {
      {"i8086 StrIndex literals decompose", "19:3e8cb7c3894a53bc"},
      {"i8086 StrIndex literals corpus", "16:f8ece34554a124db"},
      {"i8086 StrMove literals decompose", "13:b0663adfb531e125"},
      {"i8086 StrMove literals corpus", "6:74b41829cda64794"},
      {"i8086 StrEqual literals decompose", "20:a35373f88d0fcc11"},
      {"i8086 StrEqual literals corpus", "13:f1b05639e720245e"},
      {"i8086 BlockCopy literals decompose", "31:704d4a16147989a9"},
      {"i8086 BlockCopy literals corpus", "32:f730f4797c9eab40"},
      {"i8086 BlockClear literals decompose", "11:8f3c10878c4c0416"},
      {"i8086 BlockClear literals corpus", "6:5a4dd200e4396159"},
      {"i8086 StrIndex symbols decompose", "19:f4bcf012bc986210"},
      {"i8086 StrIndex symbols corpus", "16:7ff79446e9ed9ce3"},
      {"i8086 StrMove symbols decompose", "13:acf2b567d6984205"},
      {"i8086 StrMove symbols corpus", "6:ddb918b68e1d6574"},
      {"i8086 StrEqual symbols decompose", "20:d5ff56dfd9c610d5"},
      {"i8086 StrEqual symbols corpus", "13:8ec9226aaf462d04"},
      {"i8086 BlockCopy symbols decompose", "31:1892cfb65afb6c89"},
      {"i8086 BlockCopy symbols corpus", "32:270dcba4be28bee0"},
      {"i8086 BlockClear symbols decompose", "11:61bebcded96f1698"},
      {"i8086 BlockClear symbols corpus", "6:fd289cf8b7d5b89"},
      {"i8086 StrIndex ranged decompose", "19:f4bcf012bc986210"},
      {"i8086 StrIndex ranged corpus", "16:7ff79446e9ed9ce3"},
      {"i8086 StrMove ranged decompose", "13:acf2b567d6984205"},
      {"i8086 StrMove ranged corpus", "6:ddb918b68e1d6574"},
      {"i8086 StrEqual ranged decompose", "20:d5ff56dfd9c610d5"},
      {"i8086 StrEqual ranged corpus", "13:8ec9226aaf462d04"},
      {"i8086 BlockCopy ranged decompose", "31:1892cfb65afb6c89"},
      {"i8086 BlockCopy ranged corpus", "32:270dcba4be28bee0"},
      {"i8086 BlockClear ranged decompose", "11:61bebcded96f1698"},
      {"i8086 BlockClear ranged corpus", "6:fd289cf8b7d5b89"},
      {"i8086 demo", "41:41ff95a067ae3bf5"},
      {"i8086 index twice", "31:2b4ecb83c2a00d9e"},
      {"i8086 move twice", "12:7f00fb31bc5b303b"},
      {"i8086 move then clear", "12:8728a5b471f89a26"},
      {"i8086 long move", "6:9a210cfffe88a454"},
      {"i8086 long copy", "32:9b2804f15a6d26a0"},
      {"vax StrIndex literals decompose", "18:3e543776622cfd9b"},
      {"vax StrIndex literals corpus", "15:7608f53e1c870a49"},
      {"vax StrMove literals decompose", "13:4dc23920288d9cc8"},
      {"vax StrMove literals corpus", "5:5d453f2fde11e99e"},
      {"vax StrEqual literals decompose", "20:ee5748af3f88bb32"},
      {"vax StrEqual literals corpus", "12:763770ddab2659e5"},
      {"vax BlockCopy literals decompose", "13:4dc23920288d9cc8"},
      {"vax BlockCopy literals corpus", "5:5a6b4ac2ace885cf"},
      {"vax BlockClear literals decompose", "11:b8677e17fe272e57"},
      {"vax BlockClear literals corpus", "7:2f8db67282b8e6c2"},
      {"vax StrIndex symbols decompose", "18:85e38a7c788a1ca9"},
      {"vax StrIndex symbols corpus", "19:7f2fa68a0d5cd022"},
      {"vax StrMove symbols decompose", "13:508e2577d3c19b96"},
      {"vax StrMove symbols corpus", "14:be50ad302102fec9"},
      {"vax StrEqual symbols decompose", "20:e6012b4d5e0caaf0"},
      {"vax StrEqual symbols corpus", "21:e445e6854933e2e7"},
      {"vax BlockCopy symbols decompose", "13:508e2577d3c19b96"},
      {"vax BlockCopy symbols corpus", "14:1febaafcdccb3d07"},
      {"vax BlockClear symbols decompose", "11:3eb389f0bf280539"},
      {"vax BlockClear symbols corpus", "12:483443ef2768bd19"},
      {"vax StrIndex ranged decompose", "18:85e38a7c788a1ca9"},
      {"vax StrIndex ranged corpus", "15:9ef960f313ad365d"},
      {"vax StrMove ranged decompose", "13:508e2577d3c19b96"},
      {"vax StrMove ranged corpus", "5:a03f027bf3d56146"},
      {"vax StrEqual ranged decompose", "20:e6012b4d5e0caaf0"},
      {"vax StrEqual ranged corpus", "12:2249eff3db941db"},
      {"vax BlockCopy ranged decompose", "13:508e2577d3c19b96"},
      {"vax BlockCopy ranged corpus", "5:c2712bf39e6566f7"},
      {"vax BlockClear ranged decompose", "11:3eb389f0bf280539"},
      {"vax BlockClear ranged corpus", "7:7c978c5b4b5c5f3a"},
      {"vax demo", "39:165206e0494b1853"},
      {"vax index twice", "29:a57ede8d68df5371"},
      {"vax move twice", "10:84d75934d004a673"},
      {"vax move then clear", "11:1b9dacdfdb4c931"},
      {"vax long move", "5:c550d47c9df13814"},
      {"vax long copy", "9:77be88275901f62c"},
      {"ibm370 StrIndex literals decompose", "18:a7a6660a59a22b6b"},
      {"ibm370 StrIndex literals corpus", "19:bcfd83d41e9cb17e"},
      {"ibm370 StrMove literals decompose", "13:b1678bb2de900027"},
      {"ibm370 StrMove literals corpus", "4:cff3ea4dfa487ca8"},
      {"ibm370 StrEqual literals decompose", "20:fb1e942fac85332b"},
      {"ibm370 StrEqual literals corpus", "21:d9c7bbb699560b86"},
      {"ibm370 BlockCopy literals decompose", "13:b1678bb2de900027"},
      {"ibm370 BlockCopy literals corpus", "14:bafa32efb4e988bc"},
      {"ibm370 BlockClear literals decompose", "11:4a8d44242f3ede56"},
      {"ibm370 BlockClear literals corpus", "12:e24ee0d7ecd766dc"},
      {"ibm370 StrIndex symbols decompose", "18:ce6bc5ac0ffab849"},
      {"ibm370 StrIndex symbols corpus", "19:9918f1600bd7f00a"},
      {"ibm370 StrMove symbols decompose", "13:a3cec3066f9d6ad5"},
      {"ibm370 StrMove symbols corpus", "14:accf5a4368d1566c"},
      {"ibm370 StrEqual symbols decompose", "20:216b900b4a583b73"},
      {"ibm370 StrEqual symbols corpus", "21:4b4a501ebf40677c"},
      {"ibm370 BlockCopy symbols decompose", "13:a3cec3066f9d6ad5"},
      {"ibm370 BlockCopy symbols corpus", "14:3beb3dae73536b4e"},
      {"ibm370 BlockClear symbols decompose", "11:473f569ba5327d90"},
      {"ibm370 BlockClear symbols corpus", "12:1d4acedc1ba07770"},
      {"ibm370 StrIndex ranged decompose", "18:ce6bc5ac0ffab849"},
      {"ibm370 StrIndex ranged corpus", "19:9918f1600bd7f00a"},
      {"ibm370 StrMove ranged decompose", "13:a3cec3066f9d6ad5"},
      {"ibm370 StrMove ranged corpus", "14:accf5a4368d1566c"},
      {"ibm370 StrEqual ranged decompose", "20:216b900b4a583b73"},
      {"ibm370 StrEqual ranged corpus", "21:4b4a501ebf40677c"},
      {"ibm370 BlockCopy ranged decompose", "13:a3cec3066f9d6ad5"},
      {"ibm370 BlockCopy ranged corpus", "14:3beb3dae73536b4e"},
      {"ibm370 BlockClear ranged decompose", "11:473f569ba5327d90"},
      {"ibm370 BlockClear ranged corpus", "12:1d4acedc1ba07770"},
      {"ibm370 demo", "56:669627fbf13b0f6f"},
      {"ibm370 index twice", "38:65d0e27b437ed9df"},
      {"ibm370 move twice", "7:d1651d9edefa16c0"},
      {"ibm370 move then clear", "15:b541e5cb6416fe14"},
      {"ibm370 long move", "10:595fe932b6fa69d3"},
      {"ibm370 long copy", "14:9d8c899fe80188dc"},
  };
  ASSERT_EQ(Listings.size(), Frozen.size());
  for (size_t I = 0; I < Frozen.size(); ++I)
    EXPECT_EQ(Listings[I], Frozen[I]);
}

//===----------------------------------------------------------------------===//
// Dialect rows against the simulators: every primitive a row names runs on
// that machine's simulator and does what the row says it does
//===----------------------------------------------------------------------===//

sim::SimResult runOnRowMachine(const Dialect &D,
                               const std::vector<std::string> &Lines) {
  std::string_view M = D.Machine;
  if (M == "i8086")
    return sim::run8086(Lines);
  if (M == "vax")
    return sim::runVax(Lines);
  return sim::run370(Lines);
}

TEST(DialectSimTest, EveryPrimitiveRunsOnItsSimulator) {
  for (const char *Machine : {"i8086", "vax", "ibm370"}) {
    SCOPED_TRACE(Machine);
    const Dialect *D = findDialect(Machine);
    ASSERT_NE(D, nullptr);
    // Two of the row's own registers: A takes the results, B a second
    // operand or an address.
    const std::string A = D->Save, B = D->Index;
    auto Load = [&](const std::string &Reg, int64_t V) {
      return asmLine(D->Load, Reg, std::to_string(V));
    };
    auto ValueOfA = [&](const std::vector<std::string> &Lines) {
      sim::SimResult R = runOnRowMachine(*D, Lines);
      EXPECT_TRUE(R.Ok) << R.Error;
      return R.reg(A);
    };

    EXPECT_EQ(ValueOfA({Load(A, 5)}), 5);
    EXPECT_EQ(ValueOfA({Load(B, 7), asmLine(D->Move, A, B)}), 7);
    EXPECT_EQ(ValueOfA({Load(A, 5), asmLine(D->Inc, A)}), 6);
    EXPECT_EQ(ValueOfA({Load(A, 5), asmLine(D->Dec, A)}), 4);
    EXPECT_EQ(ValueOfA({Load(A, 5), Load(B, 3), asmLine(D->Add, A, B)}), 8);
    EXPECT_EQ(ValueOfA({Load(A, 5), Load(B, 3), asmLine(D->Sub, A, B)}), 2);

    sim::SimResult Bytes = runOnRowMachine(
        *D, {Load(A, 65), Load(B, 100), asmLine(D->StoreByte, A, B),
             Load(A, 0), asmLine(D->LoadByte, A, B)});
    ASSERT_TRUE(Bytes.Ok) << Bytes.Error;
    EXPECT_EQ(Bytes.Mem.get(100), 65);
    EXPECT_EQ(Bytes.reg(A), 65);

    // After \p Setup, \p Branch to a label that leaves 1 in A; falling
    // through leaves 0.
    auto Taken = [&](std::vector<std::string> Setup, const char *Branch) {
      Setup.insert(Setup.end(),
                   {asmLine(Branch, "hit"), Load(A, 0),
                    asmLine(D->Jump, "done"), "hit:", Load(A, 1), "done:"});
      return ValueOfA(Setup) == 1;
    };
    for (int64_t V : {0, 1, 2})
      EXPECT_EQ(Taken({Load(A, V), asmLine(D->TestZero, A)}, D->BranchZero),
                V == 0)
          << V;
    for (int64_t VA : {0, 1, 2})
      for (int64_t VB : {0, 1, 2}) {
        std::vector<std::string> Cmp = {Load(A, VA), Load(B, VB),
                                        asmLine(D->Compare, A, B)};
        EXPECT_EQ(Taken(Cmp, D->BranchNe), VA != VB) << VA << " " << VB;
        EXPECT_EQ(Taken(Cmp, D->BranchLe), VA <= VB) << VA << " " << VB;
        EXPECT_EQ(Taken(Cmp, D->BranchLt), VA < VB) << VA << " " << VB;
      }
    EXPECT_TRUE(Taken({}, D->Jump));
  }
}

//===----------------------------------------------------------------------===//
// Peephole (§6 integration optimization)
//===----------------------------------------------------------------------===//

TEST(PeepholeTest, RemovesSelfMovesAndRepeatedCld) {
  std::vector<std::string> Out = peephole({
      "  mov di, di",
      "  cld",
      "  cld",
      "  mov ax, bx",
  });
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_NE(Out[0].find("cld"), std::string::npos);
  EXPECT_NE(Out[1].find("mov ax, bx"), std::string::npos);
  EXPECT_EQ(peephole(Out), Out);
}

TEST(PeepholeTest, KeepsSeparatedSetup) {
  std::vector<std::string> Out = peephole({
      "  cld",
      "  mov ax, 1",
      "  cld",
  });
  EXPECT_EQ(Out.size(), 3u);
  EXPECT_EQ(peephole(Out), Out);
}

} // namespace
