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
}

TEST(PeepholeTest, KeepsSeparatedSetup) {
  std::vector<std::string> Out = peephole({
      "  cld",
      "  mov ax, 1",
      "  cld",
  });
  EXPECT_EQ(Out.size(), 3u);
}

} // namespace
