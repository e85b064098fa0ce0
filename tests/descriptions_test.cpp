//===- descriptions_test.cpp - Description library behavior -----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Behavioral checks for the description library: each instruction
/// description, interpreted, does what its reference manual says; each
/// operator description implements its language's semantics. (Parsing/
/// validation of every entry is covered in analysis_test.cpp.)
///
//===----------------------------------------------------------------------===//

#include "descriptions/Descriptions.h"

#include "interp/Interp.h"

#include <gtest/gtest.h>

using namespace extra;
using interp::Memory;
using interp::loadBytes;
using interp::storeBytes;

namespace {

TEST(OperatorBehaviorTest, PascalSmoveMovesBytes) {
  auto D = descriptions::load("pascal.smove");
  Memory M;
  storeBytes(M, 10, "pascal");
  auto R = interp::run(*D, {10, 50, 6}, M); // (src, dst, len)
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(loadBytes(R.FinalMemory, 50, 6), "pascal");
}

TEST(OperatorBehaviorTest, Pl1MoveAgreesWithPascalSmove) {
  auto A = descriptions::load("pascal.smove");
  auto B = descriptions::load("pl1.move");
  Memory M;
  storeBytes(M, 10, "identical?");
  for (int64_t Len : {0, 1, 10}) {
    auto RA = interp::run(*A, {10, 60, Len}, M);
    auto RB = interp::run(*B, {10, 60, Len}, M);
    ASSERT_TRUE(RA.Ok && RB.Ok);
    EXPECT_EQ(RA.FinalMemory, RB.FinalMemory) << Len;
  }
}

TEST(OperatorBehaviorTest, CluSearchAgreesWithRigelIndex) {
  auto A = descriptions::load("rigel.index");
  auto B = descriptions::load("clu.search");
  Memory M;
  storeBytes(M, 20, "agreement");
  for (int64_t Len : {0, 4, 9})
    for (int Ch : {'a', 'g', 't', 'q'}) {
      auto RA = interp::run(*A, {20, Len, Ch}, M);
      auto RB = interp::run(*B, {20, Len, Ch}, M);
      ASSERT_TRUE(RA.Ok && RB.Ok);
      EXPECT_EQ(RA.Outputs, RB.Outputs)
          << "len=" << Len << " ch=" << static_cast<char>(Ch);
    }
}

TEST(OperatorBehaviorTest, SequalComparesEquality) {
  auto D = descriptions::load("pascal.sequal");
  Memory M;
  storeBytes(M, 10, "alpha");
  storeBytes(M, 30, "alpha");
  storeBytes(M, 50, "aloha");
  EXPECT_EQ(interp::run(*D, {10, 30, 5}, M).Outputs,
            std::vector<int64_t>{1});
  EXPECT_EQ(interp::run(*D, {10, 50, 5}, M).Outputs,
            std::vector<int64_t>{0});
  EXPECT_EQ(interp::run(*D, {10, 50, 2}, M).Outputs,
            std::vector<int64_t>{1}); // "al" == "al"
  EXPECT_EQ(interp::run(*D, {10, 30, 0}, M).Outputs,
            std::vector<int64_t>{1}); // empty strings equal
}

TEST(OperatorBehaviorTest, Pc2CopyHandlesOverlapBothWays) {
  auto D = descriptions::load("pc2.copy");
  Memory M;
  storeBytes(M, 100, "abcdef");
  // dst overlaps source tail.
  auto Up = interp::run(*D, {4, 100, 102}, M); // (len, src, dst)
  ASSERT_TRUE(Up.Ok) << Up.Error;
  EXPECT_EQ(loadBytes(Up.FinalMemory, 102, 4), "abcd");
  // dst below src: forward copy fine.
  Memory M2;
  storeBytes(M2, 102, "abcdef");
  auto Down = interp::run(*D, {4, 102, 100}, M2);
  ASSERT_TRUE(Down.Ok);
  EXPECT_EQ(loadBytes(Down.FinalMemory, 100, 4), "abcd");
}

TEST(OperatorBehaviorTest, RigelSpanCountsLeadingRun) {
  auto D = descriptions::load("rigel.span");
  Memory M;
  storeBytes(M, 20, "aaab");
  EXPECT_EQ(interp::run(*D, {20, 4, 'a'}, M).Outputs,
            std::vector<int64_t>{3});
  EXPECT_EQ(interp::run(*D, {20, 4, 'b'}, M).Outputs,
            std::vector<int64_t>{0});
  EXPECT_EQ(interp::run(*D, {20, 3, 'a'}, M).Outputs,
            std::vector<int64_t>{3}); // entire string matches
  EXPECT_EQ(interp::run(*D, {20, 0, 'a'}, M).Outputs,
            std::vector<int64_t>{0});
}

TEST(InstructionBehaviorTest, MovsbForwardMove) {
  auto D = descriptions::load("i8086.movsb");
  Memory M;
  storeBytes(M, 10, "bytes");
  // (rf, df, si, di, cx)
  auto R = interp::run(*D, {1, 0, 10, 40, 5}, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(loadBytes(R.FinalMemory, 40, 5), "bytes");
  EXPECT_EQ(R.Outputs, (std::vector<int64_t>{15, 45, 0})); // si, di, cx
}

TEST(InstructionBehaviorTest, MovsbSingleShot) {
  auto D = descriptions::load("i8086.movsb");
  Memory M;
  M[10] = 'x';
  auto R = interp::run(*D, {0, 0, 10, 40, 5}, M); // rf = 0
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.FinalMemory.get(40), 'x');
  EXPECT_EQ(R.Outputs, (std::vector<int64_t>{11, 41, 5}));
}

TEST(InstructionBehaviorTest, CmpsbStopsAtMismatch) {
  auto D = descriptions::load("i8086.cmpsb");
  Memory M;
  storeBytes(M, 10, "abcx");
  storeBytes(M, 30, "abcy");
  // (rf, rfz, df, zf, si, di, cx); rfz=1: compare while equal.
  auto R = interp::run(*D, {1, 1, 0, 1, 10, 30, 4}, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  // Outputs: zf, si, di, cx — zf clear after the mismatching pair.
  EXPECT_EQ(R.Outputs[0], 0);
  EXPECT_EQ(R.Outputs[1], 14);
  EXPECT_EQ(R.Outputs[2], 34);
}

TEST(InstructionBehaviorTest, StosbFillsForward) {
  auto D = descriptions::load("i8086.stosb");
  auto R = interp::run(*D, {1, 0, 40, 3, 'z'}, {});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(loadBytes(R.FinalMemory, 40, 3), "zzz");
}

TEST(InstructionBehaviorTest, LoccReportsRemainderAndAddress) {
  auto D = descriptions::load("vax.locc");
  Memory M;
  storeBytes(M, 10, "locate");
  auto Hit = interp::run(*D, {'a', 6, 10}, M);
  ASSERT_TRUE(Hit.Ok);
  // 'a' at offset 3: three bytes remain (including it), address 13.
  EXPECT_EQ(Hit.Outputs, (std::vector<int64_t>{3, 13}));
  auto Miss = interp::run(*D, {'z', 6, 10}, M);
  EXPECT_EQ(Miss.Outputs, (std::vector<int64_t>{0, 16}));
}

TEST(InstructionBehaviorTest, SkpcSkipsLeadingRun) {
  auto D = descriptions::load("vax.skpc");
  Memory M;
  storeBytes(M, 10, "   pad");
  auto R = interp::run(*D, {' ', 6, 10}, M);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Outputs, (std::vector<int64_t>{3, 13})); // stops at 'p'
  auto All = interp::run(*D, {' ', 3, 10}, M);
  EXPECT_EQ(All.Outputs, (std::vector<int64_t>{0, 13}));
}

TEST(InstructionBehaviorTest, Cmpc3CountsRemainder) {
  auto D = descriptions::load("vax.cmpc3");
  Memory M;
  storeBytes(M, 10, "vax");
  storeBytes(M, 30, "vex");
  auto R = interp::run(*D, {3, 10, 30}, M);
  ASSERT_TRUE(R.Ok);
  // Mismatch at index 1 ('a' vs 'e'): 2 bytes remain including it.
  EXPECT_EQ(R.Outputs[0], 2);
}

TEST(InstructionBehaviorTest, Movc5ClearSpecialization) {
  auto D = descriptions::load("vax.movc5");
  auto R = interp::run(*D, {0, 0, 0, 4, 40}, {});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(loadBytes(R.FinalMemory, 40, 4), std::string(4, '\0'));
}

TEST(InstructionBehaviorTest, MvcMovesLengthPlusOne) {
  auto D = descriptions::load("ibm370.mvc");
  Memory M;
  storeBytes(M, 10, "370mvc");
  auto R = interp::run(*D, {40, 10, 3}, M); // moves FOUR bytes
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(loadBytes(R.FinalMemory, 40, 4), "370m");
  EXPECT_FALSE(R.FinalMemory.contains(44));
}

TEST(InstructionBehaviorTest, ClcComparesWithOrdering) {
  auto D = descriptions::load("ibm370.clc");
  Memory M;
  storeBytes(M, 10, "abc");
  storeBytes(M, 30, "abd");
  auto Lt = interp::run(*D, {10, 30, 2}, M); // 3 bytes: c < d
  ASSERT_TRUE(Lt.Ok);
  EXPECT_EQ(Lt.Outputs, std::vector<int64_t>{1});
  auto Eq = interp::run(*D, {10, 30, 1}, M); // "ab" == "ab"
  EXPECT_EQ(Eq.Outputs, std::vector<int64_t>{0});
  auto Gt = interp::run(*D, {30, 10, 2}, M);
  EXPECT_EQ(Gt.Outputs, std::vector<int64_t>{2});
}

TEST(InstructionBehaviorTest, Movc3AgreesWithPc2CopyEverywhere) {
  auto A = descriptions::load("vax.movc3");
  auto B = descriptions::load("pc2.copy");
  Memory M;
  storeBytes(M, 100, "overlap-check");
  for (int64_t Dst : {90, 100, 103, 120}) {
    auto RA = interp::run(*A, {8, 100, Dst}, M);
    auto RB = interp::run(*B, {8, 100, Dst}, M);
    ASSERT_TRUE(RA.Ok && RB.Ok);
    EXPECT_EQ(RA.FinalMemory, RB.FinalMemory) << "dst=" << Dst;
  }
}

} // namespace
