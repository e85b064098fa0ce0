//===- interp_test.cpp - Interpreter unit tests -----------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "TestSources.h"
#include "isdl/Parser.h"

#include <gtest/gtest.h>

using namespace extra;
using namespace extra::interp;
using namespace extra::isdl;

namespace {

std::unique_ptr<Description> desc(std::string_view Src) {
  DiagnosticEngine Diags;
  auto D = parseDescription(Src, Diags);
  EXPECT_TRUE(D && !Diags.hasErrors()) << Diags.str();
  return D;
}

TEST(InterpTest, RigelIndexFindsCharacter) {
  DiagnosticEngine Diags;
  auto D = parseDescription(extra::testing::RigelIndexSource, Diags);
  ASSERT_TRUE(D);
  Memory M;
  storeBytes(M, 100, "hello");
  // index("hello", 'l') -> 3 (1-based index of first 'l').
  ExecResult R = run(*D, {100, 5, 'l'}, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Outputs.size(), 1u);
  EXPECT_EQ(R.Outputs[0], 3);
}

TEST(InterpTest, RigelIndexCharacterNotFound) {
  DiagnosticEngine Diags;
  auto D = parseDescription(extra::testing::RigelIndexSource, Diags);
  ASSERT_TRUE(D);
  Memory M;
  storeBytes(M, 100, "hello");
  ExecResult R = run(*D, {100, 5, 'z'}, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Outputs, std::vector<int64_t>{0});
}

TEST(InterpTest, RigelIndexEmptyString) {
  DiagnosticEngine Diags;
  auto D = parseDescription(extra::testing::RigelIndexSource, Diags);
  ASSERT_TRUE(D);
  ExecResult R = run(*D, {100, 0, 'a'});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Outputs, std::vector<int64_t>{0});
}

TEST(InterpTest, RigelIndexFirstAndLastPosition) {
  DiagnosticEngine Diags;
  auto D = parseDescription(extra::testing::RigelIndexSource, Diags);
  ASSERT_TRUE(D);
  Memory M;
  storeBytes(M, 50, "abc");
  EXPECT_EQ(run(*D, {50, 3, 'a'}, M).Outputs, std::vector<int64_t>{1});
  EXPECT_EQ(run(*D, {50, 3, 'c'}, M).Outputs, std::vector<int64_t>{3});
}

TEST(InterpTest, ScasbRepeatModeFindsCharacter) {
  DiagnosticEngine Diags;
  auto D = parseDescription(extra::testing::ScasbSource, Diags);
  ASSERT_TRUE(D);
  Memory M;
  storeBytes(M, 200, "hello");
  // rf=1 (repeat), rfz=0 (stop on match), df=0 (forward), zf=0.
  ExecResult R = run(*D, {1, 0, 0, 0, 200, 5, 'l'}, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  // Outputs: zf, di, cx. di points one past the found 'l' (index 2 ->
  // address 202, post-incremented to 203).
  ASSERT_EQ(R.Outputs.size(), 3u);
  EXPECT_EQ(R.Outputs[0], 1);   // zf: found
  EXPECT_EQ(R.Outputs[1], 203); // di
  EXPECT_EQ(R.Outputs[2], 2);   // cx: 5 - 3 consumed... cx decremented per trip
}

TEST(InterpTest, ScasbNotFoundExhaustsString) {
  DiagnosticEngine Diags;
  auto D = parseDescription(extra::testing::ScasbSource, Diags);
  ASSERT_TRUE(D);
  Memory M;
  storeBytes(M, 200, "hello");
  ExecResult R = run(*D, {1, 0, 0, 0, 200, 5, 'z'}, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Outputs[0], 0);   // zf: not found
  EXPECT_EQ(R.Outputs[1], 205); // scanned all five bytes
  EXPECT_EQ(R.Outputs[2], 0);
}

TEST(InterpTest, ScasbBackwardDirection) {
  DiagnosticEngine Diags;
  auto D = parseDescription(extra::testing::ScasbSource, Diags);
  ASSERT_TRUE(D);
  Memory M;
  storeBytes(M, 200, "abc");
  // df=1: scan from address 202 down.
  ExecResult R = run(*D, {1, 0, 1, 0, 202, 3, 'b'}, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Outputs[0], 1);
  EXPECT_EQ(R.Outputs[1], 200); // one past 'b' going downward
}

TEST(InterpTest, ScasbNonRepeatMode) {
  DiagnosticEngine Diags;
  auto D = parseDescription(extra::testing::ScasbSource, Diags);
  ASSERT_TRUE(D);
  Memory M;
  storeBytes(M, 200, "x");
  ExecResult R = run(*D, {0, 0, 0, 0, 200, 5, 'x'}, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Outputs[0], 1);   // single compare, matched
  EXPECT_EQ(R.Outputs[1], 201); // one advance
  EXPECT_EQ(R.Outputs[2], 5);   // cx untouched
}

TEST(InterpTest, ScasbScanWhileEqual) {
  DiagnosticEngine Diags;
  auto D = parseDescription(extra::testing::ScasbSource, Diags);
  ASSERT_TRUE(D);
  Memory M;
  storeBytes(M, 200, "aaab");
  // rfz=1: loop while matching; exits at first non-match.
  ExecResult R = run(*D, {1, 1, 0, 0, 200, 4, 'a'}, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Outputs[0], 0);   // zf clear at exit (mismatch)
  EXPECT_EQ(R.Outputs[1], 204); // stopped after 'b'
}

TEST(InterpTest, RegisterWidthWraparound) {
  auto D = desc(R"(
x := begin
  ** S **
    c<7:0>,
    x.execute := begin input (c); c <- c + 1; output (c); end
end
)");
  ExecResult R = run(*D, {255});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Outputs, std::vector<int64_t>{0});
}

TEST(InterpTest, InputValuesMaskedOnIntake) {
  auto D = desc(R"(
x := begin
  ** S **
    c<3:0>,
    x.execute := begin input (c); output (c); end
end
)");
  ExecResult R = run(*D, {0xFF});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Outputs, std::vector<int64_t>{0xF});
}

TEST(InterpTest, MemoryWriteAndFinalMemory) {
  auto D = desc(R"(
x := begin
  ** S **
    p: integer, v: integer,
    x.execute := begin input (p, v); Mb[p] <- v; output (Mb[p]); end
end
)");
  ExecResult R = run(*D, {10, 0x1FF});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Outputs, std::vector<int64_t>{0xFF}); // bytes are 8-bit
  EXPECT_EQ(loadBytes(R.FinalMemory, 10, 1), std::string(1, '\xff'));
}

TEST(InterpTest, RoutineReturnAccumulatorIsPerInvocation) {
  auto D = desc(R"(
x := begin
  ** S **
    a: integer,
    f(): integer := begin f <- a; a <- a + 1; end
    x.execute := begin input (a); output (f() + f()); end
end
)");
  // First call returns 5, second 6.
  ExecResult R = run(*D, {5});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Outputs, std::vector<int64_t>{11});
}

TEST(InterpTest, InputExhaustionIsAnError) {
  auto D = desc(R"(
x := begin
  ** S **
    a: integer, b: integer,
    x.execute := begin input (a, b); output (a); end
end
)");
  ExecResult R = run(*D, {1});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("input exhausted"), std::string::npos);
}

TEST(InterpTest, DivisionByZeroIsAnError) {
  auto D = desc(R"(
x := begin
  ** S **
    a: integer,
    x.execute := begin input (a); output (1 / a); end
end
)");
  EXPECT_FALSE(run(*D, {0}).Ok);
  EXPECT_TRUE(run(*D, {2}).Ok);
}

TEST(InterpTest, StepLimitStopsInfiniteLoop) {
  auto D = desc(R"(
x := begin
  ** S **
    a: integer,
    x.execute := begin
      repeat
        a <- a + 1;
        exit_when (a < 0);
      end_repeat;
      output (a);
    end
end
)");
  ExecOptions Opts;
  Opts.MaxSteps = 1000;
  ExecResult R = run(*D, {}, {}, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);
}

TEST(InterpTest, AssertFailureStopsExecution) {
  auto D = desc(R"(
x := begin
  ** S **
    a: integer,
    x.execute := begin input (a); assert a > 0; output (a); end
end
)");
  EXPECT_TRUE(run(*D, {3}).Ok);
  ExecResult R = run(*D, {0});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("assertion failed"), std::string::npos);
}

TEST(InterpTest, ConstrainIsARuntimeNoOp) {
  auto D = desc(R"(
x := begin
  ** S **
    a: integer,
    x.execute := begin input (a); constrain range: a <= 2; output (a); end
end
)");
  // Violating the constraint does not abort execution: constraints are
  // obligations for the code generator, not run-time checks.
  EXPECT_TRUE(run(*D, {100}).Ok);
}

TEST(InterpTest, LogicalOperatorsAreNonZeroTests) {
  auto D = desc(R"(
x := begin
  ** S **
    a: integer, b: integer,
    x.execute := begin
      input (a, b);
      output (a and b, a or b, not a);
    end
end
)");
  ExecResult R = run(*D, {5, 0});
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Outputs, (std::vector<int64_t>{0, 1, 0}));
}

TEST(InterpTest, InputOperandsHelper) {
  DiagnosticEngine Diags;
  auto D = parseDescription(extra::testing::ScasbSource, Diags);
  ASSERT_TRUE(D);
  auto Ops = inputOperands(*D);
  ASSERT_EQ(Ops.size(), 7u);
  EXPECT_EQ(Ops[0], "rf");
  EXPECT_EQ(inputWidth(*D, "di"), 16u);
  EXPECT_EQ(inputWidth(*D, "rf"), 1u);
}

TEST(InterpTest, SameObservableComparesMemory) {
  auto D = desc(R"(
x := begin
  ** S **
    p: integer,
    x.execute := begin input (p); Mb[p] <- 7; output (0); end
end
)");
  ExecResult A = run(*D, {10});
  ExecResult B = run(*D, {10});
  ExecResult C = run(*D, {11});
  EXPECT_TRUE(A.sameObservable(B));
  EXPECT_FALSE(A.sameObservable(C));
}

//===----------------------------------------------------------------------===//
// Memory: held-byte semantics of the paged image
//===----------------------------------------------------------------------===//

std::vector<std::pair<uint64_t, uint8_t>> held(const Memory &M) {
  return {M.begin(), M.end()};
}

TEST(MemoryTest, WrittenZeroIsHeldAndDiffersFromAbsent) {
  Memory Zero, Empty;
  EXPECT_EQ(Zero.get(5), 0);
  EXPECT_FALSE(Zero.contains(5));
  Zero[5] = 0;
  EXPECT_TRUE(Zero.contains(5));
  EXPECT_EQ(Zero.get(5), 0);
  EXPECT_NE(Zero, Empty);
  // Reading through operator[] holds the byte too, as std::map did.
  Memory Read;
  EXPECT_EQ(Read[9], 0);
  EXPECT_TRUE(Read.contains(9));
}

TEST(MemoryTest, EraseMakesAByteAbsent) {
  Memory M, Same;
  M[300] = 7;
  M[301] = 8;
  Same[301] = 8;
  M.erase(300);
  EXPECT_FALSE(M.contains(300));
  EXPECT_EQ(M.get(300), 0);
  EXPECT_EQ(M, Same);
  M.erase(12345); // Absent: no effect.
  EXPECT_EQ(M, Same);
}

TEST(MemoryTest, IteratesAscendingAcrossPagesAndAboveTwoToThe63) {
  const uint64_t Neg = static_cast<uint64_t>(int64_t(-1));
  const uint64_t High = uint64_t(1) << 63;
  Memory M;
  for (uint64_t A : {Neg, High, uint64_t(70000), uint64_t(256), uint64_t(255),
                     uint64_t(0), uint64_t(4096), High - 1})
    M[A] = static_cast<uint8_t>(A % 251 + 1);
  std::vector<uint64_t> Addrs;
  for (const auto &[Addr, V] : M) {
    Addrs.push_back(Addr);
    EXPECT_EQ(V, Addr % 251 + 1) << Addr;
  }
  EXPECT_EQ(Addrs, (std::vector<uint64_t>{0, 255, 256, 4096, 70000, High - 1,
                                          High, Neg}));
  // The interpreter stores a negative address there too.
  auto D = desc(R"(
x := begin
  ** S **
    p: integer,
    x.execute := begin input (p); Mb[p] <- 9; Mb[p + 2] <- 8; end
end
)");
  ExecResult R = run(*D, {-1});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(held(R.FinalMemory),
            (std::vector<std::pair<uint64_t, uint8_t>>{{1, 8}, {Neg, 9}}));
}

TEST(MemoryTest, FullyErasedPageEqualsNoPage) {
  Memory M, Empty;
  for (uint64_t A = 1000; A < 1600; ++A)
    M[A] = 1;
  EXPECT_NE(M, Empty);
  for (uint64_t A = 1000; A < 1600; ++A)
    M.erase(A);
  EXPECT_EQ(M, Empty);
  EXPECT_TRUE(held(M).empty());
  M[1200] = 3; // The image stays usable after its pages were dropped.
  EXPECT_EQ(M.get(1200), 3);
}

TEST(MemoryTest, CopiesAreIndependentAndMovedFromImagesReusable) {
  Memory A;
  storeBytes(A, 100, "abc");
  EXPECT_EQ(A.get(101), 'b');
  Memory B = A;
  B[101] = 'x';
  A[102] = 'y';
  EXPECT_EQ(loadBytes(A, 100, 3), "aby");
  EXPECT_EQ(loadBytes(B, 100, 3), "axc");

  Memory C = std::move(A);
  A[101] = 'z';
  A.erase(5);
  EXPECT_EQ(A.get(101), 'z');
  EXPECT_EQ(loadBytes(C, 100, 3), "aby");
  Memory D;
  D[7] = 7;
  D = std::move(C);
  C[100] = 'q';
  EXPECT_EQ(C.get(100), 'q');
  EXPECT_EQ(loadBytes(D, 100, 3), "aby");
  EXPECT_FALSE(D.contains(7));
}

} // namespace
