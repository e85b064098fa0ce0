//===- selftest.cpp - Checks of the benchmark's own arithmetic ------------===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// The reference model must agree with results known by hand, and the
// median / geometric-mean / ratio helpers with values computed by hand.
// Run through `python3 perfbench/selftest.py`, or directly; exits 1 on
// the first failed check.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace perfbench;

namespace {

unsigned Checks = 0, Failures = 0;

void expect(bool Ok, const char *What) {
  ++Checks;
  if (!Ok) {
    ++Failures;
    std::printf("FAIL: %s\n", What);
  }
}

bool near(double A, double B) { return std::fabs(A - B) <= 1e-9 * (1 + std::fabs(B)); }

OpSpec op(OpKind K, uint64_t A, uint64_t B, uint64_t Len, uint8_t Ch = 0,
          const char *Result = "") {
  OpSpec O;
  O.K = K;
  O.A = A;
  O.B = B;
  O.Len = Len;
  O.Ch = Ch;
  O.Result = Result;
  return O;
}

void storeString(extra::interp::Memory &M, uint64_t At, const char *S) {
  for (uint64_t I = 0; S[I]; ++I)
    M[At + I] = static_cast<uint8_t>(S[I]);
}

std::string read(const RefOutcome &R, uint64_t At, uint64_t Len) {
  return std::string(R.Mem.begin() + At, R.Mem.begin() + At + Len);
}

void testArithmetic() {
  expect(median({}) == 0, "median of nothing is 0");
  expect(median({3}) == 3, "median of one value");
  expect(median({5, 1, 3}) == 3, "median of an odd count");
  expect(median({4, 1, 3, 2}) == 2.5, "median of an even count");
  expect(near(geomean({2, 8}), 4), "geomean(2, 8) = 4");
  expect(near(geomean({0.5, 2, 1}), 1), "geomean(0.5, 2, 1) = 1");
  expect(near(geomean({0.1, 0.1, 0.1}), 0.1), "geomean of equal values");
  expect(geomean({}) == 0, "geomean of nothing is 0");
  expect(geomean({1, 0}) == 0, "geomean with a zero is 0");
  expect(ratio(3, 4) == 0.75, "ratio(3, 4)");
  expect(ratio(1, 0) == 0, "ratio over 0 is 0");
}

void testReferenceModel() {
  // The registry demo program: move 16 bytes, index 'r', compare, clear.
  ProgramCase P;
  storeString(P.Mem, 100, "characteristic!!");
  for (int I = 0; I < 8; ++I)
    P.Mem[400 + I] = 0xEE;
  P.Ops = {op(OpKind::Move, 300, 100, 16),
           op(OpKind::Index, 300, 0, 16, 'r', "i"),
           op(OpKind::Equal, 100, 300, 16, 0, "eq"),
           op(OpKind::Clear, 400, 0, 8)};
  RefOutcome R = referenceRun(P);
  expect(read(R, 300, 16) == "characteristic!!", "move copies the bytes");
  expect(R.Results["i"] == 4, "index('characteristic!!', 'r') = 4");
  expect(R.Results["eq"] == 1, "equal after move is 1");
  expect(R.Mem[400] == 0 && R.Mem[407] == 0, "clear zeroes its block");

  ProgramCase Q;
  storeString(Q.Mem, 10, "abcdef");
  storeString(Q.Mem, 30, "abcxef");
  Q.Ops = {op(OpKind::Index, 10, 0, 6, 'z', "absent"),
           op(OpKind::Index, 10, 0, 3, 'd', "beyond"),
           op(OpKind::Index, 10, 0, 6, 'a', "first"),
           op(OpKind::Equal, 10, 30, 6, 0, "ne"),
           op(OpKind::Equal, 10, 30, 3, 0, "prefix")};
  RefOutcome S = referenceRun(Q);
  expect(S.Results["absent"] == 0, "index of an absent char is 0");
  expect(S.Results["beyond"] == 0, "index ignores bytes past the length");
  expect(S.Results["first"] == 1, "index is 1-based");
  expect(S.Results["ne"] == 0, "equal with a mismatch is 0");
  expect(S.Results["prefix"] == 1, "equal over the matching prefix is 1");

  // bcopy is overlap-safe in both directions; a move is a plain
  // ascending copy.
  ProgramCase Up, Down, Smear;
  storeString(Up.Mem, 0, "abcdef");
  Up.Ops = {op(OpKind::Copy, 2, 0, 4)};
  storeString(Down.Mem, 0, "abcdef");
  Down.Ops = {op(OpKind::Copy, 0, 2, 4)};
  storeString(Smear.Mem, 0, "abcdef");
  Smear.Ops = {op(OpKind::Move, 1, 0, 4)};
  expect(read(referenceRun(Up), 0, 6) == "ababcd", "copy up overlaps safely");
  expect(read(referenceRun(Down), 0, 6) == "cdefef",
         "copy down overlaps safely");
  expect(read(referenceRun(Smear), 0, 6) == "aaaaaf",
         "an overlapping move propagates its first byte");

  // compareToReference: absent bytes read as 0; results must match.
  RefOutcome Ref = referenceRun(P);
  extra::interp::Memory Final = P.Mem;
  for (uint64_t I = 0; I < 16; ++I)
    Final[300 + I] = Final[100 + I];
  for (int I = 0; I < 8; ++I)
    Final[400 + I] = 0;
  std::map<std::string, int64_t> Regs = {{"i", 4}, {"eq", 1}, {"cx", 99}};
  expect(compareToReference(Ref, Final, Regs).empty(),
         "a correct final state matches");
  Final.erase(400);
  expect(compareToReference(Ref, Final, Regs).empty(),
         "an absent zero byte matches");
  Final.erase(300);
  expect(!compareToReference(Ref, Final, Regs).empty(),
         "a missing nonzero byte is caught");
  Final[300] = 'c';
  Regs["i"] = 5;
  expect(!compareToReference(Ref, Final, Regs).empty(),
         "a wrong result is caught");
}

void testGenerator() {
  std::vector<ProgramCase> A = generatePrograms(7), B = generatePrograms(7),
                           C = generatePrograms(8);
  bool Same = A.size() == B.size();
  for (size_t I = 0; Same && I < A.size(); ++I)
    Same = A[I].Text == B[I].Text && A[I].Mem == B[I].Mem;
  expect(Same, "the same seed gives the same programs");
  expect(A.size() == C.size() && A[0].Text != C[0].Text,
         "another seed gives other programs of the same count");

  // Both seeds draw the same multiset of (operator, form) cells.
  auto Cells = [](const std::vector<ProgramCase> &Ps) {
    std::map<std::pair<int, int>, unsigned> M;
    for (const ProgramCase &P : Ps)
      for (const OpSpec &O : P.Ops)
        ++M[{static_cast<int>(O.K), static_cast<int>(O.Form)}];
    return M;
  };
  expect(Cells(A) == Cells(C), "every seed draws the same cell mix");

  bool Narrow = true, HasWide = false;
  for (const ProgramCase &P : A) {
    HasWide |= P.Wide;
    if (P.Wide)
      continue;
    for (const auto &[Addr, V] : P.Mem)
      Narrow &= Addr < 65536;
    for (const OpSpec &O : P.Ops)
      Narrow &= O.A + O.Len < 65536 && O.B + O.Len < 65536 && O.Len >= 1;
  }
  expect(Narrow, "8086 programs fit 16-bit addresses");
  expect(HasWide, "some programs exceed 65535 bytes (movc3 chunking)");
}

} // namespace

int main() {
  testArithmetic();
  testReferenceModel();
  testGenerator();
  std::printf("perfbench self-test: %u checks, %u failed\n", Checks, Failures);
  return Failures ? 1 : 0;
}
