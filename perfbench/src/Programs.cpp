//===- Programs.cpp - Seeded front-end programs for compile-run -*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// The generator is stratified: every pass holds the same multiset of
// (operator, length class, length form) cells, and the seed draws what
// varies inside a cell — the exact length within its stratum, the string
// contents, where a searched character or a mismatch sits, which copies
// overlap and in which direction, which programs assume no-overlap, and
// how the ops are grouped and ordered into programs. So each seed is a
// different set of programs with the same expected cost, and the run's
// totals move little from seed to seed. WORKLOADS.md records why each
// property is drawn.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>

using namespace perfbench;

namespace {

std::string lengthName(size_t OpIndex) { return "n" + std::to_string(OpIndex); }

std::string opText(const OpSpec &O, const std::string &Len) {
  std::string A = std::to_string(O.A), B = std::to_string(O.B);
  switch (O.K) {
  case OpKind::Move:
    return "move(" + A + ", " + B + ", " + Len + ");";
  case OpKind::Copy:
    return "copy(" + A + ", " + B + ", " + Len + ");";
  case OpKind::Clear:
    return "clear(" + A + ", " + Len + ");";
  case OpKind::Index:
    return O.Result + " := index(" + A + ", " + Len + ", '" +
           static_cast<char>(O.Ch) + "');";
  case OpKind::Equal:
    return O.Result + " := equal(" + A + ", " + B + ", " + Len + ");";
  }
  return "";
}

/// Lays \p Bytes letters from the seeded stream at \p Base, avoiding
/// \p Avoid (0 = any letter).
void fillLetters(extra::interp::Memory &M, uint64_t Base, uint64_t Bytes,
                 std::mt19937_64 &Rng, uint8_t Avoid = 0) {
  for (uint64_t I = 0; I < Bytes; ++I) {
    uint8_t C;
    do
      C = static_cast<uint8_t>('a' + Rng() % 26);
    while (C == Avoid);
    M[Base + I] = C;
  }
}

uint64_t uniform(std::mt19937_64 &Rng, uint64_t Lo, uint64_t Hi) {
  return Lo + Rng() % (Hi - Lo + 1);
}

/// Draws the \p Stratum-th of \p Strata equal slices of [Lo, Hi].
uint64_t stratified(std::mt19937_64 &Rng, uint64_t Lo, uint64_t Hi,
                    unsigned Stratum, unsigned Strata) {
  uint64_t Span = Hi - Lo + 1;
  uint64_t SLo = Lo + Span * Stratum / Strata;
  uint64_t End = Lo + Span * (Stratum + 1) / Strata;
  return uniform(Rng, SLo, End > SLo ? End - 1 : SLo);
}

struct LengthClass {
  uint64_t Lo, Hi;
};
// Short strings leave codegen as the larger share of a program's cost,
// long ones make the simulator dominate; the long class crosses the 370
// mvc 256-byte limit, so its chunked rewrite fires on literal lengths.
// The long class is narrow so that the seed moves the total work little.
constexpr LengthClass Classes[] = {{1, 16}, {17, 255}, {1792, 2304}};
constexpr LenForm Forms[] = {LenForm::Literal, LenForm::Const, LenForm::Range,
                             LenForm::Free};
constexpr OpKind Kinds[] = {OpKind::Move, OpKind::Copy, OpKind::Clear,
                            OpKind::Index, OpKind::Equal};
// The capacity a `range` fact declares. It stays above 256: a move whose
// length is only range-bounded within 1..256 makes the 370 mvc emitter
// look for a known value that is not there and throw, so such programs
// are left out.
constexpr int64_t RangeCapacity = 4096;
constexpr unsigned CopiesPerCell = 2;
constexpr unsigned OpsPerProgram = 5;
constexpr uint64_t Gap = 16;

/// Places one drawn op into \p P, allocating its regions from \p Next and
/// filling its input bytes.
void place(ProgramCase &P, OpSpec O, uint64_t &Next, std::mt19937_64 &Rng,
           unsigned Variant) {
  // Not r0..r15: those name VAX and 370 registers.
  O.Result = "res" + std::to_string(P.Ops.size());
  auto Alloc = [&](uint64_t Bytes) {
    uint64_t At = Next;
    Next += Bytes + Gap;
    return At;
  };
  switch (O.K) {
  case OpKind::Move:
    O.B = Alloc(O.Len);
    O.A = Alloc(O.Len);
    fillLetters(P.Mem, O.B, O.Len, Rng);
    break;
  case OpKind::Copy: {
    // Variant 0: disjoint; 1: overlapping, destination below the source.
    // A destination above an overlapping source is left out: the VAX and
    // 370 decompositions copy forward only, so it would fail there.
    uint64_t Shift = uniform(Rng, 1, std::max<uint64_t>(1, O.Len / 2));
    uint64_t Base = Alloc(O.Len + (Variant == 0 ? O.Len + Gap : Shift));
    O.A = Base;
    O.B = Variant == 0 ? Base + O.Len + Gap : Base + Shift;
    fillLetters(P.Mem, O.B, O.Len, Rng);
    break;
  }
  case OpKind::Clear:
    O.A = Alloc(O.Len);
    for (uint64_t I = 0; I < O.Len; ++I)
      P.Mem[O.A + I] = 0xEE;
    break;
  case OpKind::Index: {
    // Variant 0: absent; otherwise present, first at a position drawn
    // from stratum Variant-1 of 3.
    O.Ch = static_cast<uint8_t>('a' + Rng() % 26);
    O.A = Alloc(O.Len);
    fillLetters(P.Mem, O.A, O.Len, Rng, O.Ch);
    if (Variant != 0)
      P.Mem[O.A + stratified(Rng, 0, O.Len - 1, Variant - 1, 3)] = O.Ch;
    break;
  }
  case OpKind::Equal: {
    // Variant 0: equal; otherwise one mismatch in stratum Variant-1 of 3.
    O.A = Alloc(O.Len);
    O.B = Alloc(O.Len);
    fillLetters(P.Mem, O.A, O.Len, Rng);
    for (uint64_t I = 0; I < O.Len; ++I)
      P.Mem[O.B + I] = P.Mem[O.A + I];
    if (Variant != 0) {
      uint64_t At = O.B + stratified(Rng, 0, O.Len - 1, Variant - 1, 3);
      P.Mem[At] = static_cast<uint8_t>('a' + (P.Mem[At] - 'a' + 1) % 26);
    }
    break;
  }
  }
  P.Ops.push_back(std::move(O));
}

} // namespace

void perfbench::renderProgram(ProgramCase &P) {
  std::string Facts, Body;
  if (P.NoOverlapAxiom)
    Facts += "assume pascal.no-overlap;\n";
  P.Syms.clear();
  for (size_t I = 0; I < P.Ops.size(); ++I) {
    const OpSpec &O = P.Ops[I];
    std::string Len = lengthName(I);
    switch (O.Form) {
    case LenForm::Literal:
      Len = std::to_string(O.Len);
      break;
    case LenForm::Const:
      Facts += "const " + Len + " = " + std::to_string(O.Len) + ";\n";
      break;
    case LenForm::Range:
      Facts += "range " + Len + " 1 " + std::to_string(O.RangeHi) + ";\n";
      P.Syms[Len] = static_cast<int64_t>(O.Len);
      break;
    case LenForm::Free:
      P.Syms[Len] = static_cast<int64_t>(O.Len);
      break;
    }
    Body += opText(O, Len) + "\n";
  }
  P.Text = "! " + P.Name + "\n" + Facts + Body;
}

ProgramCase perfbench::fixedProgram() {
  ProgramCase P;
  P.Name = "fixed";
  P.NoOverlapAxiom = true;
  std::mt19937_64 Rng(1982);
  uint64_t Next = 256;
  auto Op = [](OpKind K, uint64_t Len, LenForm F, int64_t Hi = 0) {
    OpSpec O;
    O.K = K;
    O.Len = Len;
    O.Form = F;
    O.RangeHi = Hi;
    return O;
  };
  place(P, Op(OpKind::Move, 40, LenForm::Const), Next, Rng, 0);
  place(P, Op(OpKind::Index, 40, LenForm::Literal), Next, Rng, 2);
  place(P, Op(OpKind::Index, 12, LenForm::Range, 16), Next, Rng, 0);
  place(P, Op(OpKind::Equal, 40, LenForm::Range, 255), Next, Rng, 0);
  place(P, Op(OpKind::Equal, 24, LenForm::Literal), Next, Rng, 3);
  place(P, Op(OpKind::Copy, 300, LenForm::Literal), Next, Rng, 1);
  place(P, Op(OpKind::Copy, 64, LenForm::Free), Next, Rng, 0);
  place(P, Op(OpKind::Clear, 64, LenForm::Literal), Next, Rng, 0);
  place(P, Op(OpKind::Clear, 20, LenForm::Free), Next, Rng, 0);
  renderProgram(P);
  return P;
}

std::vector<ProgramCase> perfbench::generatePrograms(uint64_t Seed) {
  std::mt19937_64 Rng(Seed * 0x9E3779B97F4A7C15ULL + 0x1982);

  // CopiesPerCell ops per (operator, length class, length form,
  // no-overlap axiom), each drawing its length from its own stratum of
  // the class; the variant (overlap, absence, mismatch stratum) cycles
  // over the ops, so every share is the same for every seed.
  struct Cell {
    OpSpec O;
    unsigned Variant;
  };
  std::vector<Cell> Cells[2]; // Without / with the axiom.
  for (OpKind K : Kinds) {
    unsigned N = 0;
    for (const LengthClass &C : Classes)
      for (LenForm F : Forms)
        for (unsigned Axiom = 0; Axiom < 2; ++Axiom)
          for (unsigned Copy = 0; Copy < CopiesPerCell; ++Copy, ++N) {
            OpSpec O;
            O.K = K;
            O.Form = F;
            O.Len = stratified(Rng, C.Lo, C.Hi, Copy, CopiesPerCell);
            O.RangeHi = RangeCapacity;
            Cells[Axiom].push_back({O, K == OpKind::Copy ? N % 2 : N % 4});
          }
  }

  std::vector<ProgramCase> Out;
  for (unsigned Axiom = 0; Axiom < 2; ++Axiom) {
    std::shuffle(Cells[Axiom].begin(), Cells[Axiom].end(), Rng);
    for (size_t I = 0; I < Cells[Axiom].size(); I += OpsPerProgram) {
      ProgramCase P;
      P.Name = "p" + std::to_string(Out.size());
      P.NoOverlapAxiom = Axiom;
      uint64_t Next = 256;
      for (size_t J = I; J < I + OpsPerProgram && J < Cells[Axiom].size(); ++J)
        place(P, Cells[Axiom][J].O, Next, Rng, Cells[Axiom][J].Variant);
      renderProgram(P);
      Out.push_back(std::move(P));
    }
  }

  // Past 65535 bytes: the VAX movc3 chunked rewrite. The 8086's 16-bit
  // registers cannot address these, so they run on the VAX and 370 only.
  for (OpKind K : {OpKind::Move, OpKind::Copy}) {
    ProgramCase P;
    P.Name = "wide" + std::to_string(Out.size());
    P.NoOverlapAxiom = true;
    P.Wide = true;
    uint64_t Next = 256;
    OpSpec O;
    O.K = K;
    O.Len = uniform(Rng, 65536, 66559);
    place(P, O, Next, Rng, 0);
    renderProgram(P);
    Out.push_back(std::move(P));
  }
  return Out;
}
