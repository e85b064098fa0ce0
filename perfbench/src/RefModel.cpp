//===- RefModel.cpp - Independent byte-level program semantics --*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// The expected outcome of a generated program, computed from the
// generator's own op list over a flat byte array. Nothing here uses the
// front end, the code generator, the simulators or registry::Harness, so
// a registry side and a decomposition side that agree with each other but
// not with the operators' meaning are both caught.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;

RefOutcome perfbench::referenceRun(const ProgramCase &P) {
  uint64_t Top = 0;
  for (const auto &[Addr, V] : P.Mem)
    Top = std::max(Top, Addr + 1);
  for (const OpSpec &O : P.Ops)
    Top = std::max({Top, O.A + O.Len, O.B + O.Len});

  RefOutcome R;
  std::vector<uint8_t> &M = R.Mem;
  M.assign(Top, 0);
  for (const auto &[Addr, V] : P.Mem)
    M[Addr] = V;

  for (const OpSpec &O : P.Ops) {
    switch (O.K) {
    case OpKind::Move: // Pascal/PL/1 assignment: ascending byte copy.
      for (uint64_t I = 0; I < O.Len; ++I)
        M[O.A + I] = M[O.B + I];
      break;
    case OpKind::Copy: // PC2 bcopy: overlap-safe, as if through a buffer.
      if (O.A > O.B)
        for (uint64_t I = O.Len; I-- > 0;)
          M[O.A + I] = M[O.B + I];
      else
        for (uint64_t I = 0; I < O.Len; ++I)
          M[O.A + I] = M[O.B + I];
      break;
    case OpKind::Clear:
      for (uint64_t I = 0; I < O.Len; ++I)
        M[O.A + I] = 0;
      break;
    case OpKind::Index: { // 1-based first occurrence, 0 when absent.
      int64_t Pos = 0;
      for (uint64_t I = 0; I < O.Len; ++I)
        if (M[O.A + I] == O.Ch) {
          Pos = static_cast<int64_t>(I) + 1;
          break;
        }
      R.Results[O.Result] = Pos;
      break;
    }
    case OpKind::Equal: {
      int64_t Eq = 1;
      for (uint64_t I = 0; I < O.Len; ++I)
        if (M[O.A + I] != M[O.B + I]) {
          Eq = 0;
          break;
        }
      R.Results[O.Result] = Eq;
      break;
    }
    }
  }
  for (uint64_t Addr = 0; Addr < M.size(); ++Addr)
    if (M[Addr])
      R.NonZero.push_back(Addr);
  return R;
}

std::string
perfbench::compareToReference(const RefOutcome &Ref,
                              const extra::interp::Memory &Final,
                              const std::map<std::string, int64_t> &Regs) {
  char Buf[128];
  auto Expected = [&](uint64_t Addr) -> uint8_t {
    return Addr < Ref.Mem.size() ? Ref.Mem[Addr] : 0;
  };
  auto Missing = [&](uint64_t Addr) {
    std::snprintf(Buf, sizeof(Buf), "memory[%llu] = 0x00, expected 0x%02x",
                  static_cast<unsigned long long>(Addr), Ref.Mem[Addr]);
    return std::string(Buf);
  };
  // One ordered walk over both: every byte the run holds must be the
  // expected one, and every expected nonzero byte must be held.
  auto NZ = Ref.NonZero.begin();
  for (const auto &[Addr, V] : Final) {
    if (V != Expected(Addr)) {
      std::snprintf(Buf, sizeof(Buf), "memory[%llu] = 0x%02x, expected 0x%02x",
                    static_cast<unsigned long long>(Addr), V, Expected(Addr));
      return Buf;
    }
    if (NZ != Ref.NonZero.end() && *NZ < Addr)
      return Missing(*NZ);
    if (NZ != Ref.NonZero.end() && *NZ == Addr)
      ++NZ;
  }
  if (NZ != Ref.NonZero.end())
    return Missing(*NZ);
  for (const auto &[Sym, V] : Ref.Results) {
    auto It = Regs.find(Sym);
    int64_t Got = It == Regs.end() ? 0 : It->second;
    if (Got != V)
      return "result '" + Sym + "' = " + std::to_string(Got) + ", expected " +
             std::to_string(V);
  }
  return std::string();
}
