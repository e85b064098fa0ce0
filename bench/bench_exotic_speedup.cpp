//===- bench_exotic_speedup.cpp - The §1 motivation, measured ---*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// §1: "Exotic instructions are useful because they can often perform
// operations in less time and space than an equivalent sequence of
// primitive actions." The paper asserts this without a table; this
// harness measures it on the simulators: for each operator, target, and
// string length, the exotic implementation vs. the decomposition — in
// instruction dispatches (the cost exotic instructions amortize), byte
// micro-operations (equal by construction, shown as a sanity column),
// and code size.
//
// Expected shape: dispatch advantage grows linearly with string length
// (a rep-prefixed scasb is one dispatch; the byte loop pays ~5 per
// character), and exotic code is a constant factor smaller.
//
// Exits 1 when a row's simulation fails.
//
//===----------------------------------------------------------------------===//

#include "registry/Harness.h"
#include "sim/Sim370.h"
#include "sim/Sim8086.h"
#include "sim/SimVax.h"

#include <cstdio>
#include <functional>

using namespace extra;
using namespace extra::codegen;

namespace {

using Runner = std::function<sim::SimResult(const std::vector<std::string> &,
                                            const interp::Memory &)>;

struct Measurement {
  uint64_t Dispatches = 0;
  uint64_t MicroOps = 0;
  unsigned CodeSize = 0;
  bool Ok = false;
};

Measurement measure(const std::vector<std::string> &Asm, const Runner &Run,
                    const interp::Memory &M) {
  Measurement Out;
  sim::SimResult S = Run(Asm, M);
  Out.Ok = S.Ok;
  Out.Dispatches = S.Instructions;
  Out.MicroOps = S.MicroOps;
  Out.CodeSize = sim::codeSize(Asm, ';');
  return Out;
}

HLOp opFor(OpKind K, int64_t Len) {
  switch (K) {
  case OpKind::StrIndex:
    // Worst case: the character is absent, the whole string is scanned.
    return strIndex("r", Value::literal(100), Value::literal(Len),
                    Value::literal('#'));
  case OpKind::StrMove:
    return strMove(Value::literal(4000), Value::literal(100),
                   Value::literal(Len));
  case OpKind::StrEqual:
    return strEqual("r", Value::literal(100), Value::literal(4000),
                    Value::literal(Len));
  case OpKind::BlockClear:
    return blockClear(Value::literal(4000), Value::literal(Len));
  case OpKind::BlockCopy:
    return blockCopy(Value::literal(4000), Value::literal(100),
                     Value::literal(Len));
  }
  return blockClear(Value::literal(0), Value::literal(0));
}

/// Prints the grid; true when every row's simulations succeeded.
bool printSpeedupTable() {
  std::printf("==== exotic vs. decomposed: simulated cost (character "
              "absent / full scan) ====\n\n");
  std::printf("  %-8s %-10s %-5s | %-18s %-18s | %-13s | %s\n", "target",
              "operator", "len", "exotic disp/size",
              "decomposed disp/size", "dispatch gain", "byte ops e/d");
  std::printf("  "
              "-----------------------------------------------------------"
              "--------------------------------------\n");

  struct TargetInfo {
    std::unique_ptr<Target> T;
    Runner Run;
  };
  TargetInfo Targets[3] = {
      {registry::corpusTarget(registry::MachineKind::I8086),
       [](const std::vector<std::string> &A, const interp::Memory &M) {
         return sim::run8086(A, M, {}, 10000000);
       }},
      {registry::corpusTarget(registry::MachineKind::Vax),
       [](const std::vector<std::string> &A, const interp::Memory &M) {
         return sim::runVax(A, M, {}, 10000000);
       }},
      {registry::corpusTarget(registry::MachineKind::Ibm370),
       [](const std::vector<std::string> &A, const interp::Memory &M) {
         return sim::run370(A, M, {}, 10000000);
       }},
  };

  const OpKind Ops[] = {OpKind::StrIndex, OpKind::StrMove,
                        OpKind::StrEqual, OpKind::BlockClear};
  const int64_t Lens[] = {16, 64, 256};
  bool AllRan = true;

  for (TargetInfo &TI : Targets) {
    for (OpKind K : Ops) {
      // Skip operators with no exotic binding on this target (they would
      // compare the decomposition against itself).
      bool HasBinding = false;
      for (const InstructionBinding &B : TI.T->bindings())
        if (B.Op == K)
          HasBinding = true;
      if (!HasBinding)
        continue;
      for (int64_t Len : Lens) {
        interp::Memory M;
        for (int64_t I = 0; I < Len; ++I) {
          // Identical strings at both operand addresses: comparisons take
          // their worst case (full scan), like the absent-character scan.
          M[100 + I] = static_cast<uint8_t>('a' + (I % 26));
          M[4000 + I] = static_cast<uint8_t>('a' + (I % 26));
        }

        Program P;
        P.Ops.push_back(opFor(K, Len));
        P.Facts.Axioms.insert("pascal.no-overlap");
        CodeGenResult Exotic = TI.T->generate(P);
        if (Exotic.ExoticCount == 0)
          continue; // e.g. 370 mvc at len > 256 chunks; still exotic.

        CodeGenContext Ctx;
        TI.T->decompose(P.Ops[0], Ctx);
        std::vector<std::string> Decomposed = Ctx.takeLines();

        Measurement E = measure(Exotic.Asm, TI.Run, M);
        Measurement D = measure(Decomposed, TI.Run, M);
        if (!E.Ok || !D.Ok) {
          std::printf("  %-8s %-10s %-5lld | simulation failed\n",
                      TI.T->name().c_str(), opKindName(K),
                      static_cast<long long>(Len));
          AllRan = false;
          continue;
        }
        std::printf("  %-8s %-10s %-5lld | %6llu / %-9u | %6llu / %-9u | "
                    "%10.1fx | %llu / %llu\n",
                    TI.T->name().c_str(), opKindName(K),
                    static_cast<long long>(Len),
                    static_cast<unsigned long long>(E.Dispatches),
                    E.CodeSize,
                    static_cast<unsigned long long>(D.Dispatches),
                    D.CodeSize,
                    static_cast<double>(D.Dispatches) /
                        static_cast<double>(E.Dispatches),
                    static_cast<unsigned long long>(E.MicroOps),
                    static_cast<unsigned long long>(D.MicroOps));
      }
    }
  }
  std::printf("\n  shape check: the dispatch advantage grows with string "
              "length (the exotic\n  instruction is one dispatch for the "
              "whole string); code size advantage is a\n  constant "
              "factor. Byte micro-operations are comparable either "
              "way.\n\n");
  return AllRan;
}

} // namespace

int main() { return printSpeedupTable() ? 0 : 1; }
