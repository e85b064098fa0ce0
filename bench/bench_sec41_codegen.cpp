//===- bench_sec41_codegen.cpp - The §4.1 generated listing -----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// §4.1 closes with the hand-translated 8086 code for the augmented scasb
// bound to the index operator. This binary prints the paper's listing,
// the listing our code generator emits from the binding it lowers from
// the recorded scasb derivation, and runs
// the generated code on the 8086 simulator against the reference
// interpretation of the Rigel index description.
//
// Benchmarks: code generation and simulated execution.
//
//===----------------------------------------------------------------------===//

#include "descriptions/Descriptions.h"
#include "interp/Interp.h"
#include "registry/Harness.h"
#include "sim/Sim8086.h"

#include "BenchSupport.h"

#include <benchmark/benchmark.h>
#include <cstdio>

using namespace extra;
using namespace extra::codegen;

namespace {

const char *PaperListing = R"(  ; operands already loaded:
  ;   di...string address   cx...string length   al...character sought
  mov bx,di     ; save initial address
  mov si,0      ; clear si to use in resetting zf
  cmp si,1      ; reset zero flag zf
  cld           ; reset direction flag df
  rep           ; set rf and reset rfz
  scasb         ; search string
  jz l1         ; jump if not found
  sub di,bx     ; compute index of char if found
  jmp l2
l1: mov di,0    ; return zero if not found
l2:             ; final result stored in di
)";

CodeGenResult generateIndex() {
  auto T = registry::corpusTarget(registry::MachineKind::I8086);
  Program P;
  P.Ops.push_back(strIndex("result", Value::symbol("string"),
                           Value::symbol("length"), Value::symbol("char")));
  return T->generate(P);
}

void printListings() {
  std::printf("==== §4.1: the paper's hand translation ====\n%s\n",
              PaperListing);
  CodeGenResult R = generateIndex();
  std::printf("==== our generated code (same binding, same augments) "
              "====\n");
  for (const std::string &L : R.Asm)
    std::printf("%s\n", L.c_str());
  std::printf("\n(deviations: the repeat prefix is spelled `repne` — rf=1 "
              "with rfz=0 — and the\n not-found branch is `jnz`; the "
              "paper's `jz` comment contradicts its own zf sense.)\n\n");

  // Cross-validate: generated 8086 code vs the reference interpretation
  // of the Rigel description, over every position and a missing char.
  auto Index = descriptions::load("rigel.index");
  interp::Memory M;
  interp::storeBytes(M, 100, "validate me");
  bool AllAgree = true;
  for (int Ch : {'v', 'a', 'e', ' ', 'm', 'q'}) {
    auto Ref = interp::run(*Index, {100, 11, Ch}, M);
    sim::SimResult S = sim::run8086(
        R.Asm, M, {{"string", 100}, {"length", 11}, {"char", Ch}});
    bool Agree = Ref.Ok && S.Ok && Ref.Outputs.size() == 1 &&
                 Ref.Outputs[0] == S.reg("result");
    std::printf("index(\"validate me\", '%c'): description=%lld  "
                "generated-code=%lld  %s\n",
                Ch, Ref.Ok ? static_cast<long long>(Ref.Outputs[0]) : -1,
                static_cast<long long>(S.reg("result")),
                Agree ? "agree" : "DISAGREE");
    AllAgree = AllAgree && Agree;
  }
  std::printf("%s\n\n", AllAgree ? "all cases agree."
                                 : "DIVERGENCE DETECTED.");
}

void BM_GenerateIndex(benchmark::State &State) {
  auto T = registry::corpusTarget(registry::MachineKind::I8086);
  Program P;
  P.Ops.push_back(strIndex("result", Value::symbol("string"),
                           Value::symbol("length"), Value::symbol("char")));
  for (auto _ : State)
    benchmark::DoNotOptimize(T->generate(P));
}
BENCHMARK(BM_GenerateIndex);

void BM_SimulateGeneratedIndex(benchmark::State &State) {
  CodeGenResult R = generateIndex();
  interp::Memory M;
  interp::storeBytes(M, 100, "validate me");
  for (auto _ : State)
    benchmark::DoNotOptimize(sim::run8086(
        R.Asm, M, {{"string", 100}, {"length", 11}, {"char", 'q'}}));
}
BENCHMARK(BM_SimulateGeneratedIndex);

void BM_InterpretIndexDescription(benchmark::State &State) {
  auto Index = descriptions::load("rigel.index");
  interp::Memory M;
  interp::storeBytes(M, 100, "validate me");
  for (auto _ : State)
    benchmark::DoNotOptimize(interp::run(*Index, {100, 11, 'q'}, M));
}
BENCHMARK(BM_InterpretIndexDescription);

} // namespace

int main(int argc, char **argv) {
  printListings();
  return extra_bench::runBenchmarks(argc, argv);
}
