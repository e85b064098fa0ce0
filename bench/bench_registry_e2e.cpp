//===- bench_registry_e2e.cpp - Registry bindings, end to end ---*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// The deployable-registry path, measured end to end: a binding registry
// is built from the recorded derivation corpus, its entries are compiled
// into live instruction bindings on each bare target, and the shared
// demo program is executed both ways — registry bindings vs.
// decomposition-only — on the matching simulator.
//
// The table shows, per machine, the §1 cost deltas the registry's exotic
// emissions buy (instruction dispatches, byte operations, code size) and
// asserts the two translations are state-identical. The benchmark
// entries time the three pipeline stages: building the registry,
// compiling its bindings onto a target, and the full differential run.
//
//===----------------------------------------------------------------------===//

#include "registry/Harness.h"
#include "registry/RegistryBuilder.h"

#include "BenchSupport.h"

#include <benchmark/benchmark.h>
#include <cstdio>

using namespace extra;
using namespace extra::registry;

namespace {

void printE2ETable() {
  const Registry &Reg = recordedCorpus();
  std::printf("==== registry bindings vs. decomposition: demo program, "
              "executed ====\n\n");
  std::printf("  registry: %zu entries from the recorded corpus\n\n",
              Reg.size());
  std::printf("  %-8s %-5s | %-20s %-20s | %-9s | %-6s | %s\n", "target",
              "bnds", "registry disp/byte/sz", "baseline disp/byte/sz",
              "ratio", "exotic", "state");
  std::printf("  ---------------------------------------------------------"
              "--------------------------\n");
  for (MachineKind MK : allMachines()) {
    DifferentialReport R =
        runDifferential(MK, Reg, demoProgram(), demoMemory());
    if (!R.WithRegistry.Ok || !R.Baseline.Ok) {
      std::printf("  %-8s simulation failed: %s\n", machineName(MK),
                  (R.WithRegistry.Ok ? R.Baseline.Error
                                     : R.WithRegistry.Error)
                      .c_str());
      continue;
    }
    std::printf("  %-8s %-5u | %6llu /%5llu /%4u | %6llu /%5llu /%4u | "
                "%8.4f | %2u / %u | %s\n",
                machineName(MK), R.BindingsLoaded,
                static_cast<unsigned long long>(R.WithRegistry.Instructions),
                static_cast<unsigned long long>(R.WithRegistry.MicroOps),
                R.WithRegistry.CodeSize,
                static_cast<unsigned long long>(R.Baseline.Instructions),
                static_cast<unsigned long long>(R.Baseline.MicroOps),
                R.Baseline.CodeSize,
                static_cast<double>(R.WithRegistry.Instructions) /
                    static_cast<double>(R.Baseline.Instructions),
                R.WithRegistry.Exotic, R.WithRegistry.Decomposed,
                R.StatesMatch ? "identical" : "DIVERGED");
  }
  std::printf("\n  shape check: every machine ends state-identical with "
              "strictly fewer\n  dispatches; the 370's single mvc binding "
              "covers one of the four ops, so its\n  ratio is the most "
              "modest.\n\n");
}

void BM_RegistryBuildRecorded(benchmark::State &State) {
  uint64_t Entries = 0;
  for (auto _ : State) {
    RegistryBuilder B;
    auto Added = B.addRecordedCases();
    Entries = Added ? *Added : 0;
    benchmark::DoNotOptimize(B.registry());
  }
  State.counters["entries"] = static_cast<double>(Entries);
}
BENCHMARK(BM_RegistryBuildRecorded)->Unit(benchmark::kMillisecond);

void BM_BindingCompile(benchmark::State &State,
                       MachineKind MK) {
  const Registry &Reg = recordedCorpus();
  uint64_t Loaded = 0;
  for (auto _ : State) {
    std::unique_ptr<codegen::Target> T =
        MK == MachineKind::I8086  ? codegen::makeI8086Target()
        : MK == MachineKind::Vax  ? codegen::makeVaxTarget()
                                  : codegen::makeIbm370Target();
    Loaded = loadRegistryBindings(Reg, machineName(MK), *T);
    benchmark::DoNotOptimize(T);
  }
  State.counters["bindings"] = static_cast<double>(Loaded);
}
BENCHMARK_CAPTURE(BM_BindingCompile, i8086, MachineKind::I8086);
BENCHMARK_CAPTURE(BM_BindingCompile, vax, MachineKind::Vax);
BENCHMARK_CAPTURE(BM_BindingCompile, ibm370, MachineKind::Ibm370);

void BM_DifferentialE2E(benchmark::State &State, MachineKind MK) {
  const Registry &Reg = recordedCorpus();
  codegen::Program P = demoProgram();
  interp::Memory M = demoMemory();
  DifferentialReport Last;
  for (auto _ : State) {
    Last = runDifferential(MK, Reg, P, M);
    benchmark::DoNotOptimize(Last);
  }
  State.counters["registry_dispatches"] =
      static_cast<double>(Last.WithRegistry.Instructions);
  State.counters["baseline_dispatches"] =
      static_cast<double>(Last.Baseline.Instructions);
  State.counters["registry_code_size"] =
      static_cast<double>(Last.WithRegistry.CodeSize);
  State.counters["baseline_code_size"] =
      static_cast<double>(Last.Baseline.CodeSize);
  State.counters["exotic_ops"] = static_cast<double>(Last.WithRegistry.Exotic);
  State.counters["state_identical"] = Last.StatesMatch ? 1.0 : 0.0;
  State.counters["passes"] = Last.passes() ? 1.0 : 0.0;
}
BENCHMARK_CAPTURE(BM_DifferentialE2E, i8086, MachineKind::I8086)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DifferentialE2E, vax, MachineKind::Vax)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DifferentialE2E, ibm370, MachineKind::Ibm370)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printE2ETable();
  return extra_bench::runBenchmarks(argc, argv);
}
