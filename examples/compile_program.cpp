//===- compile_program.cpp - Compile a textual program ----------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// A miniature compiler driver: reads a program in the little string
// language (from a file argument, or a built-in demo), generates code for
// the requested target (its bindings lowered from the recorded
// derivations), prints the instruction selection and the assembly, and
// executes it on the matching simulator.
//
//   ./build/examples/compile_program [i8086|vax|ibm370] [program-file]
//
//===----------------------------------------------------------------------===//

#include "codegen/Frontend.h"
#include "registry/Harness.h"
#include "sim/Sim370.h"
#include "sim/Sim8086.h"
#include "sim/SimVax.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace extra;
using namespace extra::codegen;

namespace {

const char *DemoProgram = R"(
! Pascal-like fragment: s2 := s1; found := index(s2, 'i');
! all strings declared with capacity 16.
range len 0 16;
assume pascal.no-overlap;
const len = 14;
move(300, 100, len);
found := index(300, len, 'i');
same := equal(100, 300, len);
clear(500, 8);
)";

} // namespace

int main(int argc, char **argv) {
  std::string TargetName = argc > 1 ? argv[1] : "i8086";
  std::string Source = DemoProgram;
  if (argc > 2) {
    std::ifstream F(argv[2]);
    if (!F.good()) {
      std::fprintf(stderr, "cannot open '%s'\n", argv[2]);
      return 1;
    }
    std::ostringstream Buf;
    Buf << F.rdbuf();
    Source = Buf.str();
  }

  DiagnosticEngine Diags;
  auto P = parseProgram(Source, Diags);
  if (!P) {
    std::fprintf(stderr, "parse errors:\n%s", Diags.str().c_str());
    return 1;
  }

  auto Machine = registry::machineFromName(TargetName);
  if (!Machine) {
    std::fprintf(stderr, "unknown target '%s' (i8086|vax|ibm370)\n",
                 TargetName.c_str());
    return 1;
  }
  std::unique_ptr<Target> T = registry::corpusTarget(*Machine);
  sim::SimResult (*Run)(const std::vector<std::string> &,
                        const interp::Memory &,
                        const std::map<std::string, int64_t> &, uint64_t) =
      *Machine == registry::MachineKind::I8086 ? sim::run8086
      : *Machine == registry::MachineKind::Vax ? sim::runVax
                                               : sim::run370;

  CodeGenResult Code = T->generate(*P);
  std::printf("; target: %s\n; instruction selection:\n", T->name().c_str());
  for (const SelectionNote &N : Code.Notes)
    std::printf(";   %-10s -> %-18s %s\n", N.Operator.c_str(),
                N.Chosen.c_str(), N.Reason.c_str());
  std::printf("\n");
  for (const std::string &Line : Code.Asm)
    std::printf("%s\n", Line.c_str());

  interp::Memory M;
  interp::storeBytes(M, 100, "reproduction!!"); // 14 bytes, sic
  sim::SimResult S = Run(Code.Asm, M, {}, 1000000);
  if (!S.Ok) {
    std::fprintf(stderr, "\nsimulation failed: %s\n", S.Error.c_str());
    return 1;
  }
  std::printf("\n; simulated: %llu dispatches, %llu byte ops\n",
              static_cast<unsigned long long>(S.Instructions),
              static_cast<unsigned long long>(S.MicroOps));
  std::printf("; results: found=%lld same=%lld moved=\"%s\"\n",
              static_cast<long long>(S.reg("found")),
              static_cast<long long>(S.reg("same")),
              interp::loadBytes(S.Mem, 300, 14).c_str());
  return 0;
}
