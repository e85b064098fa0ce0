//===- retarget_compiler.cpp - One program, three machines ------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// The §6 story: a compiler front end hands the same high-level internal
// form to three different back ends. Each target consults its binding
// table, satisfies (or fails) the constraints, and emits exotic
// instructions or primitive loops. The generated code is then executed
// on the matching simulator and checked for identical observable
// results.
//
// The bindings come from a *registry*: the deployable artifact the
// discovery pipeline exports. Pass a registry file to compile with
// discovered bindings, or run with no arguments to use the recorded
// corpus, built in-process:
//
//   ./build/examples/retarget_compiler [registry.jsonl]
//
// The targets start with no bindings — every exotic emission below was
// compiled from a registry entry, not wired in by hand.
//
//===----------------------------------------------------------------------===//

#include "codegen/Target.h"
#include "registry/BindingCompiler.h"
#include "registry/RegistryBuilder.h"
#include "sim/Sim370.h"
#include "sim/Sim8086.h"
#include "sim/SimVax.h"

#include <cstdio>

using namespace extra;
using namespace extra::codegen;

int main(int argc, char **argv) {
  // Load the binding registry: from the file on the command line, or by
  // replaying the built-in recorded derivations when none is given.
  registry::Registry Reg;
  if (argc > 1) {
    auto Loaded = registry::Registry::load(argv[1]);
    if (!Loaded) {
      std::printf("cannot load registry %s: %s\n", argv[1],
                  Loaded.fault().Message.c_str());
      return 1;
    }
    Reg = std::move(*Loaded);
    std::printf("registry: %zu entries from %s\n\n", Reg.size(), argv[1]);
  } else {
    Reg = registry::recordedCorpus();
    std::printf("registry: %zu entries from the recorded corpus\n\n",
                Reg.size());
  }

  // The front end compiled something like:
  //   var buf: array of char;  s: string[16];
  //   buf := s;  i := index(buf, 'r');  eq := (buf = s);  clear(scratch);
  Program P;
  P.Ops.push_back(strMove(Value::literal(300), Value::literal(100),
                          Value::literal(16)));
  P.Ops.push_back(strIndex("i", Value::literal(300), Value::literal(16),
                           Value::literal('r')));
  P.Ops.push_back(strEqual("eq", Value::literal(100), Value::literal(300),
                           Value::literal(16)));
  P.Ops.push_back(blockClear(Value::literal(400), Value::literal(8)));
  // Pascal guarantees the move operands cannot overlap, and the strings
  // are declared with 16-byte capacity.
  P.Facts.Axioms.insert("pascal.no-overlap");

  interp::Memory M;
  interp::storeBytes(M, 100, "characteristic!!");
  for (int I = 0; I < 8; ++I)
    M[400 + I] = 0xEE;

  struct TargetRun {
    const char *Machine; ///< Registry machine id (RegistryEntry::Machine).
    std::unique_ptr<Target> T;
    sim::SimResult (*Run)(const std::vector<std::string> &,
                          const interp::Memory &,
                          const std::map<std::string, int64_t> &, uint64_t);
  };
  TargetRun Runs[] = {
      {"i8086", makeI8086Target(), sim::run8086},
      {"vax", makeVaxTarget(), sim::runVax},
      {"ibm370", makeIbm370Target(), sim::run370},
  };

  bool AllOk = true;
  for (TargetRun &TR : Runs) {
    // Compile the registry's bindings onto the bare target.
    std::vector<registry::CompileNote> Notes;
    unsigned Loaded =
        registry::loadRegistryBindings(Reg, TR.Machine, *TR.T, &Notes);
    CodeGenResult Code = TR.T->generate(P);
    std::printf("======== %s ========\n", TR.T->name().c_str());
    std::printf("%u bindings compiled from the registry\n", Loaded);
    std::printf("instruction selection:\n");
    for (const SelectionNote &N : Code.Notes)
      std::printf("  op %zu %-10s -> %-18s %s\n", N.OpIndex,
                  N.Operator.c_str(), N.Chosen.c_str(), N.Reason.c_str());
    std::printf("\n");
    for (const std::string &Line : Code.Asm)
      std::printf("%s\n", Line.c_str());

    sim::SimResult S = TR.Run(Code.Asm, M, {}, 1000000);
    if (!S.Ok) {
      std::printf("\nsimulation FAILED: %s\n\n", S.Error.c_str());
      AllOk = false;
      continue;
    }
    std::string Moved = interp::loadBytes(S.Mem, 300, 16);
    std::string Cleared = interp::loadBytes(S.Mem, 400, 8);
    bool Good = Moved == "characteristic!!" && S.reg("i") == 4 &&
                S.reg("eq") == 1 && Cleared == std::string(8, '\0');
    std::printf("\nsimulated results: moved=\"%s\" index=%lld eq=%lld "
                "cleared=%s   [%s]\n",
                Moved.c_str(), static_cast<long long>(S.reg("i")),
                static_cast<long long>(S.reg("eq")),
                Cleared == std::string(8, '\0') ? "yes" : "NO",
                Good ? "correct" : "WRONG");
    std::printf("cost: %llu instruction dispatches, %llu byte operations, "
                "%u instructions of code\n\n",
                static_cast<unsigned long long>(S.Instructions),
                static_cast<unsigned long long>(S.MicroOps),
                sim::codeSize(Code.Asm, ';'));
    AllOk = AllOk && Good;
  }
  return AllOk ? 0 : 1;
}
