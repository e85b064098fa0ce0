//===- Harness.cpp - Differential execution of registry bindings *- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "registry/Harness.h"

#include "registry/RegistryBuilder.h"
#include "sim/Sim370.h"
#include "sim/Sim8086.h"
#include "sim/SimVax.h"

#include <cstdio>
#include <set>
#include <sstream>

using namespace extra;
using namespace extra::registry;
using codegen::CodeGenResult;
using codegen::Program;
using codegen::Target;
using codegen::Value;

const char *registry::machineName(MachineKind MK) {
  switch (MK) {
  case MachineKind::I8086:
    return "i8086";
  case MachineKind::Vax:
    return "vax";
  case MachineKind::Ibm370:
    return "ibm370";
  }
  return "?";
}

std::optional<MachineKind> registry::machineFromName(const std::string &Name) {
  if (Name == "i8086")
    return MachineKind::I8086;
  if (Name == "vax")
    return MachineKind::Vax;
  if (Name == "ibm370")
    return MachineKind::Ibm370;
  return std::nullopt;
}

std::vector<MachineKind> registry::allMachines() {
  return {MachineKind::I8086, MachineKind::Vax, MachineKind::Ibm370};
}

Program registry::demoProgram() {
  // The front end compiled something like:
  //   var buf: array of char;  s: string[16];
  //   buf := s;  i := index(buf, 'r');  eq := (buf = s);  clear(scratch);
  Program P;
  P.Ops.push_back(codegen::strMove(Value::literal(300), Value::literal(100),
                                   Value::literal(16)));
  P.Ops.push_back(codegen::strIndex("i", Value::literal(300),
                                    Value::literal(16), Value::literal('r')));
  P.Ops.push_back(codegen::strEqual("eq", Value::literal(100),
                                    Value::literal(300), Value::literal(16)));
  P.Ops.push_back(codegen::blockClear(Value::literal(400), Value::literal(8)));
  P.Facts.Axioms.insert("pascal.no-overlap");
  return P;
}

interp::Memory registry::demoMemory() {
  interp::Memory M;
  interp::storeBytes(M, 100, "characteristic!!");
  for (int I = 0; I < 8; ++I)
    M[400 + I] = 0xEE;
  return M;
}

namespace {

std::unique_ptr<Target> bareTarget(MachineKind MK) {
  switch (MK) {
  case MachineKind::I8086:
    return codegen::makeI8086Target();
  case MachineKind::Vax:
    return codegen::makeVaxTarget();
  case MachineKind::Ibm370:
    return codegen::makeIbm370Target();
  }
  return nullptr;
}

sim::SimResult runOn(MachineKind MK, const std::vector<std::string> &Asm,
                     const interp::Memory &Mem) {
  switch (MK) {
  case MachineKind::I8086:
    return sim::run8086(Asm, Mem);
  case MachineKind::Vax:
    return sim::runVax(Asm, Mem);
  case MachineKind::Ibm370:
    return sim::run370(Asm, Mem);
  }
  return {};
}

SideReport compileAndRun(MachineKind MK, Target &T, const Program &P,
                         const interp::Memory &Mem) {
  SideReport Side;
  CodeGenResult Code = T.generate(P);
  Side.Asm = codegen::peephole(Code.Asm);
  Side.Exotic = Code.ExoticCount;
  Side.Decomposed = Code.DecomposedCount;
  Side.CodeSize = sim::codeSize(Side.Asm, ';');
  sim::SimResult S = runOn(MK, Side.Asm, Mem);
  Side.Ok = S.Ok;
  Side.Error = S.Error;
  Side.Instructions = S.Instructions;
  Side.MicroOps = S.MicroOps;
  Side.Mem = std::move(S.Mem);
  Side.Regs = std::move(S.Regs);
  return Side;
}

int64_t regOr0(const std::map<std::string, int64_t> &Regs,
               const std::string &Name) {
  auto It = Regs.find(Name);
  return It == Regs.end() ? 0 : It->second;
}

/// First observed state difference, or empty. Memory is compared over
/// the union of touched addresses (absent = 0); registers only over the
/// program's result symbols.
std::string compareStates(const Program &P, const SideReport &A,
                          const SideReport &B) {
  std::set<uint64_t> Addrs;
  for (const auto &[Addr, V] : A.Mem)
    Addrs.insert(Addr);
  for (const auto &[Addr, V] : B.Mem)
    Addrs.insert(Addr);
  for (uint64_t Addr : Addrs) {
    uint8_t AV = A.Mem.get(Addr), BV = B.Mem.get(Addr);
    if (AV != BV) {
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf),
                    "memory[%llu]: registry=0x%02x baseline=0x%02x",
                    static_cast<unsigned long long>(Addr), AV, BV);
      return Buf;
    }
  }
  for (const codegen::HLOp &O : P.Ops) {
    if (O.Result.empty())
      continue;
    int64_t AV = regOr0(A.Regs, O.Result);
    int64_t BV = regOr0(B.Regs, O.Result);
    if (AV != BV)
      return "result '" + O.Result + "': registry=" + std::to_string(AV) +
             " baseline=" + std::to_string(BV);
  }
  return std::string();
}

} // namespace

std::unique_ptr<Target> registry::corpusTarget(MachineKind MK) {
  std::unique_ptr<Target> T = bareTarget(MK);
  loadRegistryBindings(recordedCorpus(), machineName(MK), *T);
  return T;
}

DifferentialReport registry::runDifferential(MachineKind MK, const Registry &R,
                                             const codegen::Program &P,
                                             const interp::Memory &Mem,
                                             std::vector<CompileNote> *Notes) {
  DifferentialReport Rep;
  Rep.Machine = MK;

  std::unique_ptr<Target> WithReg = bareTarget(MK);
  Rep.BindingsLoaded =
      loadRegistryBindings(R, machineName(MK), *WithReg, Notes);
  Rep.WithRegistry = compileAndRun(MK, *WithReg, P, Mem);

  Rep.Baseline = compileAndRun(MK, *bareTarget(MK), P, Mem);

  if (Rep.WithRegistry.Ok && Rep.Baseline.Ok) {
    Rep.Divergence = compareStates(P, Rep.WithRegistry, Rep.Baseline);
    Rep.StatesMatch = Rep.Divergence.empty();
  } else {
    Rep.Divergence = !Rep.WithRegistry.Ok
                         ? "registry side failed: " + Rep.WithRegistry.Error
                         : "baseline side failed: " + Rep.Baseline.Error;
  }
  return Rep;
}

std::string registry::formatReport(const DifferentialReport &R) {
  std::ostringstream Out;
  Out << "== " << machineName(R.Machine) << " (" << R.BindingsLoaded
      << " registry bindings) ==\n";
  auto Side = [&](const char *Tag, const SideReport &S) {
    Out << "  " << Tag << ": ";
    if (!S.Ok) {
      Out << "FAILED: " << S.Error << "\n";
      return;
    }
    Out << S.Instructions << " dispatches, " << S.MicroOps
        << " byte ops, " << S.CodeSize << " lines ("
        << S.Exotic << " exotic, " << S.Decomposed << " decomposed)\n";
  };
  Side("registry  ", R.WithRegistry);
  Side("decomposed", R.Baseline);
  if (R.WithRegistry.Ok && R.Baseline.Ok) {
    Out << "  states: "
        << (R.StatesMatch ? "identical" : "DIVERGED: " + R.Divergence)
        << "\n";
    if (R.StatesMatch && R.Baseline.Instructions)
      Out << "  dispatch ratio: "
          << static_cast<double>(R.WithRegistry.Instructions) /
                 static_cast<double>(R.Baseline.Instructions)
          << "x\n";
  } else {
    Out << "  " << R.Divergence << "\n";
  }
  return Out.str();
}
