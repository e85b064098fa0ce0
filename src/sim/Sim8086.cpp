//===- Sim8086.cpp - Intel 8086 subset simulator ----------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "sim/Sim8086.h"

#include <set>

using namespace extra;
using namespace extra::sim;

namespace {

const std::set<std::string> Regs16 = {"ax", "bx", "cx", "dx",
                                      "si", "di", "bp", "sp"};
const std::set<std::string> Regs8 = {"al", "ah", "bl", "bh",
                                     "cl", "ch", "dl", "dh"};

int64_t mask(const std::string &Reg, int64_t V) {
  if (Regs16.count(Reg))
    return V & 0xFFFF;
  if (Regs8.count(Reg))
    return V & 0xFF;
  return V;
}

/// \p V read as a signed number at \p Reg's width.
int64_t signedAt(const std::string &Reg, int64_t V) {
  if (Regs16.count(Reg))
    return static_cast<int16_t>(V);
  if (Regs8.count(Reg))
    return static_cast<int8_t>(V);
  return V;
}

std::string memReg(const std::string &T) {
  return Core::indirect(T, '[', ']');
}

int64_t readOperand(Core &C, const std::string &T) {
  std::string At = memReg(T);
  return At.empty() ? C.value(T) : C.byteAt(C.reg(At));
}

void writeOperand(Core &C, const std::string &T, int64_t V) {
  std::string At = memReg(T);
  if (At.empty())
    C.reg(T) = mask(T, V);
  else
    C.setByte(C.reg(At), V);
}

/// Steps si or di one byte in the direction flag's direction.
void advance(Core &C, const std::string &Reg) {
  int64_t &V = C.reg(Reg);
  V = (V + (C.Df ? -1 : 1)) & 0xFFFF;
}

void scasb(Core &C) {
  C.Cc = (C.reg("al") & 0xFF) - C.byteAt(C.reg("di"));
  advance(C, "di");
}
void movsb(Core &C) {
  C.setByte(C.reg("di"), C.byteAt(C.reg("si")));
  advance(C, "si");
  advance(C, "di");
}
void cmpsb(Core &C) {
  C.Cc = C.byteAt(C.reg("si")) - C.byteAt(C.reg("di"));
  advance(C, "si");
  advance(C, "di");
}
void stosb(Core &C) {
  C.setByte(C.reg("di"), C.reg("al"));
  advance(C, "di");
}
void lodsb(Core &C) {
  C.reg("al") = C.byteAt(C.reg("si"));
  advance(C, "si");
}

using StepFn = void (*)(Core &);

/// The string instruction \p Op names; null when it names none.
StepFn stringOp(const std::string &Op) {
  return Op == "scasb"   ? scasb
         : Op == "movsb" ? movsb
         : Op == "cmpsb" ? cmpsb
         : Op == "stosb" ? stosb
         : Op == "lodsb" ? lodsb
                         : nullptr;
}

bool exec(Core &C, const AsmStmt &S) {
  const std::string &Op = S.Toks[0];

  // Repeat-prefixed string instructions. The repeated mnemonic is
  // resolved before cx is tested, so a line that names no string
  // instruction fails with cx untouched, whatever cx holds.
  if ((Op == "rep" || Op == "repe" || Op == "repne") && S.Toks.size() == 2) {
    StepFn Step = stringOp(S.Toks[1]);
    if (!Step)
      return C.fail(S, "unknown string instruction");
    for (int64_t &Cx = C.reg("cx"); (Cx & 0xFFFF) != 0;) {
      Cx = (Cx - 1) & 0xFFFF;
      Step(C);
      ++C.Res.MicroOps;
      if (Op == "repne" && C.Cc == 0)
        break; // found
      if (Op == "repe" && C.Cc != 0)
        break; // mismatch
    }
    return true;
  }

  if (Op == "cld" || Op == "std") {
    C.Df = Op == "std";
    ++C.Res.MicroOps;
    return true;
  }
  if (StepFn Step = stringOp(Op)) {
    Step(C);
    ++C.Res.MicroOps;
    return true;
  }

  if (Op == "inc" || Op == "dec") {
    if (S.Toks.size() != 2 || !memReg(S.Toks[1]).empty())
      return C.fail(S, "inc/dec needs one register");
    int64_t &V = C.reg(S.Toks[1]);
    V = mask(S.Toks[1], V + (Op == "inc" ? 1 : -1));
    C.Cc = signedAt(S.Toks[1], V); // dec cx from 0 leaves -1
    ++C.Res.MicroOps;
    return true;
  }

  if (S.Toks.size() != 3)
    return C.fail(S, "unknown instruction");
  const std::string &A = S.Toks[1];
  int64_t VB = readOperand(C, S.Toks[2]);
  ++C.Res.MicroOps;

  if (Op == "mov") {
    writeOperand(C, A, VB);
    return true;
  }
  int64_t VA = readOperand(C, A);
  if (Op == "add") {
    writeOperand(C, A, VA + VB);
    return true;
  }
  if (Op == "sub") {
    writeOperand(C, A, VA - VB);
    return true;
  }
  if (Op == "cmp") {
    C.Cc = VA - VB;
    return true;
  }
  return C.fail(S, "unknown instruction '" + Op + "'");
}

const Branch Branches[] = {
    {"jmp", Cond::Always}, {"jz", Cond::Eq},  {"jnz", Cond::Ne},
    {"jl", Cond::Lt},      {"jle", Cond::Le}, {"jg", Cond::Gt},
    {"jge", Cond::Ge}};

} // namespace

SimResult sim::run8086(const std::vector<std::string> &Asm,
                       const interp::Memory &InitialMemory,
                       const std::map<std::string, int64_t> &InitialRegs,
                       uint64_t MaxSteps) {
  return simulate(Asm, InitialMemory, InitialRegs, MaxSteps, Branches, exec);
}
