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

class Machine {
public:
  Machine(const interp::Memory &Mem, const std::map<std::string, int64_t> &Rs)
      : R(Rs) {
    Res.Mem = Mem;
  }

  SimResult run(const std::vector<AsmStmt> &Prog,
                const std::map<std::string, size_t> &Labels,
                uint64_t MaxSteps) {
    size_t Pc = 0;
    while (Pc < Prog.size()) {
      if (++Res.Instructions > MaxSteps) {
        Res.Error = "step limit exceeded";
        break;
      }
      size_t NextPc = Pc + 1;
      if (!exec(Prog[Pc], Labels, NextPc))
        break;
      Pc = NextPc;
    }
    // The one exit: a failed run reports the registers at the failing
    // statement, like the VAX and 370 simulators.
    Res.Ok = Res.Error.empty();
    Res.Regs = R;
    return std::move(Res);
  }

private:
  bool error(const AsmStmt &S, const std::string &Why) {
    Res.Error = Why + " in '" + S.Raw + "'";
    return false;
  }

  int64_t mask(const std::string &Reg, int64_t V) const {
    if (Regs16.count(Reg))
      return V & 0xFFFF;
    if (Regs8.count(Reg))
      return V & 0xFF;
    return V;
  }

  bool isMem(const std::string &T) const {
    return T.size() > 2 && T.front() == '[' && T.back() == ']';
  }

  bool readOperand(const std::string &T, int64_t &Out) {
    if (isMem(T)) {
      std::string Reg = T.substr(1, T.size() - 2);
      Out = Res.Mem.get(static_cast<uint64_t>(R[Reg]));
      return true;
    }
    if (T.empty())
      return false;
    if (isdigit(static_cast<unsigned char>(T[0])) || T[0] == '-') {
      Out = strtoll(T.c_str(), nullptr, 10);
      return true;
    }
    Out = R[T];
    return true;
  }

  void writeOperand(const std::string &T, int64_t V) {
    if (isMem(T)) {
      std::string Reg = T.substr(1, T.size() - 2);
      Res.Mem[static_cast<uint64_t>(R[Reg])] = static_cast<uint8_t>(V & 0xFF);
      return;
    }
    R[T] = mask(T, V);
  }

  uint8_t byteAt(int64_t Addr) {
    return Res.Mem.get(static_cast<uint64_t>(Addr));
  }

  int dir() const { return Df ? -1 : 1; }

  void scasb() {
    Zf = (R["al"] & 0xFF) == byteAt(R["di"]);
    R["di"] = mask("di", R["di"] + dir());
    ++Res.MicroOps;
  }
  void movsb() {
    Res.Mem[static_cast<uint64_t>(R["di"])] = byteAt(R["si"]);
    R["si"] = mask("si", R["si"] + dir());
    R["di"] = mask("di", R["di"] + dir());
    ++Res.MicroOps;
  }
  void cmpsb() {
    Zf = byteAt(R["si"]) == byteAt(R["di"]);
    R["si"] = mask("si", R["si"] + dir());
    R["di"] = mask("di", R["di"] + dir());
    ++Res.MicroOps;
  }
  void stosb() {
    Res.Mem[static_cast<uint64_t>(R["di"])] =
        static_cast<uint8_t>(R["al"] & 0xFF);
    R["di"] = mask("di", R["di"] + dir());
    ++Res.MicroOps;
  }
  void lodsb() {
    R["al"] = byteAt(R["si"]);
    R["si"] = mask("si", R["si"] + dir());
    ++Res.MicroOps;
  }

  bool exec(const AsmStmt &S, const std::map<std::string, size_t> &Labels,
            size_t &NextPc) {
    const std::string &Op = S.Toks[0];

    // Repeat-prefixed string instructions. The repeated mnemonic is
    // resolved before cx is tested, so a line that names no string
    // instruction fails with cx untouched, whatever cx holds.
    if ((Op == "rep" || Op == "repe" || Op == "repne") && S.Toks.size() == 2) {
      const std::string &Str = S.Toks[1];
      void (Machine::*Step)() = Str == "scasb"   ? &Machine::scasb
                                : Str == "movsb" ? &Machine::movsb
                                : Str == "cmpsb" ? &Machine::cmpsb
                                : Str == "stosb" ? &Machine::stosb
                                : Str == "lodsb" ? &Machine::lodsb
                                                 : nullptr;
      if (!Step)
        return error(S, "unknown string instruction");
      while ((R["cx"] & 0xFFFF) != 0) {
        R["cx"] = mask("cx", R["cx"] - 1);
        (this->*Step)();
        if (Op == "repne" && Zf)
          break; // found
        if (Op == "repe" && !Zf)
          break; // mismatch
      }
      return true;
    }

    auto Jump = [&] {
      if (S.Toks.size() != 2)
        return error(S, "unknown instruction '" + Op + "'");
      auto It = Labels.find(S.Toks[1]);
      if (It == Labels.end())
        return error(S, "unknown label '" + S.Toks[1] + "'");
      NextPc = It->second;
      return true;
    };

    if (Op == "jmp")
      return Jump();
    if (Op == "jz")
      return !Zf ? true : Jump();
    if (Op == "jnz")
      return Zf ? true : Jump();
    if (Op == "jl")
      return LastCmp < 0 ? Jump() : true;
    if (Op == "jle")
      return LastCmp <= 0 ? Jump() : true;
    if (Op == "jg")
      return LastCmp > 0 ? Jump() : true;
    if (Op == "jge")
      return LastCmp >= 0 ? Jump() : true;

    if (Op == "cld") {
      Df = false;
      ++Res.MicroOps;
      return true;
    }
    if (Op == "std") {
      Df = true;
      ++Res.MicroOps;
      return true;
    }
    if (Op == "scasb") {
      scasb();
      return true;
    }
    if (Op == "movsb") {
      movsb();
      return true;
    }
    if (Op == "cmpsb") {
      cmpsb();
      return true;
    }
    if (Op == "stosb") {
      stosb();
      return true;
    }
    if (Op == "lodsb") {
      lodsb();
      return true;
    }

    if (Op == "inc" || Op == "dec") {
      if (S.Toks.size() != 2 || isMem(S.Toks[1]))
        return error(S, "inc/dec needs one register");
      int64_t V = R[S.Toks[1]] + (Op == "inc" ? 1 : -1);
      R[S.Toks[1]] = mask(S.Toks[1], V);
      Zf = R[S.Toks[1]] == 0;
      ++Res.MicroOps;
      return true;
    }

    if (S.Toks.size() != 3)
      return error(S, "unknown instruction");
    const std::string &A = S.Toks[1];
    const std::string &B = S.Toks[2];
    int64_t VB = 0;
    if (!readOperand(B, VB))
      return error(S, "bad operand");
    ++Res.MicroOps;

    if (Op == "mov") {
      writeOperand(A, VB);
      return true;
    }
    int64_t VA = 0;
    if (!readOperand(A, VA))
      return error(S, "bad operand");
    if (Op == "add") {
      writeOperand(A, VA + VB);
      return true;
    }
    if (Op == "sub") {
      writeOperand(A, VA - VB);
      return true;
    }
    if (Op == "cmp") {
      LastCmp = VA - VB;
      Zf = LastCmp == 0;
      return true;
    }
    return error(S, "unknown instruction '" + Op + "'");
  }

  std::map<std::string, int64_t> R;
  bool Zf = false;
  bool Df = false;
  int64_t LastCmp = 0;
  SimResult Res;
};

} // namespace

SimResult sim::run8086(const std::vector<std::string> &Asm,
                       const interp::Memory &InitialMemory,
                       const std::map<std::string, int64_t> &InitialRegs,
                       uint64_t MaxSteps) {
  std::vector<AsmStmt> Prog;
  std::map<std::string, size_t> Labels;
  SimResult Bad;
  if (!assemble(Asm, ';', Prog, Labels, Bad.Error))
    return Bad;
  Machine M(InitialMemory, InitialRegs);
  return M.run(Prog, Labels, MaxSteps);
}
