//===- SimVax.cpp - VAX-11 subset simulator ---------------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "sim/SimVax.h"

using namespace extra;
using namespace extra::sim;

namespace {

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
        Res.Regs = R;
        return std::move(Res);
      }
      size_t NextPc = Pc + 1;
      if (!exec(Prog[Pc], Labels, NextPc)) {
        Res.Regs = R;
        return std::move(Res);
      }
      Pc = NextPc;
    }
    Res.Ok = true;
    Res.Regs = R;
    return std::move(Res);
  }

private:
  bool error(const AsmStmt &S, const std::string &Why) {
    Res.Error = Why + " in '" + S.Raw + "'";
    return false;
  }

  bool isIndirect(const std::string &T) const {
    return T.size() > 2 && T.front() == '(' && T.back() == ')';
  }

  bool value(const std::string &T, int64_t &Out) {
    if (T.empty())
      return false;
    if (isdigit(static_cast<unsigned char>(T[0])) || T[0] == '-') {
      Out = strtoll(T.c_str(), nullptr, 10);
      return true;
    }
    Out = R[T];
    return true;
  }

  uint8_t byteAt(int64_t Addr) {
    return Res.Mem.get(static_cast<uint64_t>(Addr));
  }

  bool exec(const AsmStmt &S, const std::map<std::string, size_t> &Labels,
            size_t &NextPc) {
    const std::string &Op = S.Toks[0];

    auto Jump = [&] {
      if (S.Toks.size() != 2)
        return error(S, "unknown instruction '" + Op + "'");
      auto It = Labels.find(S.Toks[1]);
      if (It == Labels.end())
        return error(S, "unknown label '" + S.Toks[1] + "'");
      NextPc = It->second;
      return true;
    };

    if (Op == "brb" || Op == "jmp")
      return Jump();
    if (Op == "beql")
      return Z ? Jump() : true;
    if (Op == "bneq")
      return !Z ? Jump() : true;

    ++Res.MicroOps;
    if (Op == "movl" && S.Toks.size() == 3) {
      int64_t V;
      if (!value(S.Toks[2], V))
        return error(S, "bad operand");
      R[S.Toks[1]] = V;
      return true;
    }
    if ((Op == "addl" || Op == "subl") && S.Toks.size() == 3) {
      int64_t V;
      if (!value(S.Toks[2], V))
        return error(S, "bad operand");
      R[S.Toks[1]] += Op == "addl" ? V : -V;
      return true;
    }
    if ((Op == "incl" || Op == "decl") && S.Toks.size() == 2) {
      R[S.Toks[1]] += Op == "incl" ? 1 : -1;
      Z = R[S.Toks[1]] == 0;
      return true;
    }
    if (Op == "tstl" && S.Toks.size() == 2) {
      Z = R[S.Toks[1]] == 0;
      return true;
    }
    if (Op == "cmpl" && S.Toks.size() == 3) {
      int64_t A, B;
      if (!value(S.Toks[1], A) || !value(S.Toks[2], B))
        return error(S, "bad operand");
      Z = A == B;
      return true;
    }
    if (Op == "ldb" && S.Toks.size() == 3 && isIndirect(S.Toks[2])) {
      std::string Reg = S.Toks[2].substr(1, S.Toks[2].size() - 2);
      R[S.Toks[1]] = byteAt(R[Reg]);
      return true;
    }
    if (Op == "stb" && S.Toks.size() == 3 && isIndirect(S.Toks[2])) {
      std::string Reg = S.Toks[2].substr(1, S.Toks[2].size() - 2);
      Res.Mem[static_cast<uint64_t>(R[Reg])] =
          static_cast<uint8_t>(R[S.Toks[1]] & 0xFF);
      return true;
    }

    if (Op == "movc3" && S.Toks.size() == 4) {
      int64_t Len, Src, Dst;
      if (!value(S.Toks[1], Len) || !value(S.Toks[2], Src) ||
          !value(S.Toks[3], Dst))
        return error(S, "bad operand");
      Len &= 0xFFFF;
      if (Src < Dst && Dst < Src + Len) {
        for (int64_t I = Len; I-- > 0;)
          Res.Mem[static_cast<uint64_t>(Dst + I)] = byteAt(Src + I);
      } else {
        for (int64_t I = 0; I < Len; ++I)
          Res.Mem[static_cast<uint64_t>(Dst + I)] = byteAt(Src + I);
      }
      Res.MicroOps += static_cast<uint64_t>(Len);
      R["r0"] = 0;
      R["r1"] = Src + Len;
      R["r3"] = Dst + Len;
      R["r2"] = R["r4"] = R["r5"] = 0;
      return true;
    }
    if (Op == "movc5" && S.Toks.size() == 6) {
      int64_t Sl, Sa, Fill, Dl, Da;
      if (!value(S.Toks[1], Sl) || !value(S.Toks[2], Sa) ||
          !value(S.Toks[3], Fill) || !value(S.Toks[4], Dl) ||
          !value(S.Toks[5], Da))
        return error(S, "bad operand");
      Sl &= 0xFFFF;
      Dl &= 0xFFFF;
      int64_t Moved = Sl < Dl ? Sl : Dl;
      for (int64_t I = 0; I < Moved; ++I)
        Res.Mem[static_cast<uint64_t>(Da + I)] = byteAt(Sa + I);
      for (int64_t I = Moved; I < Dl; ++I)
        Res.Mem[static_cast<uint64_t>(Da + I)] =
            static_cast<uint8_t>(Fill & 0xFF);
      Res.MicroOps += static_cast<uint64_t>(Dl);
      R["r0"] = Sl > Dl ? Sl - Dl : 0;
      R["r1"] = Sa + Moved;
      R["r2"] = 0;
      R["r3"] = Da + Dl;
      R["r4"] = 0;
      R["r5"] = 0;
      return true;
    }
    if (Op == "locc" && S.Toks.size() == 4) {
      int64_t Ch, Len, Addr;
      if (!value(S.Toks[1], Ch) || !value(S.Toks[2], Len) ||
          !value(S.Toks[3], Addr))
        return error(S, "bad operand");
      Len &= 0xFFFF;
      int64_t I = 0;
      for (; I < Len; ++I) {
        ++Res.MicroOps;
        if (byteAt(Addr + I) == (Ch & 0xFF))
          break;
      }
      if (I < Len) {
        R["r0"] = Len - I;
        R["r1"] = Addr + I;
        Z = false;
      } else {
        R["r0"] = 0;
        R["r1"] = Addr + Len;
        Z = true;
      }
      return true;
    }
    if (Op == "cmpc3" && S.Toks.size() == 4) {
      int64_t Len, A, B;
      if (!value(S.Toks[1], Len) || !value(S.Toks[2], A) ||
          !value(S.Toks[3], B))
        return error(S, "bad operand");
      Len &= 0xFFFF;
      int64_t I = 0;
      for (; I < Len; ++I) {
        ++Res.MicroOps;
        if (byteAt(A + I) != byteAt(B + I))
          break;
      }
      R["r0"] = Len - I;
      R["r1"] = A + I;
      R["r3"] = B + I;
      Z = R["r0"] == 0;
      return true;
    }
    return error(S, "unknown instruction '" + Op + "'");
  }

  std::map<std::string, int64_t> R;
  bool Z = false;
  SimResult Res;
};

} // namespace

SimResult sim::runVax(const std::vector<std::string> &Asm,
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
