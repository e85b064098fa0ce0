//===- Sim370.cpp - IBM System/370 subset simulator -------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "sim/Sim370.h"

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

    if (Op == "j")
      return Jump();
    if (Op == "je")
      return Cc == 0 ? Jump() : true;
    if (Op == "jne")
      return Cc != 0 ? Jump() : true;
    if (Op == "jl")
      return Cc < 0 ? Jump() : true;
    if (Op == "jg")
      return Cc > 0 ? Jump() : true;

    ++Res.MicroOps;
    if ((Op == "la" || Op == "lr") && S.Toks.size() == 3) {
      int64_t V;
      if (!value(S.Toks[2], V))
        return error(S, "bad operand");
      R[S.Toks[1]] = V & 0xFFFFFF; // 24-bit addressing
      return true;
    }
    if ((Op == "ar" || Op == "sr") && S.Toks.size() == 3) {
      int64_t V;
      if (!value(S.Toks[2], V))
        return error(S, "bad operand");
      R[S.Toks[1]] += Op == "ar" ? V : -V;
      return true;
    }
    if (Op == "ahi" && S.Toks.size() == 3) {
      int64_t V;
      if (!value(S.Toks[2], V))
        return error(S, "bad operand");
      R[S.Toks[1]] += V;
      return true;
    }
    if (Op == "chi" && S.Toks.size() == 3) {
      int64_t V;
      if (!value(S.Toks[2], V))
        return error(S, "bad operand");
      Cc = R[S.Toks[1]] - V;
      return true;
    }
    if (Op == "cr" && S.Toks.size() == 3) {
      Cc = R[S.Toks[1]] - R[S.Toks[2]];
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
    if (Op == "mvc" && S.Toks.size() == 4 && isIndirect(S.Toks[1]) &&
        isIndirect(S.Toks[2])) {
      std::string Rd = S.Toks[1].substr(1, S.Toks[1].size() - 2);
      std::string Rs = S.Toks[2].substr(1, S.Toks[2].size() - 2);
      int64_t L;
      if (!value(S.Toks[3], L))
        return error(S, "bad length");
      if (L < 0 || L > 255)
        return error(S, "mvc length field must fit in 8 bits");
      int64_t D = R[Rd], Sa = R[Rs];
      // The 370 moves byte by byte, low to high (no overlap guard).
      for (int64_t I = 0; I <= L; ++I) {
        Res.Mem[static_cast<uint64_t>(D + I)] = byteAt(Sa + I);
        ++Res.MicroOps;
      }
      return true;
    }
    return error(S, "unknown instruction '" + Op + "'");
  }

  std::map<std::string, int64_t> R;
  int64_t Cc = 0;
  SimResult Res;
};

} // namespace

SimResult sim::run370(const std::vector<std::string> &Asm,
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
