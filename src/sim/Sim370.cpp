//===- Sim370.cpp - IBM System/370 subset simulator -------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "sim/Sim370.h"

using namespace extra;
using namespace extra::sim;

namespace {

bool exec(Core &C, const AsmStmt &S) {
  const std::string &Op = S.Toks[0];
  const size_t N = S.Toks.size();

  ++C.Res.MicroOps;
  if ((Op == "la" || Op == "lr") && N == 3) {
    C.reg(S.Toks[1]) = C.value(S.Toks[2]) & 0xFFFFFF; // 24-bit addressing
    return true;
  }
  if ((Op == "ar" || Op == "ahi" || Op == "sr") && N == 3) {
    int64_t V = C.value(S.Toks[2]);
    C.reg(S.Toks[1]) += Op == "sr" ? -V : V;
    return true;
  }
  if (Op == "chi" && N == 3) {
    int64_t V = C.value(S.Toks[2]);
    C.Cc = C.reg(S.Toks[1]) - V;
    return true;
  }
  if (Op == "cr" && N == 3) {
    C.Cc = C.reg(S.Toks[1]) - C.reg(S.Toks[2]);
    return true;
  }
  if (C.loadStoreByte(S))
    return true;
  std::string Rd, Rs;
  if (Op == "mvc" && N == 4 &&
      !(Rd = Core::indirect(S.Toks[1], '(', ')')).empty() &&
      !(Rs = Core::indirect(S.Toks[2], '(', ')')).empty()) {
    int64_t L = C.value(S.Toks[3]);
    if (L < 0 || L > 255)
      return C.fail(S, "mvc length field must fit in 8 bits");
    int64_t D = C.reg(Rd), Sa = C.reg(Rs);
    // The 370 moves byte by byte, low to high (no overlap guard).
    for (int64_t I = 0; I <= L; ++I) {
      C.setByte(D + I, C.byteAt(Sa + I));
      ++C.Res.MicroOps;
    }
    return true;
  }
  return C.fail(S, "unknown instruction '" + Op + "'");
}

const Branch Branches[] = {{"j", Cond::Always}, {"je", Cond::Eq},
                           {"jne", Cond::Ne},   {"jl", Cond::Lt},
                           {"jle", Cond::Le},   {"jg", Cond::Gt}};

} // namespace

SimResult sim::run370(const std::vector<std::string> &Asm,
                      const interp::Memory &InitialMemory,
                      const std::map<std::string, int64_t> &InitialRegs,
                      uint64_t MaxSteps) {
  return simulate(Asm, InitialMemory, InitialRegs, MaxSteps, Branches, exec);
}
