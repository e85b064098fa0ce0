//===- SimVax.cpp - VAX-11 subset simulator ---------------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "sim/SimVax.h"

using namespace extra;
using namespace extra::sim;

namespace {

bool exec(Core &C, const AsmStmt &S) {
  const std::string &Op = S.Toks[0];
  const size_t N = S.Toks.size();
  auto Value = [&](size_t I) { return C.value(S.Toks[I]); };

  ++C.Res.MicroOps;
  if (Op == "movl" && N == 3) {
    C.reg(S.Toks[1]) = Value(2);
    return true;
  }
  if ((Op == "addl" || Op == "subl") && N == 3) {
    int64_t V = Value(2);
    C.reg(S.Toks[1]) += Op == "addl" ? V : -V;
    return true;
  }
  if ((Op == "incl" || Op == "decl") && N == 2) {
    int64_t &V = C.reg(S.Toks[1]);
    V += Op == "incl" ? 1 : -1;
    C.Cc = V;
    return true;
  }
  if (Op == "tstl" && N == 2) {
    C.Cc = C.reg(S.Toks[1]);
    return true;
  }
  if (Op == "cmpl" && N == 3) {
    int64_t A = Value(1);
    C.Cc = A - Value(2);
    return true;
  }
  if (C.loadStoreByte(S))
    return true;

  if (Op == "movc3" && N == 4) {
    int64_t Len = Value(1) & 0xFFFF, Src = Value(2), Dst = Value(3);
    if (Src < Dst && Dst < Src + Len) {
      for (int64_t I = Len; I-- > 0;)
        C.setByte(Dst + I, C.byteAt(Src + I));
    } else {
      for (int64_t I = 0; I < Len; ++I)
        C.setByte(Dst + I, C.byteAt(Src + I));
    }
    C.Res.MicroOps += static_cast<uint64_t>(Len);
    C.reg("r0") = 0;
    C.reg("r1") = Src + Len;
    C.reg("r3") = Dst + Len;
    C.reg("r2") = C.reg("r4") = C.reg("r5") = 0;
    return true;
  }
  if (Op == "movc5" && N == 6) {
    int64_t Sl = Value(1) & 0xFFFF, Sa = Value(2), Fill = Value(3),
            Dl = Value(4) & 0xFFFF, Da = Value(5);
    int64_t Moved = Sl < Dl ? Sl : Dl;
    for (int64_t I = 0; I < Moved; ++I)
      C.setByte(Da + I, C.byteAt(Sa + I));
    for (int64_t I = Moved; I < Dl; ++I)
      C.setByte(Da + I, Fill);
    C.Res.MicroOps += static_cast<uint64_t>(Dl);
    C.reg("r0") = Sl > Dl ? Sl - Dl : 0;
    C.reg("r1") = Sa + Moved;
    C.reg("r3") = Da + Dl;
    C.reg("r2") = C.reg("r4") = C.reg("r5") = 0;
    return true;
  }
  if (Op == "locc" && N == 4) {
    int64_t Ch = Value(1), Len = Value(2) & 0xFFFF, Addr = Value(3);
    int64_t I = 0;
    for (; I < Len; ++I) {
      ++C.Res.MicroOps;
      if (C.byteAt(Addr + I) == (Ch & 0xFF))
        break;
    }
    C.reg("r0") = Len - I;
    C.reg("r1") = Addr + I;
    C.Cc = Len - I;
    return true;
  }
  if (Op == "cmpc3" && N == 4) {
    int64_t Len = Value(1) & 0xFFFF, A = Value(2), B = Value(3);
    int64_t I = 0;
    for (; I < Len; ++I) {
      ++C.Res.MicroOps;
      if (C.byteAt(A + I) != C.byteAt(B + I))
        break;
    }
    C.reg("r0") = Len - I;
    C.reg("r1") = A + I;
    C.reg("r3") = B + I;
    // The first unequal pair's difference; 0 for equal strings.
    C.Cc = I == Len ? 0 : C.byteAt(A + I) - C.byteAt(B + I);
    return true;
  }
  return C.fail(S, "unknown instruction '" + Op + "'");
}

const Branch Branches[] = {
    {"brb", Cond::Always}, {"jmp", Cond::Always}, {"beql", Cond::Eq},
    {"bneq", Cond::Ne},    {"bleq", Cond::Le},    {"blss", Cond::Lt}};

} // namespace

SimResult sim::runVax(const std::vector<std::string> &Asm,
                      const interp::Memory &InitialMemory,
                      const std::map<std::string, int64_t> &InitialRegs,
                      uint64_t MaxSteps) {
  return simulate(Asm, InitialMemory, InitialRegs, MaxSteps, Branches, exec);
}
