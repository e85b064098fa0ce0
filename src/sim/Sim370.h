//===- Sim370.h - IBM System/370 subset simulator ---------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes the simplified 370 dialect the code generator emits (a
/// register-style pseudo-assembly standing in for base+displacement
/// coding, which the descriptions also elide — §3):
///
///   la R, imm|reg     load address/immediate
///   lr R, R2          copy register
///   ar/sr R, R2       add/subtract register
///   ahi R, imm        add halfword immediate
///   ldb R, (Rm) / stb R, (Rm)
///   chi R, imm / cr R, R2      compare (condition code)
///   j label                    always
///   je/jne/jl/jle/jg label     on the last compare
///   mvc (Rd), (Rs), L          move L+1 bytes (the §4.2 encoding)
///
/// Comments start with ';'.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_SIM_SIM370_H
#define EXTRA_SIM_SIM370_H

#include "sim/SimCommon.h"

namespace extra {
namespace sim {

SimResult run370(const std::vector<std::string> &Asm,
                 const interp::Memory &InitialMemory = {},
                 const std::map<std::string, int64_t> &InitialRegs = {},
                 uint64_t MaxSteps = 1000000);

} // namespace sim
} // namespace extra

#endif // EXTRA_SIM_SIM370_H
