//===- SimVax.h - VAX-11 subset simulator -----------------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes the VAX dialect the code generator emits:
///
///   movl/addl/subl R, X      (dst first; X in {reg, imm})
///   incl/decl R,  tstl R     (set Z)
///   cmpl A, B                (sets Z and records A - B)
///   brb/jmp label
///   beql/bneq label          on Z
///   bleq/blss label          on the last cmpl: A <= B, A < B
///   ldb R, (Rm)  /  stb R, (Rm)     byte load/store
///   movc3 len, src, dst             overlap-safe block move
///   movc5 sl, sa, fill, dl, da      move with fill
///   locc ch, len, addr              locate character
///   cmpc3 len, a, b                 compare characters
///
/// String instructions leave results in the dedicated registers the real
/// hardware uses: movc3/movc5 clear r0 and leave r1/r3 one past the
/// strings; locc leaves r0 = bytes remaining (including the located one)
/// and r1 = its address; cmpc3 leaves r0 = bytes remaining including the
/// first unequal pair. Comments start with ';'.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_SIM_SIMVAX_H
#define EXTRA_SIM_SIMVAX_H

#include "sim/SimCommon.h"

namespace extra {
namespace sim {

SimResult runVax(const std::vector<std::string> &Asm,
                 const interp::Memory &InitialMemory = {},
                 const std::map<std::string, int64_t> &InitialRegs = {},
                 uint64_t MaxSteps = 1000000);

} // namespace sim
} // namespace extra

#endif // EXTRA_SIM_SIMVAX_H
