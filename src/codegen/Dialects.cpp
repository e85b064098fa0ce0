//===- Dialects.cpp - The built-in machines' dialect rows -------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One const row per built-in machine. The decomposition loops
/// (Target::decompose) and the binding compiler read these rows; nothing
/// else spells a machine's primitives or word width. The exotic
/// instructions — 8086 scasb/movsb/cmpsb/stosb, VAX locc/movc3/cmpc3/
/// movc5, 370 mvc — come from the binding registry, which lowers each
/// recorded or discovered derivation onto a target built from its row
/// (registry::corpusTarget).
///
/// The 370 dialect is a simplified register-to-register pseudo-370
/// (la/lr/ahi/ldb/stb/chi/cr/j*) with `mvc (rD), (rS), L` taking the
/// encoded length.
///
//===----------------------------------------------------------------------===//

#include "codegen/Target.h"

using namespace extra;
using namespace extra::codegen;

namespace {

const std::vector<Dialect> &rows() {
  static const std::vector<Dialect> Rows = {
      {.Name = "Intel 8086", .Machine = "i8086", .WordMax = 0xFFFF,
       .Load = "mov %0, %1", .Move = "mov %0, %1",
       .TestZero = "cmp %0, 0", .BranchZero = "jz %0",
       .Compare = "cmp %0, %1", .BranchNe = "jnz %0",
       .BranchLe = "jle %0", .BranchLt = "jl %0",
       .Inc = "inc %0", .Dec = "dec %0",
       .Add = "add %0, %1", .Sub = "sub %0, %1",
       .LoadByte = "mov %0, [%1]", .StoreByte = "mov [%1], %0",
       .Jump = "jmp %0",
       .IndexLoads = {{"si", 0}, {"cx", 1}, {"al", 2}},
       .MoveLoads = {{"si", 1}, {"di", 0}, {"cx", 2}},
       .EqualLoads = {{"si", 0}, {"di", 1}, {"cx", 2}},
       .ClearLoads = {{"di", 0}, {"cx", 1}},
       .Byte = "dl", .Byte2 = "dh", .Save = "bx", .Index = "di",
       .CopyEnd = "dx"},
      {.Name = "VAX-11", .Machine = "vax", .WordMax = 0xFFFFFFFFLL,
       .Load = "movl %0, %1", .Move = "movl %0, %1",
       .TestZero = "tstl %0", .BranchZero = "beql %0",
       .Compare = "cmpl %0, %1", .BranchNe = "bneq %0",
       .BranchLe = "bleq %0", .BranchLt = "blss %0",
       .Inc = "incl %0", .Dec = "decl %0",
       .Add = "addl %0, %1", .Sub = "subl %0, %1",
       .LoadByte = "ldb %0, (%1)", .StoreByte = "stb %0, (%1)",
       .Jump = "brb %0",
       .IndexLoads = {{"r1", 0}, {"r0", 1}, {"r2", 2}},
       .MoveLoads = {{"r1", 1}, {"r3", 0}, {"r0", 2}},
       .EqualLoads = {{"r1", 0}, {"r3", 1}, {"r0", 2}},
       .ClearLoads = {{"r3", 0}, {"r0", 1}},
       .Byte = "r5", .Byte2 = "r6", .Save = "r4", .Index = "r1",
       // Forward only: wrong for an overlapping copy whose destination
       // lies above its source (ROADMAP item 1). The simulator already
       // runs the bleq and blss that the direction pick needs.
       .CopyEnd = nullptr},
      {.Name = "IBM 370", .Machine = "ibm370", .WordMax = 0xFFFFFF,
       .Load = "la %0, %1", .Move = "lr %0, %1",
       .TestZero = "chi %0, 0", .BranchZero = "je %0",
       .Compare = "cr %0, %1", .BranchNe = "jne %0",
       .BranchLe = "jle %0", .BranchLt = "jl %0",
       .Inc = "ahi %0, 1", .Dec = "ahi %0, -1",
       .Add = "ar %0, %1", .Sub = "sr %0, %1",
       .LoadByte = "ldb %0, (%1)", .StoreByte = "stb %0, (%1)",
       .Jump = "j %0",
       .IndexLoads = {{"r2", 0}, {"r3", 1}, {"r4", 2}},
       .MoveLoads = {{"r1", 0}, {"r2", 1}, {"r3", 2}},
       .EqualLoads = {{"r1", 0}, {"r2", 1}, {"r3", 2}},
       .ClearLoads = {{"r1", 0}, {"r3", 1}},
       .Byte = "r6", .Byte2 = "r7", .Save = "r5", .Index = "r2",
       // Forward only, as on the VAX (ROADMAP item 1). The simulator
       // already runs the jle that the direction pick needs.
       .CopyEnd = nullptr},
  };
  return Rows;
}

} // namespace

const Dialect *codegen::findDialect(std::string_view Machine) {
  for (const Dialect &D : rows())
    if (Machine == D.Machine)
      return &D;
  return nullptr;
}

std::unique_ptr<Target> codegen::makeI8086Target() {
  return std::make_unique<Target>(*findDialect("i8086"));
}

std::unique_ptr<Target> codegen::makeVaxTarget() {
  return std::make_unique<Target>(*findDialect("vax"));
}

std::unique_ptr<Target> codegen::makeIbm370Target() {
  return std::make_unique<Target>(*findDialect("ibm370"));
}
