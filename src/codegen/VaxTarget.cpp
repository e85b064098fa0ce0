//===- VaxTarget.cpp - VAX-11 back end --------------------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VAX-11 decomposition rules. The target is created without
/// bindings: locc, movc3 (BlockCopy, and StrMove under the Pascal
/// no-overlap axiom, §4.3), cmpc3 and movc5 come from the binding
/// registry (registry::corpusTarget).
///
/// The dialect: string instructions take explicit operands and leave
/// their results in the architecturally dedicated registers (r0 = 0 or
/// remaining count, r1/r3 = final addresses), which the §6
/// register-preference optimization exploits across cascaded uses.
///
//===----------------------------------------------------------------------===//

#include "codegen/Target.h"

using namespace extra;
using namespace extra::codegen;

namespace {

class VaxTarget : public Target {
public:
  VaxTarget() : Target("VAX-11", 0xFFFFFFFFLL) {}

  void decompose(const HLOp &O, CodeGenContext &Ctx) const override {
    std::string Top = Ctx.freshLabel("top");
    std::string Done = Ctx.freshLabel("done");
    switch (O.K) {
    case OpKind::StrIndex: {
      Ctx.load("r1", O.Args[0], "movl");
      Ctx.load("r0", O.Args[1], "movl");
      Ctx.load("r2", O.Args[2], "movl");
      std::string NotFound = Ctx.freshLabel("nf");
      Ctx.emit("  movl r4, r1");
      Ctx.emit(Top + ":");
      Ctx.emit("  tstl r0");
      Ctx.emit("  beql " + NotFound);
      Ctx.emit("  decl r0");
      Ctx.emit("  ldb r5, (r1)");
      Ctx.emit("  incl r1");
      Ctx.emit("  cmpl r5, r2");
      Ctx.emit("  bneq " + Top);
      Ctx.emit("  subl r1, r4");
      Ctx.emit("  brb " + Done);
      Ctx.emit(NotFound + ":");
      Ctx.emit("  movl r1, 0");
      Ctx.emit(Done + ":");
      Ctx.emit("  movl " + O.Result + ", r1");
      break;
    }
    case OpKind::StrMove:
    case OpKind::BlockCopy: {
      // Primitive forward loop; for BlockCopy a real compiler would also
      // emit the backward variant — the exotic binding covers it here.
      Ctx.load("r1", O.Args[1], "movl");
      Ctx.load("r3", O.Args[0], "movl");
      Ctx.load("r0", O.Args[2], "movl");
      Ctx.emit(Top + ":");
      Ctx.emit("  tstl r0");
      Ctx.emit("  beql " + Done);
      Ctx.emit("  decl r0");
      Ctx.emit("  ldb r5, (r1)");
      Ctx.emit("  incl r1");
      Ctx.emit("  stb r5, (r3)");
      Ctx.emit("  incl r3");
      Ctx.emit("  brb " + Top);
      Ctx.emit(Done + ":");
      break;
    }
    case OpKind::StrEqual: {
      Ctx.load("r1", O.Args[0], "movl");
      Ctx.load("r3", O.Args[1], "movl");
      Ctx.load("r0", O.Args[2], "movl");
      std::string Ne = Ctx.freshLabel("ne");
      Ctx.emit(Top + ":");
      Ctx.emit("  tstl r0");
      Ctx.emit("  beql " + Done + "_eq");
      Ctx.emit("  decl r0");
      Ctx.emit("  ldb r5, (r1)");
      Ctx.emit("  incl r1");
      Ctx.emit("  ldb r6, (r3)");
      Ctx.emit("  incl r3");
      Ctx.emit("  cmpl r5, r6");
      Ctx.emit("  bneq " + Ne);
      Ctx.emit("  brb " + Top);
      Ctx.emit(Done + "_eq:");
      Ctx.emit("  movl " + O.Result + ", 1");
      Ctx.emit("  brb " + Done);
      Ctx.emit(Ne + ":");
      Ctx.emit("  movl " + O.Result + ", 0");
      Ctx.emit(Done + ":");
      break;
    }
    case OpKind::BlockClear: {
      Ctx.load("r3", O.Args[0], "movl");
      Ctx.load("r0", O.Args[1], "movl");
      Ctx.emit("  movl r5, 0");
      Ctx.emit(Top + ":");
      Ctx.emit("  tstl r0");
      Ctx.emit("  beql " + Done);
      Ctx.emit("  decl r0");
      Ctx.emit("  stb r5, (r3)");
      Ctx.emit("  incl r3");
      Ctx.emit("  brb " + Top);
      Ctx.emit(Done + ":");
      break;
    }
    }
  }
};

} // namespace

std::unique_ptr<Target> codegen::makeVaxTarget() {
  return std::make_unique<VaxTarget>();
}
