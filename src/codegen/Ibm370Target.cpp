//===- Ibm370Target.cpp - IBM System/370 back end ---------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 370 decomposition rules. The target is created without bindings:
/// its one exotic instruction, mvc (Table 2's largest derivation), comes
/// from the binding registry (registry::corpusTarget), which derives both
/// §4.2 artifacts from the recorded constraint set — the coding
/// constraint (length field = count - 1) and the 256-byte range that the
/// §6 rewriting rule chunks a longer literal move into.
///
/// The dialect is a simplified register-to-register pseudo-370 (la/ahi/
/// ldb/stb/chi/j*) with `mvc (rD), (rS), L` taking the encoded length.
///
//===----------------------------------------------------------------------===//

#include "codegen/Target.h"

using namespace extra;
using namespace extra::codegen;

namespace {

class Ibm370Target : public Target {
public:
  Ibm370Target() : Target("IBM 370", 0xFFFFFF) {}

  void decompose(const HLOp &O, CodeGenContext &Ctx) const override {
    std::string Top = Ctx.freshLabel("top");
    std::string Done = Ctx.freshLabel("done");
    switch (O.K) {
    case OpKind::StrIndex: {
      std::string NotFound = Ctx.freshLabel("nf");
      Ctx.load("r2", O.Args[0], "la");
      Ctx.load("r3", O.Args[1], "la");
      Ctx.load("r4", O.Args[2], "la");
      Ctx.emit("  lr r5, r2");
      Ctx.emit(Top + ":");
      Ctx.emit("  chi r3, 0");
      Ctx.emit("  je " + NotFound);
      Ctx.emit("  ahi r3, -1");
      Ctx.emit("  ldb r6, (r2)");
      Ctx.emit("  ahi r2, 1");
      Ctx.emit("  cr r6, r4");
      Ctx.emit("  jne " + Top);
      Ctx.emit("  sr r2, r5");
      Ctx.emit("  j " + Done);
      Ctx.emit(NotFound + ":");
      Ctx.emit("  la r2, 0");
      Ctx.emit(Done + ":");
      Ctx.emit("  lr " + O.Result + ", r2");
      break;
    }
    case OpKind::StrMove:
    case OpKind::BlockCopy: {
      Ctx.load("r1", O.Args[0], "la");
      Ctx.load("r2", O.Args[1], "la");
      Ctx.load("r3", O.Args[2], "la");
      Ctx.emit(Top + ":");
      Ctx.emit("  chi r3, 0");
      Ctx.emit("  je " + Done);
      Ctx.emit("  ahi r3, -1");
      Ctx.emit("  ldb r6, (r2)");
      Ctx.emit("  ahi r2, 1");
      Ctx.emit("  stb r6, (r1)");
      Ctx.emit("  ahi r1, 1");
      Ctx.emit("  j " + Top);
      Ctx.emit(Done + ":");
      break;
    }
    case OpKind::StrEqual: {
      std::string Ne = Ctx.freshLabel("ne");
      Ctx.load("r1", O.Args[0], "la");
      Ctx.load("r2", O.Args[1], "la");
      Ctx.load("r3", O.Args[2], "la");
      Ctx.emit(Top + ":");
      Ctx.emit("  chi r3, 0");
      Ctx.emit("  je " + Done + "_eq");
      Ctx.emit("  ahi r3, -1");
      Ctx.emit("  ldb r6, (r1)");
      Ctx.emit("  ahi r1, 1");
      Ctx.emit("  ldb r7, (r2)");
      Ctx.emit("  ahi r2, 1");
      Ctx.emit("  cr r6, r7");
      Ctx.emit("  jne " + Ne);
      Ctx.emit("  j " + Top);
      Ctx.emit(Done + "_eq:");
      Ctx.emit("  la " + O.Result + ", 1");
      Ctx.emit("  j " + Done);
      Ctx.emit(Ne + ":");
      Ctx.emit("  la " + O.Result + ", 0");
      Ctx.emit(Done + ":");
      break;
    }
    case OpKind::BlockClear: {
      Ctx.load("r1", O.Args[0], "la");
      Ctx.load("r3", O.Args[1], "la");
      Ctx.emit("  la r6, 0");
      Ctx.emit(Top + ":");
      Ctx.emit("  chi r3, 0");
      Ctx.emit("  je " + Done);
      Ctx.emit("  ahi r3, -1");
      Ctx.emit("  stb r6, (r1)");
      Ctx.emit("  ahi r1, 1");
      Ctx.emit("  j " + Top);
      Ctx.emit(Done + ":");
      break;
    }
    }
  }
};

} // namespace

std::unique_ptr<Target> codegen::makeIbm370Target() {
  return std::make_unique<Ibm370Target>();
}
