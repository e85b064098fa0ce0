//===- I8086Target.cpp - Intel 8086 back end --------------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 8086 decomposition rules. The target is created without bindings:
/// its exotic instructions (scasb, movsb, cmpsb, stosb) come from the
/// binding registry, which lowers each recorded or discovered derivation
/// onto it (registry::corpusTarget). The scasb binding lowered from the
/// recorded scasb derivations reproduces the paper's §4.1
/// hand-translated listing.
///
//===----------------------------------------------------------------------===//

#include "codegen/Target.h"

using namespace extra;
using namespace extra::codegen;

namespace {

class I8086Target : public Target {
public:
  I8086Target() : Target("Intel 8086", 0xFFFF) {}

  void decompose(const HLOp &O, CodeGenContext &Ctx) const override {
    switch (O.K) {
    case OpKind::StrIndex: {
      Ctx.load("si", O.Args[0]);
      Ctx.load("cx", O.Args[1]);
      Ctx.load("al", O.Args[2]);
      Ctx.emit("  mov bx, si");
      std::string Top = Ctx.freshLabel("top");
      std::string NotFound = Ctx.freshLabel("nf");
      std::string Done = Ctx.freshLabel("done");
      Ctx.emit(Top + ":");
      Ctx.emit("  cmp cx, 0");
      Ctx.emit("  jz " + NotFound);
      Ctx.emit("  dec cx");
      Ctx.emit("  mov dl, [si]");
      Ctx.emit("  inc si");
      Ctx.emit("  cmp dl, al");
      Ctx.emit("  jnz " + Top);
      Ctx.emit("  mov di, si");
      Ctx.emit("  sub di, bx");
      Ctx.emit("  jmp " + Done);
      Ctx.emit(NotFound + ":");
      Ctx.emit("  mov di, 0");
      Ctx.emit(Done + ":");
      Ctx.emit("  mov " + O.Result + ", di");
      break;
    }
    case OpKind::StrMove: {
      Ctx.load("si", O.Args[1]);
      Ctx.load("di", O.Args[0]);
      Ctx.load("cx", O.Args[2]);
      std::string Top = Ctx.freshLabel("top");
      std::string Done = Ctx.freshLabel("done");
      Ctx.emit(Top + ":");
      Ctx.emit("  cmp cx, 0");
      Ctx.emit("  jz " + Done);
      Ctx.emit("  dec cx");
      Ctx.emit("  mov dl, [si]");
      Ctx.emit("  inc si");
      Ctx.emit("  mov [di], dl");
      Ctx.emit("  inc di");
      Ctx.emit("  jmp " + Top);
      Ctx.emit(Done + ":");
      break;
    }
    case OpKind::StrEqual: {
      Ctx.load("si", O.Args[0]);
      Ctx.load("di", O.Args[1]);
      Ctx.load("cx", O.Args[2]);
      std::string Top = Ctx.freshLabel("top");
      std::string Ne = Ctx.freshLabel("ne");
      std::string Done = Ctx.freshLabel("done");
      Ctx.emit(Top + ":");
      Ctx.emit("  cmp cx, 0");
      Ctx.emit("  jz " + Done + "_eq");
      Ctx.emit("  dec cx");
      Ctx.emit("  mov dl, [si]");
      Ctx.emit("  inc si");
      Ctx.emit("  mov dh, [di]");
      Ctx.emit("  inc di");
      // The compare must come after both increments: inc sets zf and
      // would clobber the comparison result.
      Ctx.emit("  cmp dl, dh");
      Ctx.emit("  jnz " + Ne);
      Ctx.emit("  jmp " + Top);
      Ctx.emit(Done + "_eq:");
      Ctx.emit("  mov " + O.Result + ", 1");
      Ctx.emit("  jmp " + Done);
      Ctx.emit(Ne + ":");
      Ctx.emit("  mov " + O.Result + ", 0");
      Ctx.emit(Done + ":");
      break;
    }
    case OpKind::BlockCopy: {
      // Overlap-safe: choose copy direction at run time.
      Ctx.load("si", O.Args[1]);
      Ctx.load("di", O.Args[0]);
      Ctx.load("cx", O.Args[2]);
      std::string Back = Ctx.freshLabel("back");
      std::string FwdTop = Ctx.freshLabel("ftop");
      std::string BackTop = Ctx.freshLabel("btop");
      std::string Done = Ctx.freshLabel("done");
      Ctx.emit("  mov dx, si");
      Ctx.emit("  add dx, cx        ; src + len");
      Ctx.emit("  cmp di, si");
      Ctx.emit("  jle " + FwdTop);
      Ctx.emit("  cmp di, dx");
      Ctx.emit("  jl " + Back);
      Ctx.emit(FwdTop + ":");
      Ctx.emit("  cmp cx, 0");
      Ctx.emit("  jz " + Done);
      Ctx.emit("  dec cx");
      Ctx.emit("  mov dl, [si]");
      Ctx.emit("  inc si");
      Ctx.emit("  mov [di], dl");
      Ctx.emit("  inc di");
      Ctx.emit("  jmp " + FwdTop);
      Ctx.emit(Back + ":");
      Ctx.emit("  add si, cx");
      Ctx.emit("  add di, cx");
      Ctx.emit(BackTop + ":");
      Ctx.emit("  cmp cx, 0");
      Ctx.emit("  jz " + Done);
      Ctx.emit("  dec cx");
      Ctx.emit("  dec si");
      Ctx.emit("  dec di");
      Ctx.emit("  mov dl, [si]");
      Ctx.emit("  mov [di], dl");
      Ctx.emit("  jmp " + BackTop);
      Ctx.emit(Done + ":");
      break;
    }
    case OpKind::BlockClear: {
      Ctx.load("di", O.Args[0]);
      Ctx.load("cx", O.Args[1]);
      std::string Top = Ctx.freshLabel("top");
      std::string Done = Ctx.freshLabel("done");
      Ctx.emit("  mov dl, 0");
      Ctx.emit(Top + ":");
      Ctx.emit("  cmp cx, 0");
      Ctx.emit("  jz " + Done);
      Ctx.emit("  dec cx");
      Ctx.emit("  mov [di], dl");
      Ctx.emit("  inc di");
      Ctx.emit("  jmp " + Top);
      Ctx.emit(Done + ":");
      break;
    }
    }
  }
};

} // namespace

std::unique_ptr<Target> codegen::makeI8086Target() {
  return std::make_unique<I8086Target>();
}
