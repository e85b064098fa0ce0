//===- Target.cpp - Retargetable code generation core -----------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "codegen/Target.h"

#include "support/StringUtil.h"

#include <array>

using namespace extra;
using namespace extra::codegen;
using constraint::CompileTimeFacts;
using constraint::Constraint;
using constraint::ConstraintKind;
using constraint::SatResult;

const char *codegen::opKindName(OpKind K) {
  switch (K) {
  case OpKind::StrIndex:
    return "StrIndex";
  case OpKind::StrMove:
    return "StrMove";
  case OpKind::StrEqual:
    return "StrEqual";
  case OpKind::BlockCopy:
    return "BlockCopy";
  case OpKind::BlockClear:
    return "BlockClear";
  }
  return "?";
}

std::string HLOp::str() const {
  std::string Out = opKindName(K);
  Out += "(";
  for (size_t I = 0; I < Args.size(); ++I) {
    if (I != 0)
      Out += ", ";
    Out += Args[I].str();
  }
  Out += ")";
  if (!Result.empty())
    Out = Result + " <- " + Out;
  return Out;
}

HLOp codegen::strIndex(std::string Result, Value Str, Value Len, Value Ch) {
  return HLOp{OpKind::StrIndex, {Str, Len, Ch}, std::move(Result)};
}
HLOp codegen::strMove(Value Dst, Value Src, Value Len) {
  return HLOp{OpKind::StrMove, {Dst, Src, Len}, ""};
}
HLOp codegen::strEqual(std::string Result, Value A, Value B, Value Len) {
  return HLOp{OpKind::StrEqual, {A, B, Len}, std::move(Result)};
}
HLOp codegen::blockCopy(Value Dst, Value Src, Value Len) {
  return HLOp{OpKind::BlockCopy, {Dst, Src, Len}, ""};
}
HLOp codegen::blockClear(Value Dst, Value Len) {
  return HLOp{OpKind::BlockClear, {Dst, Len}, ""};
}

//===----------------------------------------------------------------------===//
// CodeGenContext
//===----------------------------------------------------------------------===//

std::string CodeGenContext::freshLabel(const std::string &Stem) {
  return Stem + std::to_string(NextLabel++);
}

bool CodeGenContext::registerHolds(const std::string &Reg,
                                   const std::string &What) const {
  auto It = RegContents.find(Reg);
  return It != RegContents.end() && It->second == What && !What.empty();
}

void CodeGenContext::setRegister(const std::string &Reg,
                                 const std::string &What) {
  RegContents[Reg] = What;
}

void CodeGenContext::clobberRegister(const std::string &Reg) {
  RegContents.erase(Reg);
}

void CodeGenContext::clobberAllRegisters() { RegContents.clear(); }

void CodeGenContext::emit(std::string Line) {
  Lines.push_back(std::move(Line));
}

void CodeGenContext::load(const std::string &Reg, const Value &V,
                          const char *Load) {
  std::string What = V.str();
  if (registerHolds(Reg, What))
    return; // §6: cascaded instructions reuse dedicated registers.
  emit(asmLine(Load, Reg, What));
  setRegister(Reg, What);
}

std::string codegen::asmLine(const char *Pattern, std::string_view A,
                             std::string_view B) {
  std::string Out = "  ";
  for (const char *P = Pattern; *P; ++P) {
    if (P[0] == '%' && (P[1] == '0' || P[1] == '1'))
      Out += *++P == '0' ? A : B;
    else
      Out += *P;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Code generation driver
//===----------------------------------------------------------------------===//

namespace {

/// Explains a constraint-check outcome for the selection notes.
std::string satName(SatResult R) {
  switch (R) {
  case SatResult::Satisfied:
    return "constraints satisfied by compile-time facts";
  case SatResult::Satisfiable:
    return "constraints satisfiable by setup/rewriting code";
  case SatResult::Violated:
    return "a constraint is violated";
  case SatResult::Unknown:
    return "a constraint cannot be decided at compile time";
  }
  return "?";
}

/// Position of the length operand for each operator kind.
size_t lengthArgIndex(OpKind K) {
  switch (K) {
  case OpKind::StrIndex:
    return 1;
  case OpKind::BlockClear:
    return 1;
  case OpKind::StrMove:
  case OpKind::StrEqual:
  case OpKind::BlockCopy:
    return 2;
  }
  return 0;
}

/// Facts for checking \p B against \p O: the base facts plus, when the
/// length operand is a literal, that literal seeded as the known value of
/// every range-constrained operand (the length is the only operand whose
/// magnitude the bindings bound tightly; address ranges are 2^16+ wide,
/// so the seeding is safely conservative for them).
CompileTimeFacts bindingFacts(const InstructionBinding &B, const HLOp &O,
                              const CompileTimeFacts &BaseFacts,
                              int64_t WordMax) {
  CompileTimeFacts Facts = BaseFacts;
  const Value &Len = O.Args[lengthArgIndex(O.K)];
  for (const Constraint &C : B.Constraints.items()) {
    if (C.kind() != ConstraintKind::Range)
      continue;
    // Word-wide ranges are trivially satisfied: every front-end operand
    // fits in a machine word.
    if (C.hi() >= WordMax) {
      Facts.KnownRanges.emplace(C.operand(), std::make_pair(C.lo(), C.hi()));
      continue;
    }
    // Narrow ranges bound the length operand; transfer what the front
    // end knows about it onto the constraint's (operator-side) name.
    if (Len.isLiteral()) {
      Facts.KnownValues.emplace(C.operand(), Len.Lit);
    } else {
      auto ItV = BaseFacts.KnownValues.find(Len.Name);
      if (ItV != BaseFacts.KnownValues.end())
        Facts.KnownValues.emplace(C.operand(), ItV->second);
      auto ItR = BaseFacts.KnownRanges.find(Len.Name);
      if (ItR != BaseFacts.KnownRanges.end())
        Facts.KnownRanges.emplace(C.operand(), ItR->second);
    }
  }
  return Facts;
}

} // namespace

namespace {

/// §6 constant-value optimization: operands whose symbols the front end
/// knows as constants are propagated into the operation before
/// selection, so emitters load immediates instead of dead symbols.
HLOp propagateConstants(const HLOp &O, const CompileTimeFacts &Facts) {
  HLOp Out = O;
  for (Value &V : Out.Args) {
    if (V.isLiteral())
      continue;
    auto It = Facts.KnownValues.find(V.Name);
    if (It != Facts.KnownValues.end())
      V = Value::literal(It->second);
  }
  return Out;
}

} // namespace

CodeGenResult Target::generate(const Program &P) const {
  CodeGenResult Result;
  CodeGenContext Ctx;

  for (size_t I = 0; I < P.Ops.size(); ++I) {
    const HLOp O = propagateConstants(P.Ops[I], P.Facts);
    SelectionNote Note;
    Note.OpIndex = I;
    Note.Operator = opKindName(O.K);

    const InstructionBinding *Chosen = nullptr;
    SatResult Outcome = SatResult::Unknown;
    bool NeedRewrite = false;
    for (const InstructionBinding &B : Bindings) {
      if (B.Op != O.K)
        continue;
      CompileTimeFacts BF = bindingFacts(B, O, P.Facts, D.WordMax);
      SatResult R = B.Constraints.checkAll(BF, /*AllowRewriting=*/true);
      if (R == SatResult::Violated)
        continue;
      // Range constraints that only a rewriting rule can force need the
      // binding to actually have one.
      SatResult Strict =
          B.Constraints.checkAll(BF, /*AllowRewriting=*/false);
      if (Strict == SatResult::Violated || Strict == SatResult::Unknown) {
        if (!B.RewriteEmit)
          continue;
        NeedRewrite = true;
      }
      Chosen = &B;
      Outcome = R;
      break;
    }

    Ctx.emit("; " + O.str());
    if (Chosen && NeedRewrite) {
      if (Chosen->RewriteEmit(O, P.Facts, Ctx)) {
        Note.Chosen = Chosen->Mnemonic + " (rewritten)";
        Note.Reason = "range forced by a §6 rewriting rule (chunked uses)";
        ++Result.ExoticCount;
      } else {
        decompose(O, Ctx);
        Ctx.clobberAllRegisters();
        Note.Chosen = "decomposed";
        Note.Reason = "rewriting rule declined; primitive loop emitted";
        ++Result.DecomposedCount;
      }
    } else if (Chosen) {
      Chosen->Emit(O, P.Facts, Ctx);
      Note.Chosen = Chosen->Mnemonic;
      Note.Reason = satName(Outcome) + " [" + Chosen->AnalysisId + "]";
      ++Result.ExoticCount;
    } else {
      decompose(O, Ctx);
      Ctx.clobberAllRegisters();
      Note.Chosen = "decomposed";
      Note.Reason = "no usable exotic binding; primitive loop emitted";
      ++Result.DecomposedCount;
    }
    Result.Notes.push_back(std::move(Note));
  }

  Result.Asm = peephole(Ctx.takeLines());
  return Result;
}

//===----------------------------------------------------------------------===//
// Decomposition rules
//===----------------------------------------------------------------------===//

void Target::decompose(const HLOp &O, CodeGenContext &Ctx) const {
  auto Emit = [&](const char *Pattern, std::string_view A,
                  std::string_view B = {}) {
    Ctx.emit(asmLine(Pattern, A, B));
  };
  auto Label = [&](const std::string &L) { Ctx.emit(L + ":"); };
  // Loads the operands in the row's order; returns each one's register.
  auto LoadAll = [&](const Dialect::Loads &Loads) {
    std::array<const char *, 3> Reg{};
    for (const auto &[R, Arg] : Loads) {
      Ctx.load(R, O.Args[Arg], D.Load);
      Reg[Arg] = R;
    }
    return Reg;
  };
  // Every loop's head: at L, leave for Exit once N is 0, else count down.
  auto Head = [&](const std::string &L, const char *N,
                  const std::string &Exit) {
    Label(L);
    Emit(D.TestZero, N);
    Emit(D.BranchZero, Exit);
    Emit(D.Dec, N);
  };
  std::string Top = Ctx.freshLabel("top"), Done = Ctx.freshLabel("done");

  switch (O.K) {
  case OpKind::StrIndex: {
    std::string NotFound = Ctx.freshLabel("nf");
    auto [Str, N, Ch] = LoadAll(D.IndexLoads);
    Emit(D.Move, D.Save, Str);
    Head(Top, N, NotFound);
    Emit(D.LoadByte, D.Byte, Str);
    Emit(D.Inc, Str);
    Emit(D.Compare, D.Byte, Ch);
    Emit(D.BranchNe, Top);
    // Found: the index is the distance the pointer has moved.
    if (std::string_view(D.Index) != Str)
      Emit(D.Move, D.Index, Str);
    Emit(D.Sub, D.Index, D.Save);
    Emit(D.Jump, Done);
    Label(NotFound);
    Emit(D.Load, D.Index, "0");
    Label(Done);
    Emit(D.Move, O.Result, D.Index);
    break;
  }
  case OpKind::StrMove:
  case OpKind::BlockCopy: {
    auto [Dst, Src, N] = LoadAll(D.MoveLoads);
    // With the row's CopyEnd, BlockCopy is overlap-safe: it copies
    // backward when the destination lies inside [src, src + len).
    bool PickDirection = O.K == OpKind::BlockCopy && D.CopyEnd;
    std::string Back = PickDirection ? Ctx.freshLabel("back") : "";
    if (PickDirection) {
      Emit(D.Move, D.CopyEnd, Src);
      Ctx.emit(asmLine(D.Add, D.CopyEnd, N) + "        ; src + len");
      Emit(D.Compare, Dst, Src);
      Emit(D.BranchLe, Top);
      Emit(D.Compare, Dst, D.CopyEnd);
      Emit(D.BranchLt, Back);
    }
    Head(Top, N, Done);
    Emit(D.LoadByte, D.Byte, Src);
    Emit(D.Inc, Src);
    Emit(D.StoreByte, D.Byte, Dst);
    Emit(D.Inc, Dst);
    Emit(D.Jump, Top);
    if (PickDirection) {
      std::string BackTop = Ctx.freshLabel("btop");
      Label(Back);
      Emit(D.Add, Src, N);
      Emit(D.Add, Dst, N);
      Head(BackTop, N, Done);
      Emit(D.Dec, Src);
      Emit(D.Dec, Dst);
      Emit(D.LoadByte, D.Byte, Src);
      Emit(D.StoreByte, D.Byte, Dst);
      Emit(D.Jump, BackTop);
    }
    Label(Done);
    break;
  }
  case OpKind::StrEqual: {
    std::string Ne = Ctx.freshLabel("ne");
    auto [A, B, N] = LoadAll(D.EqualLoads);
    Head(Top, N, Done + "_eq");
    Emit(D.LoadByte, D.Byte, A);
    Emit(D.Inc, A);
    Emit(D.LoadByte, D.Byte2, B);
    Emit(D.Inc, B);
    // The compare must come after both increments: the 8086's inc sets
    // zf and would clobber the comparison result.
    Emit(D.Compare, D.Byte, D.Byte2);
    Emit(D.BranchNe, Ne);
    Emit(D.Jump, Top);
    Label(Done + "_eq");
    Emit(D.Load, O.Result, "1");
    Emit(D.Jump, Done);
    Label(Ne);
    Emit(D.Load, O.Result, "0");
    Label(Done);
    break;
  }
  case OpKind::BlockClear: {
    auto [Dst, N, Unused] = LoadAll(D.ClearLoads);
    Emit(D.Load, D.Byte, "0");
    Head(Top, N, Done);
    Emit(D.StoreByte, D.Byte, Dst);
    Emit(D.Inc, Dst);
    Emit(D.Jump, Top);
    Label(Done);
    break;
  }
  }
}

//===----------------------------------------------------------------------===//
// Peephole (§6 augment/rewrite integration)
//===----------------------------------------------------------------------===//

std::vector<std::string> codegen::peephole(std::vector<std::string> Asm) {
  std::vector<std::string> Out;
  Out.reserve(Asm.size());
  std::string LastSetup;
  for (std::string &Line : Asm) {
    std::string_view T = trim(Line);
    // Delete self-moves produced by stitching augment and rewrite code.
    if (startsWith(T, "mov ") || startsWith(T, "movl ")) {
      size_t Sp = T.find(' ');
      std::string_view Rest = trim(T.substr(Sp));
      size_t Comma = Rest.find(',');
      if (Comma != std::string_view::npos) {
        std::string_view A = trim(Rest.substr(0, Comma));
        std::string_view B = trim(Rest.substr(Comma + 1));
        if (A == B)
          continue;
      }
    }
    // Collapse immediately repeated direction/flag setup (cld; cld).
    if (T == "cld" || T == "std") {
      if (LastSetup == T)
        continue;
      LastSetup = std::string(T);
    } else if (!T.empty() && T[0] != ';') {
      LastSetup.clear();
    }
    Out.push_back(std::move(Line));
  }
  return Out;
}
