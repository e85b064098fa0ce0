//===- BindingCompiler.cpp - Lower registry entries to bindings -*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "registry/BindingCompiler.h"

#include "isdl/Parser.h"
#include "isdl/Printer.h"
#include "support/Diagnostics.h"
#include "support/StringUtil.h"
#include "transform/ScriptIO.h"

#include <cstdlib>
#include <memory>
#include <set>

using namespace extra;
using namespace extra::registry;
using codegen::asmLine;
using codegen::CodeGenContext;
using codegen::Dialect;
using codegen::HLOp;
using codegen::OpKind;
using codegen::Value;
using constraint::CompileTimeFacts;
using constraint::Constraint;
using constraint::ConstraintKind;
using constraint::ConstraintSet;

namespace {

std::optional<OpKind> opKindFromName(const std::string &Name) {
  if (Name == "StrIndex")
    return OpKind::StrIndex;
  if (Name == "StrMove")
    return OpKind::StrMove;
  if (Name == "StrEqual")
    return OpKind::StrEqual;
  if (Name == "BlockCopy")
    return OpKind::BlockCopy;
  if (Name == "BlockClear")
    return OpKind::BlockClear;
  return std::nullopt;
}

Fault parseFault(std::string Message) {
  return makeFault(FaultCategory::Parse, std::move(Message));
}

Fault lowerFault(std::string Message) {
  return makeFault(FaultCategory::Validate, std::move(Message));
}

/// 8086 status-flag operands: pinning one becomes setup code, not a
/// register load.
bool isI8086Flag(const std::string &Name) {
  return Name == "rf" || Name == "rfz" || Name == "df" || Name == "zf";
}

//===----------------------------------------------------------------------===//
// The augment plan parsed from the instruction derivation script
//===----------------------------------------------------------------------===//

struct OutputArm {
  enum class Kind { Const, RegMinusSave } K = Kind::Const;
  int64_t Lit = 0;
  std::string Reg; ///< Carrier register of a RegMinusSave arm.
};

struct OutputSpec {
  enum class Cond { Flag, RegZero } CondKind = Cond::Flag;
  std::string CondReg; ///< "zf" (Flag) or the tested register (RegZero).
  OutputArm Then, Else;

  /// The register holding the interesting result, when an arm computes
  /// an address difference; the other arm then assigns into it too.
  std::string carrier() const {
    if (Then.K == OutputArm::Kind::RegMinusSave)
      return Then.Reg;
    if (Else.K == OutputArm::Kind::RegMinusSave)
      return Else.Reg;
    return std::string();
  }
};

struct AugmentPlan {
  /// fix-operand-value pins in script order.
  std::vector<std::pair<std::string, int64_t>> Pins;
  std::string SaveName; ///< allocate-temp name the prologue writes.
  std::string SaveSrc;  ///< Register saved by the prologue; empty = none.
  std::optional<OutputSpec> Output;
};

/// Parses augment code that must be exactly one statement; null when it
/// is not.
isdl::StmtPtr parseOneStmt(const std::string &Code) {
  DiagnosticEngine Diags;
  isdl::StmtList Stmts = isdl::parseStmts(Code, Diags);
  if (Diags.hasErrors() || Stmts.size() != 1)
    return nullptr;
  return std::move(Stmts[0]);
}

/// One `output (e);` arm: a literal, or a register minus the prologue
/// save.
Expected<OutputArm> parseOutputArm(const isdl::StmtList &Arm,
                                   const std::string &SaveName) {
  const auto *Out =
      Arm.size() == 1 ? isdl::dyn_cast<isdl::OutputStmt>(Arm[0].get())
                      : nullptr;
  if (!Out || Out->getValues().size() != 1)
    return parseFault("output arm is not one single-value output statement");
  const isdl::Expr *V = Out->getValues()[0].get();
  OutputArm A;
  if (const auto *Lit = isdl::dyn_cast<isdl::IntLit>(V)) {
    A.Lit = Lit->getValue();
    return A;
  }
  const auto *Diff = isdl::dyn_cast<isdl::BinaryExpr>(V);
  const auto *Reg = Diff && Diff->getOp() == isdl::BinaryOp::Sub
                        ? isdl::dyn_cast<isdl::VarRef>(Diff->getLHS())
                        : nullptr;
  const auto *Save = Reg ? isdl::dyn_cast<isdl::VarRef>(Diff->getRHS())
                         : nullptr;
  if (!Save || Save->getName() != SaveName)
    return parseFault("output arm '" + isdl::printExpr(*V) +
                      "' is neither a literal nor an address difference "
                      "from the prologue save ('" +
                      SaveName + "')");
  A.K = OutputArm::Kind::RegMinusSave;
  A.Reg = Reg->getName();
  return A;
}

/// The register `r` of an `r = 0` test; null for any other expression.
const isdl::VarRef *zeroTested(const isdl::Expr &E) {
  const auto *Eq = isdl::dyn_cast<isdl::BinaryExpr>(&E);
  if (!Eq || Eq->getOp() != isdl::BinaryOp::Eq)
    return nullptr;
  const auto *Zero = isdl::dyn_cast<isdl::IntLit>(Eq->getRHS());
  return Zero && Zero->getValue() == 0
             ? isdl::dyn_cast<isdl::VarRef>(Eq->getLHS())
             : nullptr;
}

/// Reads `if <cond> then output (<a>); else output (<b>); end_if;` from
/// the statement parser's AST. `not <cond>` swaps the arms.
Expected<OutputSpec> parseOutputSpec(const std::string &Code,
                                     const std::string &SaveName) {
  isdl::StmtPtr S = parseOneStmt(Code);
  const auto *If = isdl::dyn_cast<isdl::IfStmt>(S.get());
  if (!If)
    return parseFault("unsupported replace-output code: '" + Code + "'");

  const isdl::Expr *Cond = If->getCond();
  const auto *Not = isdl::dyn_cast<isdl::UnaryExpr>(Cond);
  bool Negated = Not && Not->getOp() == isdl::UnaryOp::Not;
  if (Negated)
    Cond = Not->getOperand();
  OutputSpec Spec;
  if (const auto *Flag = isdl::dyn_cast<isdl::VarRef>(Cond)) {
    Spec.CondKind = OutputSpec::Cond::Flag;
    Spec.CondReg = Flag->getName();
  } else if (const isdl::VarRef *Reg = zeroTested(*Cond)) {
    Spec.CondKind = OutputSpec::Cond::RegZero;
    Spec.CondReg = Reg->getName();
  } else {
    return parseFault("unsupported output condition: '" +
                      isdl::printExpr(*Cond) + "'");
  }

  auto Then = parseOutputArm(If->getThen(), SaveName);
  if (!Then)
    return Then.fault();
  auto Else = parseOutputArm(If->getElse(), SaveName);
  if (!Else)
    return Else.fault();
  Spec.Then = Negated ? *Else : *Then;
  Spec.Else = Negated ? *Then : *Else;
  return Spec;
}

Expected<AugmentPlan> parseAugments(const std::string &InstScriptText) {
  DiagnosticEngine Diags;
  auto Script = transform::parseScript(InstScriptText, Diags);
  if (!Script)
    return parseFault("instruction script failed to parse: " + Diags.str());

  AugmentPlan Plan;
  for (const transform::Step &S : *Script) {
    auto Arg = [&](const char *Key) -> std::string {
      auto It = S.Args.find(Key);
      return It == S.Args.end() ? std::string() : It->second;
    };
    if (S.Rule == "fix-operand-value") {
      Plan.Pins.emplace_back(Arg("operand"),
                             std::strtoll(Arg("value").c_str(), nullptr, 10));
    } else if (S.Rule == "allocate-temp") {
      Plan.SaveName = Arg("name");
    } else if (S.Rule == "add-prologue") {
      // "temp <- di;" — the initial-address save.
      isdl::StmtPtr Stmt = parseOneStmt(Arg("code"));
      const auto *Save = isdl::dyn_cast<isdl::AssignStmt>(Stmt.get());
      const auto *Src =
          Save ? isdl::dyn_cast<isdl::VarRef>(Save->getValue()) : nullptr;
      if (!Src || Save->targetVarName().empty())
        return parseFault("unsupported prologue code: '" + Arg("code") + "'");
      if (Plan.SaveName.empty())
        Plan.SaveName = Save->targetVarName();
      if (Save->targetVarName() != Plan.SaveName)
        return parseFault("prologue writes '" + Save->targetVarName() +
                          "', not the allocated temp '" + Plan.SaveName + "'");
      Plan.SaveSrc = Src->getName();
    } else if (S.Rule == "replace-output") {
      std::string Code = Arg("code");
      if (Code == "none")
        continue;
      auto Spec = parseOutputSpec(Code, Plan.SaveName);
      if (!Spec)
        return Spec.fault();
      Plan.Output = *Spec;
    }
    // permute-inputs: the kernel's operand->register map already encodes
    // the permuted order. note-relational-constraint and the
    // simplification rules shape the description, not the emitted code.
  }
  return Plan;
}

//===----------------------------------------------------------------------===//
// Kernels: per-(machine, mnemonic, operator kind) operand conventions
//===----------------------------------------------------------------------===//

struct KernelSpec {
  const char *Machine;
  const char *Mnemonic;
  OpKind Op;
  /// Dedicated-register loads in emission order: {register, arg index}.
  std::vector<std::pair<const char *, int>> Loads;
  const char *Core;        ///< Core instruction text (sans repeat prefix).
  const char *CoreComment; ///< Emitted after the core line.
  /// Every register the emitted code changes, except r0: the core
  /// instruction's outputs (movc3 also zeroes r2, r4 and r5) and the
  /// augments' scratch registers. The chunked rewrite reads them too.
  std::vector<const char *> Clobbers{};
  const char *R0After = nullptr; ///< setRegister("r0", ...) value, or null.
  int CarrierBias = 0;           ///< locc leaves r1 AT the match: +1.
  /// Pin-name aliases for pins whose operand name is not the register
  /// (movc5's fill byte travels in r2).
  std::vector<std::pair<const char *, const char *>> PinAlias{};
  bool MvcStyle = false; ///< Length encoded into the core text, not a reg.
  enum class Rewrite { None, VaxLiteralChunks, MvcChunks } RewriteKind =
      Rewrite::None;
};

const std::vector<KernelSpec> &kernelTable() {
  using K = KernelSpec;
  static const std::vector<KernelSpec> Table = {
      {.Machine = "i8086", .Mnemonic = "scasb", .Op = OpKind::StrIndex,
       .Loads = {{"di", 0}, {"cx", 1}, {"al", 2}},
       .Core = "scasb", .CoreComment = "search string",
       .Clobbers = {"di", "cx", "si", "bx"}},
      {.Machine = "i8086", .Mnemonic = "movsb", .Op = OpKind::StrMove,
       .Loads = {{"si", 1}, {"di", 0}, {"cx", 2}},
       .Core = "movsb", .CoreComment = "block move",
       .Clobbers = {"si", "di", "cx"}},
      {.Machine = "i8086", .Mnemonic = "cmpsb", .Op = OpKind::StrEqual,
       .Loads = {{"si", 0}, {"di", 1}, {"cx", 2}},
       .Core = "cmpsb", .CoreComment = "compare while equal",
       .Clobbers = {"si", "di", "cx"}},
      {.Machine = "i8086", .Mnemonic = "stosb", .Op = OpKind::BlockClear,
       .Loads = {{"di", 0}, {"cx", 1}},
       .Core = "stosb", .CoreComment = "block clear",
       .Clobbers = {"di", "cx"}},
      {.Machine = "vax", .Mnemonic = "locc", .Op = OpKind::StrIndex,
       .Loads = {{"r1", 0}, {"r0", 1}, {"r2", 2}},
       .Core = "locc r2, r0, r1", .CoreComment = "locate character",
       .Clobbers = {"r1", "r4"}, .R0After = "", .CarrierBias = 1},
      {.Machine = "vax", .Mnemonic = "movc3", .Op = OpKind::BlockCopy,
       .Loads = {{"r0", 2}, {"r1", 1}, {"r3", 0}},
       .Core = "movc3 r0, r1, r3", .CoreComment = "overlap-safe block move",
       .Clobbers = {"r1", "r2", "r3", "r4", "r5"}, .R0After = "0",
       .RewriteKind = K::Rewrite::VaxLiteralChunks},
      {.Machine = "vax", .Mnemonic = "movc3", .Op = OpKind::StrMove,
       .Loads = {{"r0", 2}, {"r1", 1}, {"r3", 0}},
       .Core = "movc3 r0, r1, r3",
       .CoreComment = "string assignment (no overlap by axiom)",
       .Clobbers = {"r1", "r2", "r3", "r4", "r5"}, .R0After = "0",
       .RewriteKind = K::Rewrite::VaxLiteralChunks},
      {.Machine = "vax", .Mnemonic = "cmpc3", .Op = OpKind::StrEqual,
       .Loads = {{"r0", 2}, {"r1", 0}, {"r3", 1}},
       .Core = "cmpc3 r0, r1, r3", .CoreComment = "compare characters",
       .Clobbers = {"r1", "r3"}, .R0After = ""},
      {.Machine = "vax", .Mnemonic = "movc5", .Op = OpKind::BlockClear,
       .Loads = {{"r4", 1}, {"r5", 0}},
       .Core = "movc5 r0, r1, r2, r4, r5", .CoreComment = "block clear",
       .Clobbers = {"r4", "r5", "r3"}, .R0After = "0",
       .PinAlias = {{"fill", "r2"}}},
      {.Machine = "ibm370", .Mnemonic = "mvc", .Op = OpKind::StrMove,
       .Loads = {{"r1", 0}, {"r2", 1}},
       .Core = "mvc (r1), (r2)", .CoreComment = "storage-to-storage move",
       .MvcStyle = true, .RewriteKind = K::Rewrite::MvcChunks},
  };
  return Table;
}

const KernelSpec *findKernel(const std::string &Machine,
                             const std::string &Mnemonic, OpKind Op) {
  for (const KernelSpec &K : kernelTable())
    if (Machine == K.Machine && Mnemonic == K.Mnemonic && Op == K.Op)
      return &K;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// The lowered binding: everything the closures need, precomputed
//===----------------------------------------------------------------------===//

struct Lowered {
  KernelSpec Spec;
  AugmentPlan Plan;
  std::string Machine;
  const Dialect *D = nullptr; ///< The machine's row of primitives.
  /// 8086 flag pins.
  std::optional<int64_t> PinZf, PinDf;
  bool RepPrefix = false; ///< rf pinned to 1.
  std::optional<int64_t> PinRfz;
  /// Pins that are plain register loads (after aliasing), script order.
  std::vector<std::pair<std::string, int64_t>> RegPins;
  /// From the constraint set:
  int64_t ChunkLimit = 0;  ///< Max hi over narrow ranges (0 = none).
  int64_t OffsetDelta = 0; ///< Encoded-length delta (mvc: -1).
  std::string Axiom;       ///< Relational constraint's axiom, if any.
};

std::optional<int64_t> literalOf(const Value &V,
                                 const CompileTimeFacts &Facts) {
  if (V.isLiteral())
    return V.Lit;
  auto It = Facts.KnownValues.find(V.Name);
  if (It == Facts.KnownValues.end())
    return std::nullopt;
  return It->second;
}

void emitOutput(const Lowered &L, const OutputSpec &S, const HLOp &O,
                CodeGenContext &Ctx) {
  const Dialect &D = *L.D;
  std::string Carrier = S.carrier();
  auto EmitArm = [&](const OutputArm &A) {
    if (A.K == OutputArm::Kind::RegMinusSave) {
      Ctx.emit(asmLine(D.Sub, A.Reg, D.Save) +
               "   ; offset from saved initial address");
      for (int I = 0; I < L.Spec.CarrierBias; ++I)
        Ctx.emit(asmLine(D.Inc, A.Reg) + "   ; 1-based index");
    } else {
      std::string Dst = Carrier.empty() ? O.Result : Carrier;
      Ctx.emit(asmLine(D.Load, Dst, std::to_string(A.Lit)));
    }
  };
  if (S.CondKind == OutputSpec::Cond::Flag) {
    // Fall through into the then-arm; branch away when the flag is clear.
    std::string Alt = Ctx.freshLabel("nf");
    std::string Done = Ctx.freshLabel("done");
    Ctx.emit(asmLine(D.BranchNe, Alt) + "          ; " + S.CondReg +
             " clear: take else arm");
    EmitArm(S.Then);
    Ctx.emit(asmLine(D.Jump, Done));
    Ctx.emit(Alt + ":");
    EmitArm(S.Else);
    Ctx.emit(Done + ":");
  } else {
    // Fall through into the else-arm; branch away when the register is 0.
    std::string ThenL = Ctx.freshLabel("zr");
    std::string Done = Ctx.freshLabel("done");
    Ctx.emit(asmLine(D.TestZero, S.CondReg));
    Ctx.emit(asmLine(D.BranchZero, ThenL) + "          ; " + S.CondReg +
             " = 0");
    EmitArm(S.Else);
    Ctx.emit(asmLine(D.Jump, Done));
    Ctx.emit(ThenL + ":");
    EmitArm(S.Then);
    Ctx.emit(Done + ":");
  }
  if (!Carrier.empty())
    Ctx.emit(asmLine(D.Move, O.Result, Carrier) + "   ; final result");
}

/// Tells the register tracker which registers the row's code changed,
/// and what it left in r0 where the row says.
void trackClobbers(const KernelSpec &K, CodeGenContext &Ctx) {
  for (const char *Reg : K.Clobbers)
    Ctx.clobberRegister(Reg);
  if (K.R0After)
    Ctx.setRegister("r0", K.R0After);
}

void emitLowered(const Lowered &L, const HLOp &O,
                 const CompileTimeFacts &Facts, CodeGenContext &Ctx) {
  const Dialect &D = *L.D;
  const bool I86 = L.Machine == "i8086";
  auto ArgLoads = [&] {
    for (const auto &[Reg, Arg] : L.Spec.Loads)
      Ctx.load(Reg, O.Args[static_cast<size_t>(Arg)], D.Load);
  };
  auto RegPinLoads = [&] {
    for (const auto &[Reg, V] : L.RegPins)
      Ctx.load(Reg, Value::literal(V), D.Load);
  };
  // Pinned operands load first on the VAX (movc5's zero source) but last
  // on the 8086 (stosb's fill byte); either order is sound — we keep the
  // per-machine convention.
  if (I86) {
    ArgLoads();
    RegPinLoads();
  } else {
    RegPinLoads();
    ArgLoads();
  }

  if (!L.Plan.SaveSrc.empty())
    Ctx.emit(asmLine(D.Move, D.Save, L.Plan.SaveSrc) +
             "   ; save initial address");

  if (I86 && L.PinZf) {
    if (*L.PinZf == 0) {
      Ctx.emit("  mov si, 0");
      Ctx.emit("  cmp si, 1         ; reset zero flag zf");
    } else {
      Ctx.emit("  cmp ax, ax        ; set zero flag zf");
    }
  }
  if (I86 && L.PinDf && *L.PinDf == 0)
    Ctx.emit("  cld               ; reset direction flag df");

  if (L.Spec.MvcStyle) {
    // Reached only when the length is known (the strict offset check
    // answers Unknown otherwise) and fits the encodable range: a literal
    // (constant propagation has already run), or a fact-known symbol.
    const Value &LenV = O.Args[2];
    int64_t Len =
        LenV.isLiteral() ? LenV.Lit : Facts.KnownValues.at(LenV.Name);
    Ctx.emit(std::string("  ") + L.Spec.Core + ", " +
             std::to_string(Len + L.OffsetDelta) +
             "   ; encoded length (coding constraint: count " +
             (L.OffsetDelta < 0 ? "- " + std::to_string(-L.OffsetDelta)
                                : "+ " + std::to_string(L.OffsetDelta)) +
             ")");
  } else {
    std::string Core = "  ";
    if (L.RepPrefix)
      Core += !L.PinRfz ? "rep " : (*L.PinRfz ? "repe " : "repne ");
    Core += L.Spec.Core;
    Core += std::string("   ; ") + L.Spec.CoreComment;
    Ctx.emit(Core);
  }

  if (L.Plan.Output)
    emitOutput(L, *L.Plan.Output, O, Ctx);

  trackClobbers(L.Spec, Ctx);
  if (!O.Result.empty())
    Ctx.setRegister(O.Result, "");
}

bool rewriteVaxChunks(const Lowered &L, const HLOp &O,
                      const CompileTimeFacts &Facts, CodeGenContext &Ctx) {
  // §6's exact rewriting-rule example: forward chunks of at most the
  // range bound. Forward copying is only sound when the operands cannot
  // overlap: either the language axiom vouches, or all three operands
  // are literals the compiler can check disjoint.
  if (!L.Axiom.empty() && !Facts.Axioms.count(L.Axiom))
    return false;
  auto Len = literalOf(O.Args[2], Facts);
  auto Dst = literalOf(O.Args[0], Facts);
  auto Src = literalOf(O.Args[1], Facts);
  if (!Len || !Dst || !Src || *Len <= 0)
    return false;
  if (L.Axiom.empty()) {
    bool Disjoint = *Src + *Len <= *Dst || *Dst + *Len <= *Src;
    if (!Disjoint)
      return false;
  }
  int64_t Done = 0;
  while (Done < *Len) {
    int64_t Chunk = std::min<int64_t>(*Len - Done, L.ChunkLimit);
    Ctx.emit("  movl r0, " + std::to_string(Chunk));
    Ctx.emit("  movl r1, " + std::to_string(*Src + Done));
    Ctx.emit("  movl r3, " + std::to_string(*Dst + Done));
    Ctx.emit("  movc3 r0, r1, r3  ; " + std::to_string(Chunk) +
             "-byte substring");
    Done += Chunk;
  }
  trackClobbers(L.Spec, Ctx);
  return true;
}

bool rewriteMvcChunks(const Lowered &L, const HLOp &O,
                      const CompileTimeFacts &Facts, CodeGenContext &Ctx) {
  // A literal length beyond the encodable range becomes consecutive
  // substring moves; the chunker advances both addresses between
  // chunks, so it works on symbolic addresses (unlike the VAX literal
  // chunker). A symbolic length cannot be chunked at compile time.
  auto Len = literalOf(O.Args[2], Facts);
  if (!Len || *Len <= 0)
    return false;
  Ctx.load("r1", O.Args[0], L.D->Load);
  Ctx.load("r2", O.Args[1], L.D->Load);
  int64_t Remaining = *Len;
  while (Remaining > 0) {
    int64_t Chunk = Remaining > L.ChunkLimit ? L.ChunkLimit : Remaining;
    Ctx.emit(std::string("  ") + L.Spec.Core + ", " +
             std::to_string(Chunk + L.OffsetDelta) + "   ; " +
             std::to_string(Chunk) + "-byte chunk");
    Remaining -= Chunk;
    if (Remaining > 0) {
      Ctx.emit("  ahi r1, " + std::to_string(Chunk));
      Ctx.emit("  ahi r2, " + std::to_string(Chunk));
      Ctx.clobberRegister("r1");
      Ctx.clobberRegister("r2");
    }
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Constraint text parsing
//===----------------------------------------------------------------------===//

Expected<ConstraintSet>
registry::parseConstraintText(const std::string &Text) {
  ConstraintSet Out;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    std::string Line = Text.substr(
        Pos, Eol == std::string::npos ? std::string::npos : Eol - Pos);
    Pos = Eol == std::string::npos ? Text.size() : Eol + 1;
    Line = std::string(trim(Line));
    if (Line.empty())
      continue;
    std::string Note;
    size_t Bang = Line.find("  ! ");
    if (Bang != std::string::npos) {
      Note = Line.substr(Bang + 4);
      Line = std::string(trim(Line.substr(0, Bang)));
    }
    if (startsWith(Line, "value: ")) {
      std::string Rest = Line.substr(7);
      size_t Eq = Rest.find(" = ");
      if (Eq == std::string::npos)
        return parseFault("malformed value constraint: '" + Line + "'");
      Out.add(Constraint::value(
          Rest.substr(0, Eq),
          std::strtoll(Rest.c_str() + Eq + 3, nullptr, 10), Note));
    } else if (startsWith(Line, "range: ")) {
      std::string Rest = Line.substr(7);
      size_t Le1 = Rest.find(" <= ");
      size_t Le2 = Le1 == std::string::npos ? Le1 : Rest.find(" <= ", Le1 + 4);
      if (Le2 == std::string::npos)
        return parseFault("malformed range constraint: '" + Line + "'");
      Out.add(Constraint::range(
          Rest.substr(Le1 + 4, Le2 - Le1 - 4),
          std::strtoll(Rest.c_str(), nullptr, 10),
          std::strtoll(Rest.c_str() + Le2 + 4, nullptr, 10), Note));
    } else if (startsWith(Line, "offset: ")) {
      // "encode NAME as NAME + K" / "... - K".
      std::string Rest = Line.substr(8);
      if (!startsWith(Rest, "encode "))
        return parseFault("malformed offset constraint: '" + Line + "'");
      size_t As = Rest.find(" as ");
      if (As == std::string::npos)
        return parseFault("malformed offset constraint: '" + Line + "'");
      std::string Name = Rest.substr(7, As - 7);
      std::string Tail = Rest.substr(As + 4);
      size_t Plus = Tail.rfind(" + ");
      size_t Minus = Tail.rfind(" - ");
      int64_t Delta = 0;
      if (Plus != std::string::npos && (Minus == std::string::npos ||
                                        Plus > Minus))
        Delta = std::strtoll(Tail.c_str() + Plus + 3, nullptr, 10);
      else if (Minus != std::string::npos)
        Delta = -std::strtoll(Tail.c_str() + Minus + 3, nullptr, 10);
      else
        return parseFault("malformed offset constraint: '" + Line + "'");
      Out.add(Constraint::offset(Name, Delta, Note));
    } else if (startsWith(Line, "relational: ")) {
      std::string Rest = Line.substr(12);
      size_t Ax = Rest.rfind(" [axiom: ");
      if (Ax == std::string::npos || Rest.back() != ']')
        return parseFault("malformed relational constraint: '" + Line + "'");
      std::string PredText = Rest.substr(0, Ax);
      std::string Axiom = Rest.substr(Ax + 9, Rest.size() - Ax - 10);
      DiagnosticEngine Diags;
      isdl::ExprPtr Pred = isdl::parseExpr(PredText, Diags);
      if (!Pred || Diags.hasErrors())
        return parseFault("relational predicate failed to re-parse: " +
                          Diags.str());
      Out.add(Constraint::relational(std::move(Pred), Axiom, Note));
    } else {
      return parseFault("unrecognized constraint rendering: '" + Line + "'");
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Lowering
//===----------------------------------------------------------------------===//

Expected<codegen::InstructionBinding>
registry::compileBinding(const RegistryEntry &E) {
  std::string OpName = E.Op.empty() ? opKindOfOperator(E.OperatorId) : E.Op;
  auto Kind = opKindFromName(OpName);
  if (!Kind)
    return lowerFault("operator '" + E.OperatorId +
                      "' maps to no code-generator operator kind");
  const Dialect *D = codegen::findDialect(E.Machine);
  if (!D)
    return lowerFault("unknown machine '" + E.Machine + "'");
  const KernelSpec *Spec = findKernel(E.Machine, E.Mnemonic, *Kind);
  if (!Spec)
    return lowerFault("no kernel for " + E.Machine + "." + E.Mnemonic +
                      " as " + OpName);

  auto CS = parseConstraintText(E.Constraints);
  if (!CS)
    return CS.fault();
  auto Plan = parseAugments(E.InstScript);
  if (!Plan)
    return Plan.fault();

  auto L = std::make_shared<Lowered>();
  L->Spec = *Spec;
  L->Plan = *Plan;
  L->Machine = E.Machine;
  L->D = D;

  // Classify pins: 8086 status flags become setup code and the repeat
  // prefix; everything else is a pinned register load (aliased through
  // the kernel when the operand name is not the register).
  for (const auto &[Name, V] : Plan->Pins) {
    if (E.Machine == "i8086" && isI8086Flag(Name)) {
      if (Name == "rf")
        L->RepPrefix = V == 1;
      else if (Name == "rfz")
        L->PinRfz = V;
      else if (Name == "df")
        L->PinDf = V;
      else
        L->PinZf = V;
      continue;
    }
    std::string Reg = Name;
    for (const auto &[From, To] : Spec->PinAlias)
      if (Name == From)
        Reg = To;
    L->RegPins.emplace_back(Reg, V);
  }

  if (Plan->Output && Plan->Output->CondKind == OutputSpec::Cond::Flag &&
      E.Machine != "i8086")
    return lowerFault("flag-conditional output is only lowerable on i8086");
  if (Plan->Output && !Plan->Output->carrier().empty() &&
      Plan->SaveSrc.empty())
    return lowerFault("address-difference output without a prologue save");

  // Derive the rewriting parameters from the constraint set itself: the
  // chunk size is the narrow range's bound, the encoded-length delta is
  // the offset constraint, the overlap guard is the relational axiom.
  for (const Constraint &C : CS->items()) {
    switch (C.kind()) {
    case ConstraintKind::Range:
      if (C.hi() < D->WordMax && C.hi() > L->ChunkLimit)
        L->ChunkLimit = C.hi();
      break;
    case ConstraintKind::Offset:
      L->OffsetDelta = C.valueOrDelta();
      break;
    case ConstraintKind::Relational:
      L->Axiom = C.axiom();
      break;
    case ConstraintKind::Value:
      break;
    }
  }

  codegen::InstructionBinding B;
  B.Op = *Kind;
  B.Mnemonic = E.Mnemonic;
  B.AnalysisId = E.AnalysisId;
  B.Constraints = CS.take();
  B.Emit = [L](const HLOp &O, const CompileTimeFacts &Facts,
               CodeGenContext &Ctx) { emitLowered(*L, O, Facts, Ctx); };
  if (L->ChunkLimit > 0) {
    if (Spec->RewriteKind == KernelSpec::Rewrite::VaxLiteralChunks)
      B.RewriteEmit = [L](const HLOp &O, const CompileTimeFacts &Facts,
                          CodeGenContext &Ctx) {
        return rewriteVaxChunks(*L, O, Facts, Ctx);
      };
    else if (Spec->RewriteKind == KernelSpec::Rewrite::MvcChunks)
      B.RewriteEmit = [L](const HLOp &O, const CompileTimeFacts &Facts,
                          CodeGenContext &Ctx) {
        return rewriteMvcChunks(*L, O, Facts, Ctx);
      };
  }
  return B;
}

unsigned registry::loadRegistryBindings(const Registry &R,
                                        const std::string &Machine,
                                        codegen::Target &T,
                                        std::vector<CompileNote> *Notes) {
  unsigned Registered = 0;
  std::set<std::pair<std::string, std::string>> Bound;
  for (const codegen::InstructionBinding &B : T.bindings())
    Bound.emplace(codegen::opKindName(B.Op), B.Mnemonic);
  for (const RegistryEntry *E : R.entries()) {
    if (E->Machine != Machine)
      continue;
    auto B = compileBinding(*E);
    if (!B) {
      if (Notes)
        Notes->push_back({E->AnalysisId, B.fault().Message});
      continue;
    }
    auto Key = std::make_pair(std::string(codegen::opKindName(B->Op)),
                              B->Mnemonic);
    if (!Bound.insert(Key).second) {
      if (Notes)
        Notes->push_back({E->AnalysisId, "equivalent binding already "
                                         "loaded (" +
                                             Key.first + " via " +
                                             Key.second + ")"});
      continue;
    }
    T.addBinding(B.take());
    ++Registered;
  }
  return Registered;
}
