//===- SimCommon.cpp - Shared simulator infrastructure ----------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "sim/SimCommon.h"

#include "support/StringUtil.h"

using namespace extra;
using namespace extra::sim;

AsmStmt sim::parseAsmLine(const std::string &Line, char CommentChar) {
  AsmStmt Out;
  Out.Raw = Line;
  std::string Text = Line;
  size_t Comment = Text.find(CommentChar);
  if (Comment != std::string::npos)
    Text = Text.substr(0, Comment);
  std::string_view T = trim(Text);
  if (T.empty())
    return Out;

  // Label line: "name:" (possibly followed by nothing else).
  if (T.back() == ':' && T.find(' ') == std::string_view::npos &&
      T.find(',') == std::string_view::npos) {
    Out.Label = std::string(T.substr(0, T.size() - 1));
    return Out;
  }

  // Tokenize on whitespace and commas.
  std::string Tok;
  for (char C : T) {
    if (C == ' ' || C == '\t' || C == ',') {
      if (!Tok.empty()) {
        Out.Toks.push_back(Tok);
        Tok.clear();
      }
      continue;
    }
    Tok.push_back(C);
  }
  if (!Tok.empty())
    Out.Toks.push_back(Tok);
  return Out;
}

bool sim::assemble(const std::vector<std::string> &Lines, char CommentChar,
                   std::vector<AsmStmt> &Out,
                   std::map<std::string, size_t> &Labels,
                   std::string &Error) {
  Out.clear();
  Labels.clear();
  for (const std::string &Line : Lines) {
    AsmStmt S = parseAsmLine(Line, CommentChar);
    if (!S.Label.empty()) {
      if (!Labels.emplace(S.Label, Out.size()).second) {
        Error = "duplicate label '" + S.Label + "'";
        return false;
      }
      continue; // Labels point at the next statement.
    }
    if (!S.Toks.empty())
      Out.push_back(std::move(S));
  }
  return true;
}

unsigned sim::codeSize(const std::vector<std::string> &Lines,
                       char CommentChar) {
  unsigned N = 0;
  for (const std::string &Line : Lines) {
    AsmStmt S = parseAsmLine(Line, CommentChar);
    if (!S.Toks.empty())
      ++N;
  }
  return N;
}

bool Core::fail(const AsmStmt &S, const std::string &Why) {
  Res.Error = Why + " in '" + S.Raw + "'";
  return false;
}

namespace {

bool holds(const Core &C, Cond When) {
  switch (When) {
  case Cond::Always:
    return true;
  case Cond::Zero:
    return C.Zf;
  case Cond::NonZero:
    return !C.Zf;
  case Cond::Eq:
    return C.Diff == 0;
  case Cond::Ne:
    return C.Diff != 0;
  case Cond::Lt:
    return C.Diff < 0;
  case Cond::Le:
    return C.Diff <= 0;
  case Cond::Gt:
    return C.Diff > 0;
  case Cond::Ge:
    return C.Diff >= 0;
  }
  return false;
}

} // namespace

SimResult sim::simulate(const std::vector<std::string> &Asm,
                        const interp::Memory &InitialMemory,
                        const std::map<std::string, int64_t> &InitialRegs,
                        uint64_t MaxSteps, std::span<const Branch> Branches,
                        ExecFn Exec) {
  std::vector<AsmStmt> Prog;
  std::map<std::string, size_t> Labels;
  Core C;
  if (!assemble(Asm, ';', Prog, Labels, C.Res.Error))
    return std::move(C.Res);
  C.Res.Regs = InitialRegs;
  C.Res.Mem = InitialMemory;

  for (size_t Pc = 0; Pc < Prog.size();) {
    if (++C.Res.Instructions > MaxSteps) {
      C.Res.Error = "step limit exceeded";
      break;
    }
    const AsmStmt &S = Prog[Pc++];
    const std::string_view Op = S.Toks[0];
    const Branch *B = nullptr;
    for (const Branch &Row : Branches)
      if (Row.Mnemonic == Op) {
        B = &Row;
        break;
      }
    if (!B) {
      if (!Exec(C, S))
        break;
      continue;
    }
    // A branch that is not taken passes whatever its operands.
    if (!holds(C, B->When))
      continue;
    if (S.Toks.size() != 2) {
      C.fail(S, "unknown instruction '" + S.Toks[0] + "'");
      break;
    }
    auto It = Labels.find(S.Toks[1]);
    if (It == Labels.end()) {
      C.fail(S, "unknown label '" + S.Toks[1] + "'");
      break;
    }
    Pc = It->second;
  }
  C.Res.Ok = C.Res.Error.empty();
  return std::move(C.Res);
}
