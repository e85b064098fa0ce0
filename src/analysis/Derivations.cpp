//===- Derivations.cpp - The recorded derivation corpus ---------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "analysis/Derivations.h"

#include "transform/ScriptIO.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace extra;
using namespace extra::analysis;

namespace {

/// One corpus case: its id and Table 2 columns. The steps are in the
/// case's two script files.
struct Row {
  const char *Id;
  const char *Machine;
  const char *Instruction;
  const char *Language;
  const char *Operation;
  unsigned PaperSteps;
  bool Extension;
};

constexpr Row Rows[] = {
    {"i8086.movsb/pascal.smove", "Intel 8086", "movsb", "Pascal",
     "string move", 52, false},
    {"i8086.movsb/pl1.move", "Intel 8086", "movsb", "PL/1", "string move", 66,
     false},
    {"i8086.scasb/rigel.index", "Intel 8086", "scasb", "Rigel",
     "string search", 73, false},
    {"i8086.scasb/clu.search", "Intel 8086", "scasb", "CLU", "string search",
     86, false},
    {"i8086.cmpsb/pascal.sequal", "Intel 8086", "cmpsb", "Pascal",
     "string compare", 79, false},
    {"vax.movc3/pc2.copy", "VAX-11", "movc3", "PC2", "block copy", 21, false},
    {"vax.movc5/pc2.clear", "VAX-11", "movc5", "PC2", "block clear", 26,
     false},
    {"vax.locc/rigel.index", "VAX-11", "locc", "Rigel", "string search", 33,
     false},
    {"vax.locc/clu.search", "VAX-11", "locc", "CLU", "string search", 32,
     false},
    {"vax.cmpc3/pascal.sequal", "VAX-11", "cmpc3", "Pascal", "string compare",
     47, false},
    {"ibm370.mvc/pascal.sassign", "IBM 370", "mvc", "Pascal", "string move",
     105, false},
    {"i8086.stosb/pc2.clear", "Intel 8086", "stosb", "PC2", "block clear", 0,
     false},
    {"vax.skpc/rigel.span", "VAX-11", "skpc", "Rigel", "span", 0, false},
    {"vax.movc3/pascal.sassign", "VAX-11", "movc3", "Pascal",
     "string assignment", 0, true},
};
constexpr size_t NumTable2 = 11, NumExtended = 2;
static_assert(std::size(Rows) == NumTable2 + NumExtended + 1);

/// One side of a recorded derivation, parsed from its shipped file. The
/// files are compiled in, so one that is missing or does not parse is a
/// build defect: it stops the process.
transform::Script loadSide(const std::string &CaseId, const char *Side) {
  std::string Name = CaseId + "." + Side + ".script";
  std::replace(Name.begin(), Name.end(), '/', '_');
  auto It = shippedScripts().find(Name);
  Expected<transform::Script> S =
      It == shippedScripts().end()
          ? makeFault(FaultCategory::Parse, Name + ": not in scripts/")
          : parseScriptFile(Name, It->second);
  if (!S) {
    std::fprintf(stderr, "recorded corpus: %s\n", S.fault().Message.c_str());
    std::abort();
  }
  return S.take();
}

} // namespace

Expected<transform::Script>
analysis::parseScriptFile(const std::string &Name, std::string_view Text) {
  DiagnosticEngine Diags;
  auto S = transform::parseScript(Text, Diags);
  if (!S) {
    std::string Message;
    for (const Diagnostic &D : Diags.diagnostics())
      Message += (Message.empty() ? "" : "; ") + Name + ":" + D.str();
    return makeFault(FaultCategory::Parse, Message);
  }
  return std::move(*S);
}

const std::vector<AnalysisCase> &analysis::corpus() {
  static const std::vector<AnalysisCase> Cases = [] {
    std::vector<AnalysisCase> Out;
    for (const Row &R : Rows) {
      AnalysisCase C;
      C.Id = R.Id;
      size_t Slash = C.Id.find('/');
      C.InstructionId = C.Id.substr(0, Slash);
      C.OperatorId = C.Id.substr(Slash + 1);
      C.Machine = R.Machine;
      C.Instruction = R.Instruction;
      C.Language = R.Language;
      C.Operation = R.Operation;
      C.PaperSteps = R.PaperSteps;
      C.RequiresExtension = R.Extension;
      C.OperatorScript = loadSide(C.Id, "operator");
      C.InstructionScript = loadSide(C.Id, "instruction");
      Out.push_back(std::move(C));
    }
    return Out;
  }();
  return Cases;
}

std::span<const AnalysisCase> analysis::table2Cases() {
  return std::span(corpus()).first(NumTable2);
}

std::span<const AnalysisCase> analysis::extendedCases() {
  return std::span(corpus()).subspan(NumTable2, NumExtended);
}

const AnalysisCase &analysis::movc3SassignCase() { return corpus().back(); }

const AnalysisCase *analysis::findCase(const std::string &Id) {
  for (const AnalysisCase &C : corpus())
    if (C.Id == Id)
      return &C;
  return nullptr;
}
