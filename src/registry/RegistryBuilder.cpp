//===- RegistryBuilder.cpp - Import discovery artifacts ---------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "registry/RegistryBuilder.h"

#include "descriptions/Descriptions.h"
#include "isdl/Intern.h"
#include "transform/ScriptIO.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <sstream>

using namespace extra;
using namespace extra::registry;

namespace {

/// Cheap replay budget: the derivations were verified at full strength
/// when recorded/discovered; the import replay is a smoke check that the
/// scripts still apply against this build's descriptions.
analysis::DiffOptions importDiffOptions() {
  analysis::DiffOptions Opts;
  Opts.Trials = 4;
  return Opts;
}

} // namespace

Expected<std::string> registry::pairingKeyHex(const std::string &OperatorId,
                                              const std::string &InstructionId,
                                              analysis::Mode M) {
  auto Op = descriptions::loadChecked(OperatorId);
  if (!Op)
    return Op.fault();
  auto Inst = descriptions::loadChecked(InstructionId);
  if (!Inst)
    return Inst.fault();
  uint64_t Key = isdl::pairKey(isdl::canonicalFingerprint(**Op),
                               isdl::canonicalFingerprint(**Inst));
  // Extension mode changes what the analysis may conclude (relational
  // constraints), so the two modes are distinct cache lines.
  if (M == analysis::Mode::Extension)
    Key ^= 0x9e3779b97f4a7c15ull;
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(Key));
  return std::string(Buf);
}

std::optional<RegistryEntry>
RegistryBuilder::entryFor(const analysis::AnalysisCase &Case,
                          const analysis::AnalysisResult &R,
                          const std::string &Source, double WallMs) {
  analysis::Mode M = Case.RequiresExtension ? analysis::Mode::Extension
                                            : analysis::Mode::Base;
  auto Key = pairingKeyHex(Case.OperatorId, Case.InstructionId, M);
  if (!Key) {
    Notes.push_back({Case.Id, Key.fault().Message});
    return std::nullopt;
  }
  auto Op = descriptions::loadChecked(Case.OperatorId);
  auto Inst = descriptions::loadChecked(Case.InstructionId);
  if (!Op || !Inst) {
    Notes.push_back({Case.Id, "descriptions unavailable"});
    return std::nullopt;
  }
  RegistryEntry E;
  E.Key = *Key;
  E.AnalysisId = Case.Id;
  E.OperatorId = Case.OperatorId;
  E.InstructionId = Case.InstructionId;
  E.M = M;
  E.FpOp = isdl::canonicalFingerprint(**Op);
  E.FpInst = isdl::canonicalFingerprint(**Inst);
  E.Machine = machineOfInstruction(Case.InstructionId);
  E.Mnemonic = mnemonicOfInstruction(Case.InstructionId);
  E.Op = opKindOfOperator(Case.OperatorId);
  E.Constraints = R.Constraints.str();
  E.OpScript = transform::printScript(Case.OperatorScript);
  E.InstScript = transform::printScript(Case.InstructionScript);
  E.Binding = R.Binding.str();
  E.Source = Source;
  E.WallMs = WallMs;
  return E;
}

bool RegistryBuilder::admitCase(const analysis::AnalysisCase &Case,
                                const std::string &Source) {
  analysis::Mode M = Case.RequiresExtension ? analysis::Mode::Extension
                                            : analysis::Mode::Base;
  auto T0 = std::chrono::steady_clock::now();
  analysis::AnalysisResult R = analysis::runAnalysis(Case, M,
                                                     importDiffOptions());
  double WallMs =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - T0)
          .count();
  if (!R.Succeeded) {
    Notes.push_back({Case.Id, "replay failed: " + R.FailureReason});
    return false;
  }
  auto E = entryFor(Case, R, Source, WallMs);
  if (!E)
    return false;
  Reg.upsert(std::move(*E));
  return true;
}

bool RegistryBuilder::admitDiscovery(const search::BatchCase &C,
                                     const search::DiscoveryResult &D,
                                     const search::SearchLimits &L,
                                     double WallMs) {
  if (!D.Verified) {
    Notes.push_back({C.Id, "not verified; not admitted"});
    return false;
  }
  // The case discoverAndVerify replayed: the discovered scripts, in the
  // search's mode.
  analysis::AnalysisCase Case;
  Case.Id = C.Id;
  Case.OperatorId = C.OperatorId;
  Case.InstructionId = C.InstructionId;
  Case.OperatorScript = D.Outcome.OperatorScript;
  Case.InstructionScript = D.Outcome.InstructionScript;
  Case.RequiresExtension = C.M == analysis::Mode::Extension;
  auto E = entryFor(Case, D.Replay, "search", WallMs);
  if (!E)
    return false;
  E->BeamWidth = L.BeamWidth;
  E->MaxDepth = L.MaxDepth;
  E->Widenings = L.Widenings;
  E->MaxNodes = L.MaxNodes;
  E->TimeBudgetMs = L.TimeBudgetMs;
  Reg.upsert(std::move(*E));
  return true;
}

unsigned RegistryBuilder::admitScriptFiles(const analysis::ScriptFiles &Files,
                                           const std::string &Source) {
  const std::string OpSuffix = ".operator.script";
  unsigned Admitted = 0;
  for (const auto &[OpName, OpText] : Files) {
    if (!OpName.ends_with(OpSuffix))
      continue;
    std::string Stem = OpName.substr(0, OpName.size() - OpSuffix.size());
    std::string CaseId = Stem;
    std::replace(CaseId.begin(), CaseId.end(), '_', '/');
    const analysis::AnalysisCase *Known = analysis::findCase(CaseId);
    if (!Known) {
      Notes.push_back({CaseId, "no recorded derivation for this script"});
      continue;
    }
    auto Inst = Files.find(Stem + ".instruction.script");
    if (Inst == Files.end()) {
      Notes.push_back({CaseId, "script file pair incomplete"});
      continue;
    }
    auto OpScript = analysis::parseScriptFile(OpName, OpText);
    auto InstScript = analysis::parseScriptFile(Inst->first, Inst->second);
    if (!OpScript || !InstScript) {
      const Fault &F = OpScript ? InstScript.fault() : OpScript.fault();
      Notes.push_back({CaseId, F.Message});
      continue;
    }
    // Replay the files' scripts, not the corpus case's, so a stale or
    // hand-edited file is verified on its own terms.
    analysis::AnalysisCase Case = *Known;
    Case.OperatorScript = OpScript.take();
    Case.InstructionScript = InstScript.take();
    if (admitCase(Case, Source))
      ++Admitted;
  }
  return Admitted;
}

Expected<unsigned> RegistryBuilder::addRecordedCases() {
  return admitScriptFiles(analysis::shippedScripts(), "recorded");
}

const Registry &registry::recordedCorpus() {
  static const Registry Corpus = [] {
    RegistryBuilder B;
    (void)B.addRecordedCases(); // Never faults; a failed replay is a note.
    return B.registry();
  }();
  return Corpus;
}

Expected<unsigned> RegistryBuilder::importScriptsDir(const std::string &Dir) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return makeFault(FaultCategory::Store,
                     "cannot open scripts directory '" + Dir + "'");
  analysis::ScriptFiles Files;
  while (struct dirent *Ent = ::readdir(D)) {
    std::string Name = Ent->d_name;
    if (!Name.ends_with(".script"))
      continue;
    std::ifstream F(Dir + "/" + Name);
    if (!F) {
      Notes.push_back({Name, "cannot read this script file"});
      continue;
    }
    std::ostringstream Text;
    Text << F.rdbuf();
    Files[Name] = Text.str();
  }
  ::closedir(D);
  return admitScriptFiles(Files, "scripts");
}
