//===- RegistryBuilder.cpp - Import discovery artifacts ---------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "registry/RegistryBuilder.h"

#include "analysis/Derivations.h"
#include "descriptions/Descriptions.h"
#include "obs/TraceFile.h"
#include "search/Canon.h"
#include "search/Checkpoint.h"
#include "transform/ScriptIO.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
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

bool RegistryBuilder::admitCase(const analysis::AnalysisCase &Case,
                                const std::string &Source) {
  analysis::Mode M = Case.RequiresExtension ? analysis::Mode::Extension
                                            : analysis::Mode::Base;
  auto Key = search::pairingKeyHex(Case.OperatorId, Case.InstructionId, M);
  if (!Key) {
    Notes.push_back({Case.Id, Key.fault().Message});
    return false;
  }
  auto Op = descriptions::loadChecked(Case.OperatorId);
  auto Inst = descriptions::loadChecked(Case.InstructionId);
  if (!Op || !Inst) {
    Notes.push_back({Case.Id, "descriptions unavailable"});
    return false;
  }

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

  RegistryEntry E;
  E.Key = *Key;
  E.AnalysisId = Case.Id;
  E.OperatorId = Case.OperatorId;
  E.InstructionId = Case.InstructionId;
  E.M = M;
  E.FpOp = search::fingerprint(**Op);
  E.FpInst = search::fingerprint(**Inst);
  E.Machine = machineOfInstruction(Case.InstructionId);
  E.Mnemonic = mnemonicOfInstruction(Case.InstructionId);
  E.Op = opKindOfOperator(Case.OperatorId);
  E.Constraints = R.Constraints.str();
  E.OpScript = transform::printScript(Case.OperatorScript);
  E.InstScript = transform::printScript(Case.InstructionScript);
  E.Binding = R.Binding.str();
  E.Source = Source;
  E.WallMs = WallMs;
  Reg.upsert(std::move(E));
  return true;
}

Expected<unsigned> RegistryBuilder::addRecordedCases() {
  unsigned Admitted = 0;
  for (const analysis::AnalysisCase &C : analysis::table2Cases())
    if (admitCase(C, "recorded"))
      ++Admitted;
  for (const analysis::AnalysisCase &C : analysis::extendedCases())
    if (admitCase(C, "recorded"))
      ++Admitted;
  if (admitCase(analysis::movc3SassignCase(), "recorded"))
    ++Admitted;
  return Admitted;
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
  std::vector<std::string> Stems;
  const std::string OpSuffix = ".operator.script";
  while (struct dirent *Ent = ::readdir(D)) {
    std::string Name = Ent->d_name;
    if (Name.size() > OpSuffix.size() &&
        Name.compare(Name.size() - OpSuffix.size(), OpSuffix.size(),
                     OpSuffix) == 0)
      Stems.push_back(Name.substr(0, Name.size() - OpSuffix.size()));
  }
  ::closedir(D);
  std::sort(Stems.begin(), Stems.end()); // Deterministic import order.

  auto Slurp = [](const std::string &Path, bool &Ok) {
    std::ifstream F(Path);
    Ok = F.good();
    std::ostringstream Out;
    Out << F.rdbuf();
    return Out.str();
  };

  unsigned Admitted = 0;
  for (const std::string &Stem : Stems) {
    // The export-script naming scheme encodes the case id's '/' as '_'.
    std::string CaseId = Stem;
    std::replace(CaseId.begin(), CaseId.end(), '_', '/');
    const analysis::AnalysisCase *Known = analysis::findCase(CaseId);
    if (!Known) {
      Notes.push_back({CaseId, "no recorded derivation for this script"});
      continue;
    }
    bool OpOk = false, InstOk = false;
    std::string OpText = Slurp(Dir + "/" + Stem + OpSuffix, OpOk);
    std::string InstText =
        Slurp(Dir + "/" + Stem + ".instruction.script", InstOk);
    if (!OpOk || !InstOk) {
      Notes.push_back({CaseId, "script file pair incomplete"});
      continue;
    }
    DiagnosticEngine OpDiags, InstDiags;
    auto OpScript = transform::parseScript(OpText, OpDiags);
    auto InstScript = transform::parseScript(InstText, InstDiags);
    if (!OpScript || !InstScript) {
      Notes.push_back({CaseId, "script parse failed: " +
                                   (OpScript ? InstDiags.str()
                                             : OpDiags.str())});
      continue;
    }
    // Replay the *file's* scripts (not the built-in ones) so a stale or
    // hand-edited file is verified on its own terms.
    analysis::AnalysisCase Case = *Known;
    Case.OperatorScript = std::move(*OpScript);
    Case.InstructionScript = std::move(*InstScript);
    if (admitCase(Case, "scripts"))
      ++Admitted;
  }
  return Admitted;
}

Expected<unsigned> RegistryBuilder::importMemoFile(const std::string &Path) {
  // Lock-free read of the server's format: the registry export must work
  // while a server holds the store's sidecar lock, and a read takes no
  // lock by design (torn trailing lines are skipped like everywhere
  // else). The format constants are restated here rather than linking
  // the server library: the registry sits below the server in the
  // layering (the server links the registry for its export verb).
  support::FileFormat MemoFormat{"extra-memo", 1, "memo store"};
  auto Lines = support::readVersionedLines(Path, MemoFormat);
  if (!Lines)
    return Lines.fault();

  unsigned Admitted = 0;
  for (const std::string &Line : *Lines) {
    auto Fields = obs::parseJsonObjectLine(Line);
    if (!Fields)
      continue; // Torn trailing write.
    auto Get = [&](const char *Key) -> std::string {
      auto It = Fields->find(Key);
      return It == Fields->end() ? std::string() : It->second;
    };
    std::string CaseId = Get("case");
    if (Get("key").empty() || CaseId.empty())
      continue; // A plain checkpoint line, not a memo entry.
    if (Get("outcome") != "verified") {
      Notes.push_back({CaseId, "memo entry not verified (" + Get("outcome") +
                                   "); skipped"});
      continue;
    }
    auto M = analysis::modeFromName(Get("mode"));
    if (!M) {
      Notes.push_back({CaseId, "memo entry has unknown mode"});
      continue;
    }
    std::string OperatorId = Get("operator");
    std::string InstructionId = Get("instruction");
    // Canonical fingerprints are recomputed from the descriptions (a
    // verified memo entry carries none — its fp fields are the partial
    // frontier of failed searches). Unknown ids mean the store came from
    // a build with descriptions this one lacks: note and skip.
    auto Op = descriptions::loadChecked(OperatorId);
    auto Inst = descriptions::loadChecked(InstructionId);
    if (!Op || !Inst) {
      Notes.push_back({CaseId, "descriptions unknown to this build"});
      continue;
    }
    RegistryEntry E;
    E.Key = Get("key");
    E.AnalysisId = CaseId;
    E.OperatorId = OperatorId;
    E.InstructionId = InstructionId;
    E.M = *M;
    E.FpOp = search::fingerprint(**Op);
    E.FpInst = search::fingerprint(**Inst);
    E.Machine = machineOfInstruction(InstructionId);
    E.Mnemonic = mnemonicOfInstruction(InstructionId);
    E.Op = opKindOfOperator(OperatorId);
    // Server-verified payload, trusted verbatim.
    E.Constraints = Get("constraints");
    E.OpScript = Get("op_script");
    E.InstScript = Get("inst_script");
    E.Binding = Get("binding");
    E.Source = "memo";
    E.BeamWidth = static_cast<unsigned>(
        std::strtoul(Get("beam").c_str(), nullptr, 10));
    E.MaxDepth = static_cast<unsigned>(
        std::strtoul(Get("depth").c_str(), nullptr, 10));
    E.Widenings = static_cast<unsigned>(
        std::strtoul(Get("widenings").c_str(), nullptr, 10));
    E.MaxNodes = std::strtoull(Get("max_nodes").c_str(), nullptr, 10);
    E.TimeBudgetMs =
        std::strtoull(Get("time_budget_ms").c_str(), nullptr, 10);
    E.WallMs = std::strtod(Get("wall_ms").c_str(), nullptr);
    Reg.upsert(std::move(E));
    ++Admitted;
  }
  return Admitted;
}

Expected<unsigned> RegistryBuilder::importCheckpoint(const std::string &Path) {
  auto Records = search::readCheckpointsChecked(Path);
  if (!Records)
    return Records.fault();
  unsigned Admitted = 0;
  for (const search::CheckpointRecord &R : *Records) {
    if (R.Outcome != search::CaseOutcome::Verified)
      continue;
    // Checkpoint records carry no scripts; replay the library derivation
    // for the case id to regenerate the payload.
    const analysis::AnalysisCase *Case = analysis::findCase(R.Case);
    if (!Case) {
      Notes.push_back({R.Case, "no recorded derivation for this case id"});
      continue;
    }
    if (admitCase(*Case, "checkpoint"))
      ++Admitted;
  }
  return Admitted;
}
