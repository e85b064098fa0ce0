//===- Checkpoint.cpp - Typed case outcomes and batch checkpoints -*- C++ -===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "search/Checkpoint.h"

#include "obs/Trace.h"
#include "obs/TraceFile.h"
#include "support/VersionedFile.h"

#include <cstdlib>
#include <fstream>
#include <map>

using namespace extra;
using namespace extra::search;

const char *search::caseOutcomeName(CaseOutcome O) {
  switch (O) {
  case CaseOutcome::Verified:
    return "verified";
  case CaseOutcome::Discovered:
    return "discovered";
  case CaseOutcome::Exhausted:
    return "exhausted";
  case CaseOutcome::TimedOut:
    return "timed-out";
  case CaseOutcome::Faulted:
    return "faulted";
  }
  return "?";
}

std::optional<CaseOutcome> search::caseOutcomeFromName(std::string_view Name) {
  for (CaseOutcome O :
       {CaseOutcome::Verified, CaseOutcome::Discovered, CaseOutcome::Exhausted,
        CaseOutcome::TimedOut, CaseOutcome::Faulted})
    if (Name == caseOutcomeName(O))
      return O;
  return std::nullopt;
}

int search::caseOutcomeRank(CaseOutcome O) {
  switch (O) {
  case CaseOutcome::Verified:
    return 4;
  case CaseOutcome::Discovered:
    return 3;
  case CaseOutcome::Exhausted:
    return 2;
  case CaseOutcome::TimedOut:
    return 1;
  case CaseOutcome::Faulted:
    return 0;
  }
  return 0;
}

std::string CheckpointRecord::toJsonLine() const {
  std::string Out = "{\"case\":\"" + obs::jsonEscape(Case) + "\"";
  Out += ",\"mode\":\"" + std::string(analysis::modeName(M)) + "\"";
  Out += ",\"outcome\":\"" + std::string(caseOutcomeName(Outcome)) + "\"";
  Out += ",\"fault_category\":\"" + std::string(faultCategoryName(Category)) +
         "\"";
  Out += ",\"fault_message\":\"" + obs::jsonEscape(FaultMessage) + "\"";
  Out += std::string(",\"found\":") + (Found ? "true" : "false");
  Out += std::string(",\"verified\":") + (Verified ? "true" : "false");
  Out += std::string(",\"retried\":") + (Retried ? "true" : "false");
  Out += ",\"op_steps\":" + std::to_string(OpSteps);
  Out += ",\"inst_steps\":" + std::to_string(InstSteps);
  Out += ",\"nodes\":" + std::to_string(Nodes);
  Out += ",\"partial_distance\":" + std::to_string(PartialDistance);
  Out += ",\"wall_ms\":" + std::to_string(WallMs);
  Out += "}";
  return Out;
}

std::optional<CheckpointRecord>
CheckpointRecord::fromJsonLine(std::string_view Line) {
  auto Fields = obs::parseJsonObjectLine(Line);
  if (!Fields)
    return std::nullopt;
  auto Get = [&](const char *Key) -> std::string {
    auto It = Fields->find(Key);
    return It == Fields->end() ? std::string() : It->second;
  };
  CheckpointRecord R;
  R.Case = Get("case");
  if (R.Case.empty())
    return std::nullopt;
  if (auto It = Fields->find("mode"); It != Fields->end()) {
    auto M = analysis::modeFromName(It->second);
    if (!M)
      return std::nullopt;
    R.M = *M;
  }
  auto O = caseOutcomeFromName(Get("outcome"));
  if (!O)
    return std::nullopt;
  R.Outcome = *O;
  R.Category = faultCategoryFromName(Get("fault_category"));
  R.FaultMessage = Get("fault_message");
  R.Found = Get("found") == "true";
  R.Verified = Get("verified") == "true";
  R.Retried = Get("retried") == "true";
  R.OpSteps = std::strtoull(Get("op_steps").c_str(), nullptr, 10);
  R.InstSteps = std::strtoull(Get("inst_steps").c_str(), nullptr, 10);
  R.Nodes = std::strtoull(Get("nodes").c_str(), nullptr, 10);
  R.PartialDistance = std::strtoll(Get("partial_distance").c_str(), nullptr,
                                   10);
  R.WallMs = std::strtod(Get("wall_ms").c_str(), nullptr);
  return R;
}

std::string CheckpointRecord::reportLine() const {
  std::string Out = "  " + Case + ": " + caseOutcomeName(Outcome);
  std::string Detail;
  auto Append = [&Detail](const std::string &Part) {
    Detail += (Detail.empty() ? "" : ", ") + Part;
  };
  if (Found)
    Append("steps " + std::to_string(OpSteps) + "+" +
           std::to_string(InstSteps));
  else if (OpSteps + InstSteps > 0)
    Append("partial steps " + std::to_string(OpSteps) + "+" +
           std::to_string(InstSteps));
  if (PartialDistance >= 0)
    Append("partial distance " + std::to_string(PartialDistance));
  if (Nodes > 0)
    Append("nodes " + std::to_string(Nodes));
  if (Category != FaultCategory::None)
    Append(std::string(faultCategoryName(Category)) + ": " + FaultMessage);
  if (!Detail.empty())
    Out += " (" + Detail + ")";
  if (Retried)
    Out += " [retried]";
  return Out;
}

std::string search::versionHeaderLine(std::string_view Format,
                                      uint32_t Version) {
  return support::versionHeaderLine(Format, Version);
}

std::optional<std::pair<std::string, uint32_t>>
search::parseVersionHeader(std::string_view Line) {
  return support::parseVersionHeader(Line);
}

/// The checkpoint file format, as the shared versioned-file layer sees it.
static support::FileFormat checkpointFormat() {
  return {kCheckpointFormat, kCheckpointVersion, "checkpoint"};
}

bool search::appendCheckpoint(const std::string &Path,
                              const CheckpointRecord &R, std::string *Error) {
  auto Ok = support::appendVersionedLine(Path, checkpointFormat(),
                                         R.toJsonLine());
  if (!Ok) {
    if (Error)
      *Error = Ok.fault().Message;
    return false;
  }
  return true;
}

std::vector<CheckpointRecord> search::readCheckpoints(const std::string &Path,
                                                      Fault *F) {
  auto Lines = support::readVersionedLines(Path, checkpointFormat());
  if (!Lines) {
    if (F)
      *F = Lines.fault();
    return {};
  }
  // Later records win: a resumed run that re-ran a case (e.g. under a
  // different policy) supersedes the earlier line for the same mode.
  std::vector<CheckpointRecord> Out;
  std::map<std::pair<std::string, analysis::Mode>, size_t> ByCase;
  for (const std::string &Line : *Lines) {
    auto R = CheckpointRecord::fromJsonLine(Line);
    if (!R)
      continue; // Torn trailing write from a killed run — skip.
    auto [It, New] = ByCase.try_emplace({R->Case, R->M}, Out.size());
    if (New)
      Out.push_back(std::move(*R));
    else
      Out[It->second] = std::move(*R);
  }
  return Out;
}

Expected<std::vector<CheckpointRecord>>
search::readCheckpointsChecked(const std::string &Path) {
  Fault F;
  std::vector<CheckpointRecord> Out = readCheckpoints(Path, &F);
  if (F.isFault())
    return F;
  return Out;
}
