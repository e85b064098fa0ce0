//===- Checkpoint.cpp - Typed case outcomes and batch checkpoints -*- C++ -===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "search/Checkpoint.h"

#include "support/Json.h"
#include "support/VersionedFile.h"

#include <cstdlib>
#include <map>

using namespace extra;
using namespace extra::search;
using support::jsonEscape;

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
  std::string Out = "{\"case\":\"" + jsonEscape(Case) + "\"";
  Out += ",\"mode\":\"" + std::string(analysis::modeName(M)) + "\"";
  Out += ",\"outcome\":\"" + std::string(caseOutcomeName(Outcome)) + "\"";
  Out += ",\"fault_category\":\"" + std::string(faultCategoryName(Category)) +
         "\"";
  Out += ",\"fault_message\":\"" + jsonEscape(FaultMessage) + "\"";
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
  auto O = support::parseJsonObjectLine(Line);
  if (!O)
    return std::nullopt;
  CheckpointRecord R;
  R.Case = O->field("case");
  if (R.Case.empty())
    return std::nullopt;
  if (auto It = O->Fields.find("mode"); It != O->Fields.end()) {
    auto M = analysis::modeFromName(It->second);
    if (!M)
      return std::nullopt;
    R.M = *M;
  }
  auto Outcome = caseOutcomeFromName(O->field("outcome"));
  if (!Outcome)
    return std::nullopt;
  R.Outcome = *Outcome;
  R.Category = faultCategoryFromName(O->field("fault_category"));
  R.FaultMessage = O->field("fault_message");
  R.Found = O->field("found") == "true";
  R.Verified = O->field("verified") == "true";
  R.Retried = O->field("retried") == "true";
  R.OpSteps = std::strtoull(O->field("op_steps").c_str(), nullptr, 10);
  R.InstSteps = std::strtoull(O->field("inst_steps").c_str(), nullptr, 10);
  R.Nodes = std::strtoull(O->field("nodes").c_str(), nullptr, 10);
  R.PartialDistance =
      std::strtoll(O->field("partial_distance").c_str(), nullptr, 10);
  R.WallMs = std::strtod(O->field("wall_ms").c_str(), nullptr);
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

Expected<std::vector<CheckpointRecord>>
search::readCheckpoints(const std::string &Path) {
  auto Lines = support::readVersionedLines(Path, checkpointFormat());
  if (!Lines)
    return Lines.fault();
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
