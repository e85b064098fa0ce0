//===- Registry.cpp - The deployable binding registry -----------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "registry/Registry.h"

#include "support/Json.h"

#include <cstdio>
#include <cstdlib>

using namespace extra;
using namespace extra::registry;
using support::jsonEscape;

support::FileFormat registry::registryFileFormat() {
  return {kRegistryFormat, kRegistryVersion, "binding registry"};
}

std::string registry::machineOfInstruction(const std::string &InstructionId) {
  auto Dot = InstructionId.find('.');
  return Dot == std::string::npos ? std::string()
                                  : InstructionId.substr(0, Dot);
}

std::string registry::mnemonicOfInstruction(const std::string &InstructionId) {
  auto Dot = InstructionId.find('.');
  return Dot == std::string::npos ? InstructionId
                                  : InstructionId.substr(Dot + 1);
}

std::string registry::opKindOfOperator(const std::string &OperatorId) {
  auto Dot = OperatorId.find('.');
  std::string Tail =
      Dot == std::string::npos ? OperatorId : OperatorId.substr(Dot + 1);
  // The operator library names map onto the code generator's five OpKinds
  // (codegen/IR.h). "span" and future library growth fall outside the
  // vocabulary: such entries stay in the registry (the format carries
  // them) but the BindingCompiler skips them with a note.
  if (Tail == "index" || Tail == "search")
    return "StrIndex";
  if (Tail == "smove" || Tail == "move" || Tail == "sassign")
    return "StrMove";
  if (Tail == "sequal")
    return "StrEqual";
  if (Tail == "copy")
    return "BlockCopy";
  if (Tail == "clear")
    return "BlockClear";
  return std::string();
}

std::string RegistryEntry::toJsonLine() const {
  auto Hex = [](uint64_t V) {
    char Buf[24];
    std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                  static_cast<unsigned long long>(V));
    return std::string(Buf);
  };
  std::string Out = "{";
  Out += "\"key\":\"" + jsonEscape(Key) + "\"";
  Out += ",\"case\":\"" + jsonEscape(AnalysisId) + "\"";
  Out += ",\"operator\":\"" + jsonEscape(OperatorId) + "\"";
  Out += ",\"instruction\":\"" + jsonEscape(InstructionId) + "\"";
  Out += ",\"mode\":\"" + std::string(analysis::modeName(M)) + "\"";
  Out += ",\"fp_op\":\"" + Hex(FpOp) + "\"";
  Out += ",\"fp_inst\":\"" + Hex(FpInst) + "\"";
  Out += ",\"machine\":\"" + jsonEscape(Machine) + "\"";
  Out += ",\"mnemonic\":\"" + jsonEscape(Mnemonic) + "\"";
  Out += ",\"op\":\"" + jsonEscape(Op) + "\"";
  Out += ",\"constraints\":\"" + jsonEscape(Constraints) + "\"";
  Out += ",\"op_script\":\"" + jsonEscape(OpScript) + "\"";
  Out += ",\"inst_script\":\"" + jsonEscape(InstScript) + "\"";
  Out += ",\"binding\":\"" + jsonEscape(Binding) + "\"";
  Out += ",\"source\":\"" + jsonEscape(Source) + "\"";
  Out += ",\"beam\":" + std::to_string(BeamWidth);
  Out += ",\"depth\":" + std::to_string(MaxDepth);
  Out += ",\"widenings\":" + std::to_string(Widenings);
  Out += ",\"max_nodes\":" + std::to_string(MaxNodes);
  Out += ",\"time_budget_ms\":" + std::to_string(TimeBudgetMs);
  char WallBuf[32];
  std::snprintf(WallBuf, sizeof(WallBuf), "%.3f", WallMs);
  Out += ",\"wall_ms\":" + std::string(WallBuf);
  Out += "}";
  return Out;
}

std::optional<RegistryEntry>
RegistryEntry::fromJsonLine(std::string_view Line) {
  auto O = support::parseJsonObjectLine(Line);
  if (!O)
    return std::nullopt;
  auto Get = [&O](const char *Key) { return O->field(Key); };
  RegistryEntry E;
  E.Key = Get("key");
  E.AnalysisId = Get("case");
  if (E.Key.empty() || E.AnalysisId.empty())
    return std::nullopt; // Torn line or a foreign record.
  E.OperatorId = Get("operator");
  E.InstructionId = Get("instruction");
  auto M = analysis::modeFromName(Get("mode"));
  if (!M)
    return std::nullopt;
  E.M = *M;
  E.FpOp = std::strtoull(Get("fp_op").c_str(), nullptr, 16);
  E.FpInst = std::strtoull(Get("fp_inst").c_str(), nullptr, 16);
  E.Machine = Get("machine");
  E.Mnemonic = Get("mnemonic");
  E.Op = Get("op");
  E.Constraints = Get("constraints");
  E.OpScript = Get("op_script");
  E.InstScript = Get("inst_script");
  E.Binding = Get("binding");
  E.Source = Get("source");
  E.BeamWidth =
      static_cast<unsigned>(std::strtoul(Get("beam").c_str(), nullptr, 10));
  E.MaxDepth =
      static_cast<unsigned>(std::strtoul(Get("depth").c_str(), nullptr, 10));
  E.Widenings = static_cast<unsigned>(
      std::strtoul(Get("widenings").c_str(), nullptr, 10));
  E.MaxNodes = std::strtoull(Get("max_nodes").c_str(), nullptr, 10);
  E.TimeBudgetMs = std::strtoull(Get("time_budget_ms").c_str(), nullptr, 10);
  E.WallMs = std::strtod(Get("wall_ms").c_str(), nullptr);
  return E;
}

void Registry::upsert(RegistryEntry E) {
  std::string Key = E.Key;
  ByKey[std::move(Key)] = std::move(E);
}

const RegistryEntry *Registry::find(const std::string &Key) const {
  auto It = ByKey.find(Key);
  return It == ByKey.end() ? nullptr : &It->second;
}

std::vector<const RegistryEntry *> Registry::entries() const {
  std::vector<const RegistryEntry *> Out;
  Out.reserve(ByKey.size());
  for (const auto &[Key, E] : ByKey)
    Out.push_back(&E);
  return Out;
}

Expected<Registry> Registry::load(const std::string &Path) {
  auto Lines = support::readVersionedLines(Path, registryFileFormat());
  if (!Lines)
    return Lines.fault();
  Registry R;
  for (const std::string &Line : *Lines) {
    auto E = RegistryEntry::fromJsonLine(Line);
    if (!E)
      continue; // Torn trailing write — skip, like every store reader.
    R.upsert(std::move(*E));
  }
  return R;
}

Expected<bool> Registry::save(const std::string &Path) const {
  std::vector<std::string> Lines;
  Lines.reserve(ByKey.size());
  for (const auto &[Key, E] : ByKey)
    Lines.push_back(E.toJsonLine());
  return support::writeVersionedFile(Path, registryFileFormat(), Lines);
}
