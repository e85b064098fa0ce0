//===- TraceFile.cpp - Reading JSONL traces back ------------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "obs/TraceFile.h"

#include <cstdlib>

using namespace extra;
using namespace extra::obs;

std::optional<std::vector<TraceRecord>> obs::readTrace(std::istream &In,
                                                       std::string *Error) {
  std::vector<TraceRecord> Out;
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    auto Obj = support::parseJsonObjectLine(Line);
    if (!Obj) {
      if (Error)
        *Error = "malformed trace line " + std::to_string(LineNo);
      return std::nullopt;
    }
    TraceRecord R;
    R.Fields = std::move(Obj->Fields);
    auto Take = [&](const char *Key, uint64_t &Slot) {
      auto It = R.Fields.find(Key);
      if (It != R.Fields.end()) {
        Slot = std::strtoull(It->second.c_str(), nullptr, 0);
        R.Fields.erase(It);
      }
    };
    auto Type = R.Fields.find("t");
    if (Type == R.Fields.end()) {
      if (Error)
        *Error = "trace line " + std::to_string(LineNo) + " has no \"t\"";
      return std::nullopt;
    }
    R.K = Type->second == "span" ? TraceRecord::Kind::Span
                                 : TraceRecord::Kind::Event;
    R.Fields.erase(Type);
    Take("seq", R.Seq);
    Take("ts_us", R.TsUs);
    Take("id", R.Id);
    Take("parent", R.Parent);
    Take("wall_us", R.WallUs);
    Take("cpu_us", R.CpuUs);
    Take("span", R.Span);
    auto NameIt = R.Fields.find("name");
    if (NameIt != R.Fields.end()) {
      R.Name = std::move(NameIt->second);
      R.Fields.erase(NameIt);
    }
    Out.push_back(std::move(R));
  }
  return Out;
}
