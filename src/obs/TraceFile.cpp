//===- TraceFile.cpp - Reading JSONL traces back ------------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "obs/TraceFile.h"

#include <cstdlib>

using namespace extra;
using namespace extra::obs;

std::string TraceRecord::field(const std::string &Key) const {
  auto It = Fields.find(Key);
  return It == Fields.end() ? std::string() : It->second;
}

uint64_t TraceRecord::fieldU64(const std::string &Key,
                               uint64_t Default) const {
  auto It = Fields.find(Key);
  if (It == Fields.end() || It->second.empty())
    return Default;
  return std::strtoull(It->second.c_str(), nullptr, 0);
}

double TraceRecord::fieldDouble(const std::string &Key,
                                double Default) const {
  auto It = Fields.find(Key);
  if (It == Fields.end() || It->second.empty())
    return Default;
  return std::strtod(It->second.c_str(), nullptr);
}

namespace {

void skipSpace(std::string_view S, size_t &I) {
  while (I < S.size() && (S[I] == ' ' || S[I] == '\t'))
    ++I;
}

/// Parses a JSON string literal at S[I] (positioned on '"'); advances I
/// past the closing quote. Returns false on malformed input.
bool parseString(std::string_view S, size_t &I, std::string &Out) {
  if (I >= S.size() || S[I] != '"')
    return false;
  ++I;
  Out.clear();
  while (I < S.size()) {
    char C = S[I];
    if (C == '"') {
      ++I;
      return true;
    }
    if (C == '\\') {
      if (I + 1 >= S.size())
        return false;
      char E = S[I + 1];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (I + 5 >= S.size())
          return false;
        unsigned Code = static_cast<unsigned>(
            std::strtoul(std::string(S.substr(I + 2, 4)).c_str(), nullptr,
                         16));
        // The sink only escapes control characters, so one byte suffices.
        Out += static_cast<char>(Code & 0xFF);
        I += 4;
        break;
      }
      default:
        return false;
      }
      I += 2;
      continue;
    }
    Out += C;
    ++I;
  }
  return false;
}

/// Parses a bare JSON scalar (number, true, false, null) as literal text.
bool parseScalar(std::string_view S, size_t &I, std::string &Out) {
  size_t Start = I;
  while (I < S.size() && S[I] != ',' && S[I] != '}' && S[I] != ' ' &&
         S[I] != '\t')
    ++I;
  if (I == Start)
    return false;
  Out = std::string(S.substr(Start, I - Start));
  return true;
}

} // namespace

std::optional<std::map<std::string, std::string>>
obs::parseJsonObjectLine(std::string_view Line) {
  std::map<std::string, std::string> Out;
  size_t I = 0;
  skipSpace(Line, I);
  if (I >= Line.size() || Line[I] != '{')
    return std::nullopt;
  ++I;
  skipSpace(Line, I);
  if (I < Line.size() && Line[I] == '}')
    return Out; // Empty object.
  while (true) {
    skipSpace(Line, I);
    std::string Key;
    if (!parseString(Line, I, Key))
      return std::nullopt;
    skipSpace(Line, I);
    if (I >= Line.size() || Line[I] != ':')
      return std::nullopt;
    ++I;
    skipSpace(Line, I);
    std::string Value;
    if (I < Line.size() && Line[I] == '"') {
      if (!parseString(Line, I, Value))
        return std::nullopt;
    } else {
      if (!parseScalar(Line, I, Value))
        return std::nullopt;
    }
    Out[Key] = std::move(Value);
    skipSpace(Line, I);
    if (I >= Line.size())
      return std::nullopt;
    if (Line[I] == '}')
      return Out;
    if (Line[I] != ',')
      return std::nullopt;
    ++I;
  }
}

std::optional<std::vector<TraceRecord>> obs::readTrace(std::istream &In,
                                                       std::string *Error) {
  std::vector<TraceRecord> Out;
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    auto Obj = parseJsonObjectLine(Line);
    if (!Obj) {
      if (Error)
        *Error = "malformed trace line " + std::to_string(LineNo);
      return std::nullopt;
    }
    TraceRecord R;
    auto Take = [&](const char *Key, uint64_t &Slot) {
      auto It = Obj->find(Key);
      if (It != Obj->end()) {
        Slot = std::strtoull(It->second.c_str(), nullptr, 0);
        Obj->erase(It);
      }
    };
    auto Type = Obj->find("t");
    if (Type == Obj->end()) {
      if (Error)
        *Error = "trace line " + std::to_string(LineNo) + " has no \"t\"";
      return std::nullopt;
    }
    R.K = Type->second == "span" ? TraceRecord::Kind::Span
                                 : TraceRecord::Kind::Event;
    Obj->erase(Type);
    Take("seq", R.Seq);
    Take("ts_us", R.TsUs);
    Take("id", R.Id);
    Take("parent", R.Parent);
    Take("wall_us", R.WallUs);
    Take("cpu_us", R.CpuUs);
    Take("span", R.Span);
    auto NameIt = Obj->find("name");
    if (NameIt != Obj->end()) {
      R.Name = NameIt->second;
      Obj->erase(NameIt);
    }
    R.Fields = std::move(*Obj);
    Out.push_back(std::move(R));
  }
  return Out;
}
