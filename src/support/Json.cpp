//===- Json.cpp - The flat JSON-object line codec ---------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cstdio>
#include <cstdlib>

using namespace extra;
using namespace extra::support;

std::string support::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string JsonObject::field(const std::string &Key) const {
  auto It = Fields.find(Key);
  return It == Fields.end() ? std::string() : It->second;
}

uint64_t JsonObject::fieldU64(const std::string &Key, uint64_t Default) const {
  auto It = Fields.find(Key);
  if (It == Fields.end() || It->second.empty())
    return Default;
  return std::strtoull(It->second.c_str(), nullptr, 0);
}

double JsonObject::fieldDouble(const std::string &Key, double Default) const {
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
        // jsonEscape only escapes control characters, so one byte
        // suffices.
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

std::optional<JsonObject> support::parseJsonObjectLine(std::string_view Line) {
  JsonObject Out;
  size_t I = 0;
  skipSpace(Line, I);
  if (I >= Line.size() || Line[I] != '{')
    return std::nullopt;
  ++I;
  skipSpace(Line, I);
  if (I >= Line.size() || Line[I] != '}') {
    for (;;) {
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
      } else if (!parseScalar(Line, I, Value)) {
        return std::nullopt;
      }
      Out.Fields[Key] = std::move(Value);
      skipSpace(Line, I);
      if (I >= Line.size())
        return std::nullopt;
      if (Line[I] == '}')
        break;
      if (Line[I] != ',')
        return std::nullopt;
      ++I;
    }
  }
  // Past the closing brace only blanks may follow.
  ++I;
  skipSpace(Line, I);
  if (I != Line.size())
    return std::nullopt;
  return Out;
}
