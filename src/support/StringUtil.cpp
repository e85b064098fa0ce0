//===- StringUtil.cpp -----------------------------------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtil.h"

#include <cctype>

using namespace extra;

std::string_view extra::trim(std::string_view S) {
  size_t B = 0, E = S.size();
  while (B < E && std::isspace(static_cast<unsigned char>(S[B])))
    ++B;
  while (E > B && std::isspace(static_cast<unsigned char>(S[E - 1])))
    --E;
  return S.substr(B, E - B);
}

std::vector<std::string> extra::split(std::string_view S, char Sep) {
  std::vector<std::string> Out;
  size_t Start = 0;
  for (size_t I = 0; I <= S.size(); ++I) {
    if (I == S.size() || S[I] == Sep) {
      Out.emplace_back(S.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  return Out;
}

bool extra::startsWith(std::string_view S, std::string_view Prefix) {
  return S.size() >= Prefix.size() && S.substr(0, Prefix.size()) == Prefix;
}

std::string extra::join(const std::vector<std::string> &Parts,
                        std::string_view Sep) {
  std::string Out;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string extra::padLeft(std::string_view S, size_t Width) {
  std::string Out;
  if (S.size() < Width)
    Out.assign(Width - S.size(), ' ');
  Out += S;
  return Out;
}

std::string extra::padRight(std::string_view S, size_t Width) {
  std::string Out(S);
  if (Out.size() < Width)
    Out.append(Width - Out.size(), ' ');
  return Out;
}

std::optional<uint64_t> extra::parseUnsigned(std::string_view S,
                                             uint64_t Max) {
  if (S.empty())
    return std::nullopt;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return std::nullopt;
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (Digit > Max || V > (Max - Digit) / 10)
      return std::nullopt;
    V = V * 10 + Digit;
  }
  return V;
}
