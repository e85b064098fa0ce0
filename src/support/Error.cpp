//===- Error.cpp - Typed fault taxonomy -------------------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "support/Error.h"

using namespace extra;

const char *extra::faultCategoryName(FaultCategory C) {
  switch (C) {
  case FaultCategory::None:
    return "none";
  case FaultCategory::Parse:
    return "parse";
  case FaultCategory::Validate:
    return "validate";
  case FaultCategory::InterpBudget:
    return "interp-budget";
  case FaultCategory::RuleApplication:
    return "rule-application";
  case FaultCategory::Synth:
    return "synth";
  case FaultCategory::Store:
    return "store";
  case FaultCategory::Internal:
    return "internal";
  }
  return "internal";
}

FaultCategory extra::faultCategoryFromName(const std::string &Name) {
  for (FaultCategory C :
       {FaultCategory::None, FaultCategory::Parse, FaultCategory::Validate,
        FaultCategory::InterpBudget, FaultCategory::RuleApplication,
        FaultCategory::Synth, FaultCategory::Store, FaultCategory::Internal})
    if (Name == faultCategoryName(C))
      return C;
  return FaultCategory::Internal;
}

std::string Fault::str() const {
  if (!isFault())
    return "none";
  std::string Out = faultCategoryName(Category);
  if (!Message.empty()) {
    Out += ": ";
    Out += Message;
  }
  return Out;
}
