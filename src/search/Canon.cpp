//===- Canon.cpp - Canonical-form fingerprints for search -------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "search/Canon.h"

#include "descriptions/Descriptions.h"
#include "isdl/Intern.h"

#include <cstdio>

using namespace extra;
using namespace extra::isdl;

uint64_t search::fingerprint(const Description &D) {
  return isdl::canonicalFingerprint(D);
}

uint64_t search::pairKey(uint64_t OperatorFp, uint64_t InstructionFp) {
  // Asymmetric mix (boost::hash_combine style) so (A, B) and (B, A) are
  // distinct states.
  uint64_t H = OperatorFp;
  H ^= InstructionFp + 0x9E3779B97F4A7C15ULL + (H << 12) + (H >> 4);
  return H;
}

Expected<std::string> search::pairingKeyHex(const std::string &OperatorId,
                                            const std::string &InstructionId,
                                            analysis::Mode M) {
  auto Op = descriptions::loadChecked(OperatorId);
  if (!Op)
    return Op.fault();
  auto Inst = descriptions::loadChecked(InstructionId);
  if (!Inst)
    return Inst.fault();
  uint64_t Key = pairKey(fingerprint(**Op), fingerprint(**Inst));
  // Extension mode changes what the analysis may conclude (relational
  // constraints), so the two modes are distinct cache lines.
  if (M == analysis::Mode::Extension)
    Key ^= 0x9e3779b97f4a7c15ull;
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(Key));
  return std::string(Buf);
}
