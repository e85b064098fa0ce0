//===- SimTraffic.h - One-line digest of a simulator run --------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// The frozen simulator-traffic tables in sim_test and registry_test pin
// each run as one line: status, error text, dispatches, micro-ops, the
// number and an FNV-1a digest of the held bytes, and every register. A
// faster simulator or memory must still produce the same lines.
//
//===----------------------------------------------------------------------===//

#ifndef EXTRA_TESTS_SIMTRAFFIC_H
#define EXTRA_TESTS_SIMTRAFFIC_H

#include <cstdint>
#include <sstream>
#include <string>

namespace extra {
namespace testing {

/// \p Run is a `sim::SimResult` or a `registry::SideReport`.
template <typename Run> std::string traffic(const Run &R) {
  uint64_t H = 0xcbf29ce484222325ULL, Held = 0;
  for (const auto &[Addr, V] : R.Mem) {
    H = (H ^ Addr) * 0x100000001b3ULL;
    H = (H ^ V) * 0x100000001b3ULL;
    ++Held;
  }
  std::ostringstream Out;
  Out << (R.Ok ? "ok" : "fail '" + R.Error + "'") << " n=" << R.Instructions
      << " uops=" << R.MicroOps << " mem=" << Held << ":" << std::hex << H
      << std::dec << " regs=";
  for (const auto &[Name, V] : R.Regs)
    Out << Name << "=" << V << " ";
  return Out.str();
}

} // namespace testing
} // namespace extra

#endif // EXTRA_TESTS_SIMTRAFFIC_H
