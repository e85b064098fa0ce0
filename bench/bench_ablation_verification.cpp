//===- bench_ablation_verification.cpp - Verification cost ------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// Ablation called out in DESIGN.md: what does the reproduction's extra
// checking cost? The 1982 system applied transformations after checking
// their conditions; this reproduction additionally differentially tests
// every step. This program replays the largest derivation (mvc/sassign,
// operator side) with the verifier off, and with the verifier at
// increasing trial counts — quantifying the price of the stronger
// soundness story. The replay times are wall-clock and vary from run to
// run and machine to machine; perfbench's `analysis.verify_ms` is the
// measured cost of verification.
//
// Exits 1 when a replay stops short of the full derivation.
//
//===----------------------------------------------------------------------===//

#include "analysis/Derivations.h"
#include "analysis/DiffCheck.h"
#include "descriptions/Descriptions.h"

#include <chrono>
#include <cstdio>
#include <optional>

using namespace extra;
using namespace extra::analysis;

namespace {

/// Replays the derivation with \p Trials differential trials per step (0:
/// verifier off). The wall time in ms, or nothing when the replay stops
/// short.
std::optional<double> replayMs(unsigned Trials) {
  const AnalysisCase *Case = findCase("ibm370.mvc/pascal.sassign");
  auto D = descriptions::load(Case->OperatorId);
  auto Start = std::chrono::steady_clock::now();
  transform::Engine E(D->clone());
  if (Trials > 0) {
    DiffOptions Opts;
    Opts.Trials = Trials;
    E.setVerifier(makeStepVerifier(E.constraints(), Opts));
  }
  std::string Error;
  size_t N = E.applyScript(Case->OperatorScript, &Error);
  auto Elapsed = std::chrono::steady_clock::now() - Start;
  if (N != Case->OperatorScript.size()) {
    std::fprintf(stderr, "replay failed: %s\n", Error.c_str());
    return std::nullopt;
  }
  return std::chrono::duration<double, std::milli>(Elapsed).count();
}

/// Prints the ablation; false when a replay stops short.
bool printAblation() {
  std::printf("==== ablation: per-step differential verification cost "
              "(mvc operator derivation, 24 steps) ====\n\n");
  std::printf("  %-22s %10s\n", "configuration", "replay ms");
  for (unsigned Trials : {0u, 8u, 32u, 128u}) {
    std::optional<double> Ms = replayMs(Trials);
    if (!Ms)
      return false;
    if (Trials == 0)
      std::printf("  %-22s %10.2f\n", "verifier off (1982)", *Ms);
    else
      std::printf("  verifier, %3u trials  %10.2f\n", Trials, *Ms);
  }
  std::printf("\n  the checking the 1982 system could not afford is "
              "cheap enough to leave on.\n\n");
  return true;
}

} // namespace

int main() { return printAblation() ? 0 : 1; }
