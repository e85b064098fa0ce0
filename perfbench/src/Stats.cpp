//===- Stats.cpp - Medians and geometric means -----------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V) {
    if (!(X > 0))
      return 0;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double perfbench::ratio(double Num, double Den) {
  return Den == 0 ? 0 : Num / Den;
}

double perfbench::Tally::dispatchRatio() const {
  std::vector<double> PerMachine;
  for (const auto &[MK, D] : MachineDispatches)
    PerMachine.push_back(ratio(static_cast<double>(D.first),
                               static_cast<double>(D.second)));
  return geomean(PerMachine);
}
