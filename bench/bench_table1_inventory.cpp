//===- bench_table1_inventory.cpp - Regenerates Table 1 ---------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// Table 1: "Exotic Instruction Statistics" — the per-machine counts of
// string/list exotic instructions in the six-machine survey. Regenerated
// from the catalog in src/descriptions; the per-machine membership for
// the Univac 1100 and Burroughs B4800 is a reconstruction (flagged in the
// catalog), the counts match the paper by construction, and the 8086/
// Eclipse/370/VAX rows list the manuals' actual instructions.
//
// Exits 1 unless the total is the paper's 67.
//
//===----------------------------------------------------------------------===//

#include "descriptions/Descriptions.h"

#include <cstdio>

using namespace extra;

/// Prints the table; true when its total matches the paper's.
static bool printTable1() {
  std::printf("==== Table 1: Exotic Instruction Statistics ====\n\n");
  std::printf("  %-18s %s\n", "Machine", "Number of Exotic Instructions");
  std::printf("  %-18s %s\n", "-------", "------------------------------");
  unsigned Total = 0;
  for (const std::string &M : descriptions::catalogMachines()) {
    unsigned N = descriptions::catalogCount(M);
    Total += N;
    std::printf("  %-18s %u\n", M.c_str(), N);
  }
  std::printf("  %-18s %u   (paper: 67)\n\n", "Total", Total);

  std::printf("per-machine membership (* = reconstructed entry; the "
              "paper does not list members):\n");
  std::string Current;
  for (const descriptions::CatalogEntry &E : descriptions::catalog()) {
    if (E.Machine != Current) {
      Current = E.Machine;
      std::printf("\n  %s:\n    ", Current.c_str());
    }
    std::printf("%s%s ", E.Mnemonic.c_str(), E.FromManual ? "" : "*");
  }
  std::printf("\n\n");
  return Total == 67;
}

int main() { return printTable1() ? 0 : 1; }
