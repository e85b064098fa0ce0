//===- bench_fig1_reverse_conditional.cpp - Regenerates Fig. 1 --*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// Figure 1: the sample reverse-conditional transformation. Shown applied
// by the actual engine (and round-tripped back by if-not-elim).
//
// Exits 1 when reverse-conditional is not applied.
//
//===----------------------------------------------------------------------===//

#include "transform/Transform.h"

#include "isdl/Parser.h"
#include "isdl/Printer.h"

#include <cstdio>

using namespace extra;

namespace {

const char *FixtureSource = R"(
t := begin
  ** S **
    exp<>, x: integer,
    t.execute := begin
      input (exp, x);
      if exp then
        x <- x + 1;
        x <- x * 2;
      else
        x <- 0;
      end_if;
      output (x);
    end
end
)";

std::unique_ptr<isdl::Description> fixture() {
  DiagnosticEngine Diags;
  auto D = isdl::parseDescription(FixtureSource, Diags);
  return D;
}

/// Prints the figure; true when reverse-conditional applied.
bool printFigure1() {
  std::printf("==== Figure 1: Reverse Conditional Transformation ====\n\n");
  auto D = fixture();
  std::printf("--- before ---\n%s\n",
              isdl::printStmts(D->entryRoutine()->Body).c_str());
  transform::Engine E(D->clone());
  transform::ApplyResult R = E.apply({"reverse-conditional", "", {}});
  std::printf("--- after reverse-conditional (%s) ---\n%s\n",
              R.Applied ? "applied" : R.Reason.c_str(),
              isdl::printStmts(E.current().entryRoutine()->Body).c_str());
  E.apply({"if-not-elim", "", {}});
  std::printf("--- after if-not-elim (round trip) ---\n%s\n",
              isdl::printStmts(E.current().entryRoutine()->Body).c_str());
  return R.Applied;
}

} // namespace

int main() { return printFigure1() ? 0 : 1; }
