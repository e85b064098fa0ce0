//===- Workloads.cpp - discover-reachable, search-exhaust, compile-run ----===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// Every set-up starts with the same warm-up: the cheapest reachable
// pairing taken through every layer once (load, search, replay, import,
// bind, parse, compile, simulate, check). It proves the build end to end
// before anything is timed and fills the program's lazy tables, so the
// passes that follow measure warm work.
//
// Searches are node-budgeted. The wall-clock budget is set out of reach
// and no watchdog runs, so no verdict depends on machine speed; a search
// that reports TimedOut anyway is counted as a failure, not a verdict.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/Derivations.h"
#include "transform/ScriptIO.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

using namespace perfbench;
using namespace extra;

Workload::~Workload() = default;

namespace {

/// The pairing every set-up takes through the whole pipeline first.
constexpr const char *WarmupCase = "vax.movc3/pc2.copy";

/// The pairings the searcher proves today.
const std::vector<std::string> Reachable = {
    "i8086.movsb/pascal.smove", "i8086.movsb/pl1.move",
    "i8086.stosb/pc2.clear",    "vax.movc3/pc2.copy",
    "vax.movc5/pc2.clear",      "vax.locc/rigel.index",
    "vax.locc/clu.search",      "vax.skpc/rigel.span"};

/// The pairings it does not reach; movc3/pascal.sassign is in Extension
/// mode (its recorded derivation needs relational constraints).
const std::vector<std::string> OutOfReach = {
    "i8086.scasb/rigel.index", "i8086.scasb/clu.search",
    "i8086.cmpsb/pascal.sequal", "vax.cmpc3/pascal.sequal",
    "ibm370.mvc/pascal.sassign", "vax.movc3/pascal.sassign"};

/// Expansions each out-of-reach search may make before it stops.
constexpr uint64_t ExhaustNodeCap = 60;

search::SearchLimits discoveryLimits(uint64_t MaxNodes) {
  search::SearchLimits L;
  L.MaxNodes = MaxNodes;
  L.TimeBudgetMs = uint64_t(1) << 40; // Out of reach: nodes decide.
  return L;
}

/// Writes a pairing's scripts as `<dir>/<case>.{operator,instruction}.script`
/// (the `extra-cli export-script` layout `importScriptsDir` reads).
bool writeScripts(const std::string &Dir, const std::string &CaseId,
                  const transform::Script &OpScript,
                  const transform::Script &InstScript) {
  std::string Stem = CaseId;
  std::replace(Stem.begin(), Stem.end(), '/', '_');
  std::ofstream Op(Dir + "/" + Stem + ".operator.script");
  Op << transform::printScript(OpScript);
  std::ofstream Inst(Dir + "/" + Stem + ".instruction.script");
  Inst << transform::printScript(InstScript);
  return Op.good() && Inst.good();
}

/// Removes and recreates \p Dir.
bool freshDir(const std::string &Dir) {
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  return std::filesystem::create_directories(Dir, EC);
}

analysis::Mode modeOf(const analysis::AnalysisCase &C) {
  return C.RequiresExtension ? analysis::Mode::Extension
                             : analysis::Mode::Base;
}

/// Loads, searches and (when found) replays one pairing; a verified
/// derivation's scripts go to \p Dir. Returns the search outcome.
search::SearchOutcome discover(Pipeline &PL, const std::string &CaseId,
                               const search::SearchLimits &Limits,
                               const std::string &Dir, bool &Verified) {
  Verified = false;
  Tally &T = PL.tally();
  ++T.Pairings;
  const analysis::AnalysisCase *Lib = analysis::findCase(CaseId);
  search::SearchOutcome Out;
  if (!Lib) {
    T.fail(CaseId + ": not in the case library");
    return Out;
  }
  auto Op = PL.load(Lib->OperatorId);
  auto Inst = PL.load(Lib->InstructionId);
  if (!Op || !Inst)
    return Out;
  Out = PL.search(*Op, *Inst, Limits, CaseId);
  T.check(!Out.SearchFault.isFault(),
          CaseId + ": search faulted: " + Out.SearchFault.str());
  T.check(!Out.Stats.TimedOut, CaseId + ": search timed out");
  if (!Out.Found)
    return Out;

  analysis::AnalysisCase Replay;
  Replay.Id = CaseId;
  Replay.OperatorId = Lib->OperatorId;
  Replay.InstructionId = Lib->InstructionId;
  Replay.OperatorScript = Out.OperatorScript;
  Replay.InstructionScript = Out.InstructionScript;
  Replay.RequiresExtension = Lib->RequiresExtension;
  analysis::AnalysisResult R = PL.replay(Replay, modeOf(*Lib));
  Verified = R.Succeeded;
  if (Verified)
    T.check(writeScripts(Dir, CaseId, Out.OperatorScript,
                         Out.InstructionScript),
            CaseId + ": cannot write scripts to " + Dir);
  return Out;
}

/// The seeded order of a pass: every pass permutes the pairings anew, so
/// the determinism guard also proves order does not matter.
std::vector<std::string> permuted(std::vector<std::string> Ids, uint64_t Seed,
                                  unsigned PassIndex) {
  std::mt19937_64 Rng(Seed * 1000003 + PassIndex);
  std::shuffle(Ids.begin(), Ids.end(), Rng);
  return Ids;
}

/// Pipeline state every workload sets up first.
struct Warmed {
  ProgramCase Fixed = fixedProgram();
  RefOutcome FixedRef = referenceRun(Fixed);
};

void warmup(Pipeline &PL, const Warmed &W, const std::string &WorkDir) {
  std::string Dir = WorkDir + "/warmup";
  PL.tally().check(freshDir(Dir), "cannot create " + Dir);
  bool Verified = false;
  discover(PL, WarmupCase, discoveryLimits(search::SearchLimits().MaxNodes),
           Dir, Verified);
  PL.tally().check(Verified, std::string(WarmupCase) + ": not verified");
  registry::RegistryBuilder B;
  PL.tally().check(PL.importScripts(B, Dir) == 1,
                   "warm-up import did not admit its pairing");
  runProgram(PL, bindTargets(PL, B.registry()), W.Fixed, W.FixedRef);
}

/// `discover-reachable`: the 8 reachable pairings from ISDL text through
/// search, replay and registry import, then the fixed program compiled
/// with the fresh registry on all three machines, simulated and checked.
class DiscoverReachable final : public Workload {
public:
  explicit DiscoverReachable(WorkloadOptions O) : Opts(std::move(O)) {}

  void setup(Pipeline &PL) override { warmup(PL, W, Opts.WorkDir); }

  void pass(Pipeline &PL, unsigned PassIndex) override {
    Tally &T = PL.tally();
    std::string Dir = Opts.WorkDir + "/pass";
    T.check(freshDir(Dir), "cannot create " + Dir);
    std::vector<std::string> Verified;
    for (const std::string &Id : permuted(Reachable, Opts.Seed, PassIndex)) {
      bool Ok = false;
      search::SearchOutcome Out =
          discover(PL, Id, discoveryLimits(search::SearchLimits().MaxNodes),
                   Dir, Ok);
      T.check(Out.Found && Ok, Id + ": not discovered and verified");
      if (Ok)
        Verified.push_back(Id);
    }
    registry::RegistryBuilder B;
    PL.importScripts(B, Dir);
    for (const std::string &Id : Verified) {
      bool Admitted = false;
      for (const registry::RegistryEntry *E : B.registry().entries())
        Admitted |= E->AnalysisId == Id;
      T.check(Admitted, Id + ": rejected by registry import");
      T.BindingsVerified += Admitted;
    }
    T.Signature["bindings_verified"] = T.BindingsVerified;
    T.check(T.BindingsVerified == Reachable.size(),
            "bindings_verified = " + std::to_string(T.BindingsVerified));
    runProgram(PL, bindTargets(PL, B.registry()), W.Fixed, W.FixedRef);
  }

private:
  WorkloadOptions Opts;
  Warmed W;
};

/// `search-exhaust`: the 6 out-of-reach pairings, each run to the node
/// cap. The pass then takes the (empty) result through import and
/// lowering, and checks that the fixed program still compiles correctly
/// by decomposition alone.
class SearchExhaust final : public Workload {
public:
  explicit SearchExhaust(WorkloadOptions O) : Opts(std::move(O)) {}

  void setup(Pipeline &PL) override { warmup(PL, W, Opts.WorkDir); }

  void pass(Pipeline &PL, unsigned PassIndex) override {
    Tally &T = PL.tally();
    std::string Dir = Opts.WorkDir + "/pass";
    T.check(freshDir(Dir), "cannot create " + Dir);
    for (const std::string &Id : permuted(OutOfReach, Opts.Seed, PassIndex)) {
      bool Verified = false;
      search::SearchOutcome Out =
          discover(PL, Id, discoveryLimits(ExhaustNodeCap), Dir, Verified);
      T.check(!Out.Found && Out.Stats.BudgetExhausted &&
                  Out.Stats.NodesExpanded == ExhaustNodeCap,
              Id + ": did not end exhausted at the node cap (" +
                  std::to_string(Out.Stats.NodesExpanded) + " nodes)");
    }
    registry::RegistryBuilder B;
    T.check(PL.importScripts(B, Dir) == 0,
            "an exhausted search left scripts behind");
    runProgram(PL, bindTargets(PL, B.registry()), W.Fixed, W.FixedRef);
  }

private:
  WorkloadOptions Opts;
  Warmed W;
};

/// `compile-run`: the registry is built from the recorded corpus during
/// set-up; each pass parses, compiles (registry and decomposition-only,
/// on every machine) and simulates the seeded programs.
class CompileRun final : public Workload {
public:
  explicit CompileRun(WorkloadOptions O) : Opts(std::move(O)) {}

  void setup(Pipeline &PL) override {
    warmup(PL, W, Opts.WorkDir);
    Tally &T = PL.tally();

    // Export the recorded corpus the way `extra-cli export-script` does
    // and import it as `registry build --from-scripts` would.
    std::string Dir = Opts.WorkDir + "/corpus";
    T.check(freshDir(Dir), "cannot create " + Dir);
    std::vector<const analysis::AnalysisCase *> Corpus;
    for (const analysis::AnalysisCase &C : analysis::table2Cases())
      Corpus.push_back(&C);
    for (const analysis::AnalysisCase &C : analysis::extendedCases())
      Corpus.push_back(&C);
    Corpus.push_back(&analysis::movc3SassignCase());
    for (const analysis::AnalysisCase *C : Corpus)
      T.check(writeScripts(Dir, C->Id, C->OperatorScript,
                           C->InstructionScript),
              C->Id + ": cannot write scripts");
    registry::RegistryBuilder B;
    unsigned Admitted = PL.importScripts(B, Dir);
    T.check(Admitted == Corpus.size(),
            "corpus import admitted " + std::to_string(Admitted) + " of " +
                std::to_string(Corpus.size()));
    Targets = bindTargets(PL, B.registry());

    Programs = generatePrograms(Opts.Seed);
    Refs.clear();
    for (const ProgramCase &P : Programs)
      Refs.push_back(referenceRun(P));
  }

  void pass(Pipeline &PL, unsigned) override {
    for (size_t I = 0; I < Programs.size(); ++I)
      runProgram(PL, Targets, Programs[I], Refs[I]);
  }

private:
  WorkloadOptions Opts;
  Warmed W;
  TargetSet Targets;
  std::vector<ProgramCase> Programs;
  std::vector<RefOutcome> Refs;
};

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "discover-reachable", "search-exhaust", "compile-run"};
  return Names;
}

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name,
                                                  const WorkloadOptions &Opts) {
  if (Name == "discover-reachable")
    return std::make_unique<DiscoverReachable>(Opts);
  if (Name == "search-exhaust")
    return std::make_unique<SearchExhaust>(Opts);
  if (Name == "compile-run")
    return std::make_unique<CompileRun>(Opts);
  return nullptr;
}
