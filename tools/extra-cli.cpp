//===- extra-cli.cpp - Command-line front end for EXTRA ---------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   extra-cli rules [category]         list the transformation library
//   extra-cli catalog                  print the Table 1 survey
//   extra-cli descriptions             list the description library
//   extra-cli show <id>                print one description
//   extra-cli cases                    list the recorded analyses
//   extra-cli analyze <case-id> [-x]   run an analysis (-x: extension mode)
//   extra-cli replay <desc-id> <script-file>
//   extra-cli search --case <id> | <op-id> <inst-id> | --all
//                    [--registry <file>]
//                                      discover derivation scripts (and
//                                      keep the verified bindings)
//   extra-cli postmortem <trace.jsonl> --against <case-id>
//                                      why the beam lost the recorded line
//   extra-cli profile <trace.jsonl>    self/total-time rollups from a trace
//   extra-cli registry build --out F   build a binding registry
//   extra-cli registry inspect <file>  list a registry's entries
//   extra-cli compile --registry <file>
//                                      differential compile-and-execute
//
//===----------------------------------------------------------------------===//

#include "analysis/Derivations.h"
#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "obs/Trace.h"
#include "obs/TraceFile.h"
#include "registry/Harness.h"
#include "registry/RegistryBuilder.h"
#include "search/BatchDriver.h"
#include "search/Checkpoint.h"
#include "search/Postmortem.h"
#include "transform/ScriptIO.h"
#include "descriptions/Descriptions.h"
#include "isdl/Printer.h"
#include "support/FaultInjection.h"
#include "support/StringUtil.h"

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>

using namespace extra;
using namespace extra::analysis;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: extra-cli <command> [args]\n"
               "  rules [category]        list the 75 transformations\n"
               "  catalog                 the Table 1 instruction survey\n"
               "  descriptions            list the description library\n"
               "  show <id>               print one description\n"
               "  cases                   list the recorded analyses\n"
               "  analyze <case-id> [-x]  run an analysis (-x extension)\n"
               "  replay <desc-id> <file> apply a script file to a "
               "description\n"
               "  search --case <case-id> | <operator-id> <instruction-id>\n"
               "         | --all          autonomously discover derivation\n"
               "                          scripts (no recorded script used)\n"
               "    options: -x (extension mode), --threads N, --beam W,\n"
               "             --depth D, --nodes N, --time-ms T,\n"
               "             --trace FILE (JSONL span/event trace),\n"
               "             --metrics FILE (counter/histogram JSON),\n"
               "             --min-verified N (fail below N verified),\n"
               "             --checkpoint FILE (JSONL record per case),\n"
               "             --resume (skip cases already checkpointed in\n"
               "             the same mode; needs --checkpoint),\n"
               "             --registry FILE (admit every verified\n"
               "             binding into this registry file),\n"
               "             --inject site=rate[,...] (seeded fault\n"
               "             injection; also env EXTRA_INJECT),\n"
               "             --inject-seed N, --no-retry (disable the\n"
               "             degraded retry of timed-out/faulted cases)\n"
               "  postmortem <trace.jsonl> --against <case-id>\n"
               "                          replay the recorded derivation\n"
               "                          against a trace: first depth the\n"
               "                          line left the beam, the rule it\n"
               "                          needed, that rule's priors rank\n"
               "  postmortem <trace.jsonl> --partial\n"
               "                          summarize the anytime results of\n"
               "                          every failed search in the trace\n"
               "                          (closest state, script prefix,\n"
               "                          divergence) — no recorded script\n"
               "                          needed\n"
               "  profile <trace.jsonl> [--collapsed FILE]\n"
               "                          roll a JSONL trace into\n"
               "                          self/total-time tables\n"
               "                          per span label and depth;\n"
               "                          --collapsed writes flamegraph\n"
               "                          collapsed-stack lines\n"
               "  registry build --out FILE [--recorded]\n"
               "                 [--from-scripts DIR]\n"
               "                          build a binding registry from\n"
               "                          discovery artifacts (default: the\n"
               "                          recorded corpus); later sources\n"
               "                          supersede earlier by pairing key\n"
               "  registry inspect <file> list a registry file's entries\n"
               "  compile --registry <file> [--machine i8086|vax|ibm370]\n"
               "                          compile the demo program twice\n"
               "                          (registry bindings on vs\n"
               "                          decomposition-only), execute both\n"
               "                          on the simulator, require\n"
               "                          identical final state and report\n"
               "                          the cost deltas; exit 1 on any\n"
               "                          divergence\n");
  return 2;
}

/// Reads the value of the integer option argv[I] into \p Out and steps
/// \p I past it. The value must be the whole next argument, decimal digits
/// only, at most \p Max. Otherwise returns false (after saying why when
/// the value is malformed), so the caller's option chain ends in usage().
bool unsignedArg(int argc, char **argv, int &I, uint64_t &Out,
                 uint64_t Max = UINT64_MAX) {
  if (I + 1 >= argc)
    return false;
  std::optional<uint64_t> V = parseUnsigned(argv[I + 1], Max);
  if (!V) {
    std::fprintf(stderr, "%s expects an integer in [0, %llu], got '%s'\n",
                 argv[I], static_cast<unsigned long long>(Max), argv[I + 1]);
    return false;
  }
  Out = *V;
  ++I;
  return true;
}

int cmdRules(int argc, char **argv) {
  const transform::Registry &R = transform::Registry::instance();
  const char *Filter = argc > 2 ? argv[2] : nullptr;
  unsigned N = 0;
  for (const transform::Transformation *T : R.all()) {
    const char *Cat = transform::categoryName(T->category());
    if (Filter && std::strcmp(Filter, Cat) != 0)
      continue;
    std::printf("%-26s [%s]\n    %s\n", T->name().c_str(), Cat,
                T->description().c_str());
    ++N;
  }
  std::printf("\n%u transformation(s)%s%s\n", N,
              Filter ? " in category " : "", Filter ? Filter : "");
  return 0;
}

int cmdCatalog() {
  std::string Current;
  for (const descriptions::CatalogEntry &E : descriptions::catalog()) {
    if (E.Machine != Current) {
      Current = E.Machine;
      std::printf("\n%s (%u):\n", Current.c_str(),
                  descriptions::catalogCount(Current));
    }
    std::printf("  %-8s %s%s\n", E.Mnemonic.c_str(), E.Role.c_str(),
                E.FromManual ? "" : "   (reconstructed)");
  }
  return 0;
}

int cmdDescriptions() {
  for (const descriptions::Entry &E : descriptions::allEntries())
    std::printf("%-16s %-12s %s\n", E.Id.c_str(), E.Machine.c_str(),
                E.Title.c_str());
  return 0;
}

int cmdShow(int argc, char **argv) {
  if (argc < 3)
    return usage();
  const char *Src = descriptions::sourceFor(argv[2]);
  if (!Src) {
    std::fprintf(stderr, "unknown description '%s' (try `extra-cli "
                         "descriptions`)\n",
                 argv[2]);
    return 1;
  }
  std::fputs(Src, stdout);
  return 0;
}

int cmdCases() {
  for (const AnalysisCase &C : corpus()) {
    std::string Note = "beyond Table 2";
    if (C.PaperSteps)
      Note = "paper: " + std::to_string(C.PaperSteps) + " steps";
    else if (C.RequiresExtension)
      Note = "extension mode only (§4.3)";
    std::printf("%-28s %-12s %-10s %-16s %s\n", C.Id.c_str(),
                C.Machine.c_str(), C.Language.c_str(), C.Operation.c_str(),
                Note.c_str());
  }
  return 0;
}

int cmdAnalyze(int argc, char **argv) {
  if (argc < 3)
    return usage();
  const AnalysisCase *Case = findCase(argv[2]);
  if (!Case) {
    std::fprintf(stderr, "unknown case '%s' (try `extra-cli cases`)\n",
                 argv[2]);
    return 1;
  }
  Mode M = (argc > 3 && std::strcmp(argv[3], "-x") == 0) ? Mode::Extension
                                                         : Mode::Base;
  AnalysisResult R = runAnalysis(*Case, M);
  if (!R.Succeeded) {
    std::printf("analysis FAILED after %u step(s): %s\n", R.StepsApplied,
                R.FailureReason.c_str());
    return 1;
  }
  std::printf("analysis succeeded: %u steps (operator %u + instruction "
              "%u)\n\n",
              R.StepsApplied, R.OperatorSteps, R.InstructionSteps);
  std::printf("binding:\n%s\n", R.Binding.str().c_str());
  std::printf("constraints:\n%s\n", R.Constraints.str().c_str());
  std::printf("augmented instruction:\n%s", R.AugmentedInstruction.c_str());
  return 0;
}

int cmdReplay(int argc, char **argv) {
  if (argc < 4)
    return usage();
  const char *Src = descriptions::sourceFor(argv[2]);
  if (!Src) {
    std::fprintf(stderr, "unknown description '%s'\n", argv[2]);
    return 1;
  }
  FILE *F = std::fopen(argv[3], "rb");
  if (!F) {
    std::fprintf(stderr, "cannot open '%s'\n", argv[3]);
    return 1;
  }
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  std::fclose(F);

  DiagnosticEngine Diags;
  auto Script = transform::parseScript(Text, Diags);
  if (!Script) {
    std::fprintf(stderr, "bad script:\n%s", Diags.str().c_str());
    return 1;
  }
  auto D = descriptions::load(argv[2]);
  transform::Engine E(std::move(*D));
  E.setVerifier(analysis::makeStepVerifier(E.constraints()));
  std::string Error;
  size_t Applied = E.applyScript(*Script, &Error);
  if (Applied != Script->size()) {
    std::fprintf(stderr, "replay stopped after %zu step(s): %s\n", Applied,
                 Error.c_str());
    return 1;
  }
  std::printf("%zu step(s) applied and differentially verified.\n\n",
              Applied);
  std::printf("%s", isdl::printDescription(E.current()).c_str());
  if (!E.constraints().empty())
    std::printf("\nconstraints:\n%s", E.constraints().str().c_str());
  return 0;
}

void printSearchStats(const extra::search::SearchStats &St) {
  std::printf("search stats: %llu nodes expanded (%.0f nodes/s), %llu "
              "generated, %llu hash hits (%.1f%% hit rate), %llu dead ends, "
              "%u round(s), %.1f ms%s\n",
              static_cast<unsigned long long>(St.NodesExpanded),
              St.nodesPerSec(),
              static_cast<unsigned long long>(St.NodesGenerated),
              static_cast<unsigned long long>(St.HashHits),
              100.0 * St.hashHitRate(),
              static_cast<unsigned long long>(St.DeadEnds), St.Rounds,
              St.WallMs, St.BudgetExhausted ? " (budget exhausted)" : "");
}

int reportDiscovery(const std::string &Label,
                    const extra::search::DiscoveryResult &R, bool Verbose,
                    double WallMs = -1) {
  const extra::search::SearchOutcome &O = R.Outcome;
  std::string Timed = Label;
  if (WallMs >= 0) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), " [%.1f ms]", WallMs);
    Timed += Buf;
  }
  if (!O.Found) {
    std::printf("%s: NOT FOUND — %s\n", Timed.c_str(),
                O.FailureReason.c_str());
    printSearchStats(O.Stats);
    return 1;
  }
  std::printf("%s: discovered %zu operator + %zu instruction step(s); "
              "end-to-end replay %s\n",
              Timed.c_str(), O.OperatorScript.size(),
              O.InstructionScript.size(),
              R.Verified ? "VERIFIED"
                         : ("FAILED: " + R.Replay.FailureReason).c_str());
  printSearchStats(O.Stats);
  if (Verbose) {
    std::printf("\noperator script:\n%s",
                transform::printScript(O.OperatorScript).c_str());
    std::printf("\ninstruction script:\n%s",
                transform::printScript(O.InstructionScript).c_str());
    std::printf("\nbinding:\n%s", O.Binding.str().c_str());
    if (!O.Constraints.empty())
      std::printf("\nconstraints:\n%s", O.Constraints.str().c_str());
  }
  return R.Verified ? 0 : 1;
}

void printBuildNotes(const std::vector<extra::registry::BuildNote> &Notes) {
  for (const auto &N : Notes)
    std::fprintf(stderr, "note: %s: %s\n", N.CaseId.c_str(),
                 N.Detail.c_str());
}

int cmdSearch(int argc, char **argv) {
  extra::search::BatchOptions Opts;
  std::vector<extra::search::BatchCase> Cases;
  analysis::Mode M = Mode::Base;
  bool All = false;
  std::string CaseId, OperatorId, InstructionId;
  std::string TracePath, MetricsPath, RegistryPath;
  uint64_t MinVerified = 0;
  bool HaveMinVerified = false;

  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    uint64_t V = 0;
    if (Arg == "--case" && I + 1 < argc)
      CaseId = argv[++I];
    else if (Arg == "--all")
      All = true;
    else if (Arg == "-x")
      M = Mode::Extension;
    else if (Arg == "--threads" && unsignedArg(argc, argv, I, V, UINT_MAX))
      Opts.Threads = static_cast<unsigned>(V);
    else if (Arg == "--beam" && unsignedArg(argc, argv, I, V, UINT_MAX))
      Opts.Limits.BeamWidth = static_cast<unsigned>(V);
    else if (Arg == "--depth" && unsignedArg(argc, argv, I, V, UINT_MAX))
      Opts.Limits.MaxDepth = static_cast<unsigned>(V);
    else if (Arg == "--nodes" && unsignedArg(argc, argv, I, V))
      Opts.Limits.MaxNodes = V;
    else if (Arg == "--time-ms" && unsignedArg(argc, argv, I, V))
      Opts.Limits.TimeBudgetMs = V;
    else if (Arg == "--trace" && I + 1 < argc)
      TracePath = argv[++I];
    else if (Arg == "--metrics" && I + 1 < argc)
      MetricsPath = argv[++I];
    else if (Arg == "--min-verified" && unsignedArg(argc, argv, I, V)) {
      MinVerified = V;
      HaveMinVerified = true;
    } else if (Arg == "--checkpoint" && I + 1 < argc)
      Opts.CheckpointPath = argv[++I];
    else if (Arg == "--resume")
      Opts.Resume = true;
    else if (Arg == "--registry" && I + 1 < argc)
      RegistryPath = argv[++I];
    else if (Arg == "--no-retry")
      Opts.DegradedRetry = false;
    else if (Arg == "--inject" && I + 1 < argc) {
      std::string Err;
      if (!FaultInjector::instance().configure(argv[++I], &Err)) {
        std::fprintf(stderr, "bad --inject spec: %s\n", Err.c_str());
        return 2;
      }
    } else if (Arg == "--inject-seed" && unsignedArg(argc, argv, I, V))
      FaultInjector::instance().setSeed(V);
    else if (Arg[0] != '-' && OperatorId.empty())
      OperatorId = Arg;
    else if (Arg[0] != '-' && InstructionId.empty())
      InstructionId = Arg;
    else
      return usage();
  }

  if (All) {
    Cases = extra::search::libraryCases();
  } else if (!CaseId.empty()) {
    const AnalysisCase *Case = findCase(CaseId);
    if (!Case) {
      std::fprintf(stderr, "unknown case '%s' (try `extra-cli cases`)\n",
                   CaseId.c_str());
      return 1;
    }
    extra::search::BatchCase B;
    B.Id = Case->Id;
    B.OperatorId = Case->OperatorId;
    B.InstructionId = Case->InstructionId;
    B.M = Case->RequiresExtension ? Mode::Extension : M;
    Cases.push_back(std::move(B));
  } else if (!OperatorId.empty() && !InstructionId.empty()) {
    extra::search::BatchCase B;
    B.Id = InstructionId + "/" + OperatorId;
    B.OperatorId = OperatorId;
    B.InstructionId = InstructionId;
    B.M = M;
    Cases.push_back(std::move(B));
  } else {
    return usage();
  }
  if (Opts.Resume && Opts.CheckpointPath.empty()) {
    std::fprintf(stderr, "--resume needs --checkpoint FILE\n");
    return 2;
  }

  // Load the registry before any search, so a foreign or future file
  // fails here rather than after the batch has run.
  extra::registry::RegistryBuilder Discovered;
  if (!RegistryPath.empty()) {
    auto Prior = extra::registry::Registry::load(RegistryPath);
    if (!Prior) {
      std::fprintf(stderr, "cannot use registry '%s': %s\n",
                   RegistryPath.c_str(), Prior.fault().Message.c_str());
      return 1;
    }
    Discovered.registry() = std::move(*Prior);
  }

  std::ofstream TraceOut;
  std::unique_ptr<obs::JsonlTraceSink> Sink;
  if (!TracePath.empty()) {
    TraceOut.open(TracePath);
    if (!TraceOut) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   TracePath.c_str());
      return 1;
    }
    Sink = std::make_unique<obs::JsonlTraceSink>(TraceOut);
    Opts.Limits.Trace = Sink.get();
  }
  obs::Metrics Met;
  if (!MetricsPath.empty())
    Opts.Limits.Metrics = &Met;

  if (Opts.Resume) {
    // Surface a future-version or foreign checkpoint file as an error
    // here; runBatch would resume from nothing and silently redo the
    // whole batch.
    auto Prior = extra::search::readCheckpoints(Opts.CheckpointPath);
    if (!Prior) {
      std::fprintf(stderr, "cannot resume from '%s': %s\n",
                   Opts.CheckpointPath.c_str(),
                   Prior.fault().Message.c_str());
      return 1;
    }
  }

  extra::search::BatchStats Stats;
  std::vector<extra::search::BatchResult> Results =
      extra::search::runBatch(Cases, Opts, &Stats);

  int Rc = 0;
  for (const extra::search::BatchResult &R : Results) {
    if (Results.size() > 1)
      std::printf("----\n");
    if (R.FromCheckpoint) {
      std::printf("%s: resumed from checkpoint (%s)\n", R.Case.Id.c_str(),
                  extra::search::caseOutcomeName(R.Record.Outcome));
      Rc |= R.Record.Outcome == extra::search::CaseOutcome::Verified ? 0 : 1;
      continue;
    }
    Rc |= reportDiscovery(R.Case.Id, R.Discovery,
                          /*Verbose=*/Results.size() == 1, R.WallMs);
  }
  if (Results.size() > 1) {
    std::printf("----\n%s",
                extra::search::batchReportText(Results).c_str());
    std::printf("batch: %u/%u discovered, %u verified, %u retried, "
                "%u resumed, %u thread(s), "
                "%llu nodes, %llu hash hits, %.1f ms wall "
                "(%.1f ms summed over cases; slowest %s at %.1f ms)\n",
                Stats.Discovered, Stats.Cases, Stats.Verified, Stats.Retried,
                Stats.Resumed, Stats.ThreadsUsed,
                static_cast<unsigned long long>(Stats.NodesExpanded),
                static_cast<unsigned long long>(Stats.HashHits),
                Stats.WallMs, Stats.CaseWallMs, Stats.SlowestCase.c_str(),
                Stats.SlowestCaseMs);
  }
  if (!RegistryPath.empty()) {
    unsigned Admitted = 0;
    for (const extra::search::BatchResult &R : Results)
      if (R.Discovery.Verified &&
          Discovered.admitDiscovery(R.Case, R.Discovery, Opts.Limits,
                                    R.WallMs))
        ++Admitted;
    printBuildNotes(Discovered.notes());
    auto Saved = Discovered.registry().save(RegistryPath);
    if (!Saved) {
      std::fprintf(stderr, "%s\n", Saved.fault().Message.c_str());
      return 1;
    }
    std::printf("registry: %u verified binding(s) admitted, %zu entries "
                "in %s\n",
                Admitted, Discovered.registry().size(), RegistryPath.c_str());
  }
  if (FaultInjector::instance().armed()) {
    std::string Fired;
    for (const auto &[Site, Count] : FaultInjector::instance().firedBySite())
      Fired += " " + Site + "=" + std::to_string(Count);
    std::printf("injected faults: %llu total;%s\n",
                static_cast<unsigned long long>(
                    FaultInjector::instance().injectedTotal()),
                Fired.c_str());
  }

  if (Sink) {
    std::printf("trace: %llu record(s) -> %s\n",
                static_cast<unsigned long long>(Sink->recordCount()),
                TracePath.c_str());
    Sink.reset(); // Flush open spans before the stream closes.
  }
  if (!MetricsPath.empty()) {
    std::ofstream MO(MetricsPath);
    if (!MO) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   MetricsPath.c_str());
      return 1;
    }
    MO << Met.json() << "\n";
    std::printf("metrics: %s\n", MetricsPath.c_str());
  }
  if (HaveMinVerified && Stats.Verified < MinVerified) {
    std::fprintf(stderr,
                 "FAIL: %u verified discoveries, below the --min-verified "
                 "floor of %llu\n",
                 Stats.Verified,
                 static_cast<unsigned long long>(MinVerified));
    return 1;
  }
  return All ? 0 : Rc; // --all is a survey, not an assertion.
}

/// Reads the JSONL trace at \p Path, saying on stderr why when it cannot.
std::optional<std::vector<obs::TraceRecord>>
loadTrace(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "bad trace: cannot open trace file %s\n",
                 Path.c_str());
    return std::nullopt;
  }
  std::string Err;
  auto Trace = obs::readTrace(In, &Err);
  if (!Trace)
    std::fprintf(stderr, "bad trace: %s: %s\n", Path.c_str(), Err.c_str());
  return Trace;
}

int cmdPostmortem(int argc, char **argv) {
  if (argc < 3 || argv[2][0] == '-')
    return usage();
  std::string TracePath = argv[2];
  std::string Against;
  bool Partial = false;
  for (int I = 3; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--against") && I + 1 < argc)
      Against = argv[++I];
    else if (!std::strcmp(argv[I], "--partial"))
      Partial = true;
    else
      return usage();
  }
  if (Against.empty() && !Partial)
    return usage();
  auto Trace = loadTrace(TracePath);
  if (!Trace)
    return 1;
  if (Partial) {
    std::fputs(extra::search::summarizePartial(*Trace).str().c_str(),
               stdout);
    if (Against.empty())
      return 0;
  }
  const AnalysisCase *Case = findCase(Against);
  if (!Case) {
    std::fprintf(stderr, "unknown case '%s' (try `extra-cli cases`)\n",
                 Against.c_str());
    return 1;
  }
  extra::search::PostmortemOptions PO;
  PO.CaseFilter = Case->Id;
  extra::search::PostmortemReport Rep =
      extra::search::postmortem(*Trace, *Case, PO);
  if (!Rep.Ok && Rep.Error.find("no search span matches") == 0) {
    // The trace may predate case labels; retry unfiltered (unambiguous
    // only when the trace holds a single search).
    PO.CaseFilter.clear();
    Rep = extra::search::postmortem(*Trace, *Case, PO);
  }
  std::fputs(Rep.str().c_str(), stdout);
  return Rep.Ok ? 0 : 1;
}

int cmdProfile(int argc, char **argv) {
  if (argc < 3 || argv[2][0] == '-')
    return usage();
  std::string TracePath = argv[2];
  std::string CollapsedPath;
  for (int I = 3; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--collapsed") && I + 1 < argc)
      CollapsedPath = argv[++I];
    else
      return usage();
  }
  auto Trace = loadTrace(TracePath);
  if (!Trace)
    return 1;
  obs::ProfileReport Rep = obs::profileTrace(*Trace);
  std::fputs(Rep.str().c_str(), stdout);
  if (!CollapsedPath.empty()) {
    std::ofstream OS(CollapsedPath);
    if (!OS) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   CollapsedPath.c_str());
      return 1;
    }
    OS << obs::collapsedStacks(*Trace);
    std::printf("collapsed stacks -> %s\n", CollapsedPath.c_str());
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// registry build | inspect, compile --registry
//===----------------------------------------------------------------------===//

/// Loads a registry file that a verb reads but never writes. A missing
/// file is an error here, not an empty registry: only `search --registry`
/// starts from nothing, and elsewhere a typo should not read as "0
/// entries".
std::optional<extra::registry::Registry>
loadExistingRegistry(const std::string &Path) {
  if (!std::ifstream(Path)) {
    std::fprintf(stderr, "cannot open '%s'\n", Path.c_str());
    return std::nullopt;
  }
  auto R = extra::registry::Registry::load(Path);
  if (!R) {
    std::fprintf(stderr, "%s\n", R.fault().Message.c_str());
    return std::nullopt;
  }
  return std::move(*R);
}

int cmdRegistry(int argc, char **argv) {
  using namespace extra::registry;
  if (argc < 3)
    return usage();
  std::string Sub = argv[2];

  if (Sub == "build") {
    std::string Out;
    bool Recorded = false;
    // In command-line order: later imports supersede earlier ones per
    // pairing key.
    std::vector<std::string> ScriptDirs;
    for (int I = 3; I < argc; ++I) {
      std::string Arg = argv[I];
      if (Arg == "--out" && I + 1 < argc)
        Out = argv[++I];
      else if (Arg == "--recorded")
        Recorded = true;
      else if (Arg == "--from-scripts" && I + 1 < argc)
        ScriptDirs.push_back(argv[++I]);
      else
        return usage();
    }
    if (Out.empty())
      return usage();
    if (ScriptDirs.empty())
      Recorded = true; // No artifact named: the built-in corpus.

    RegistryBuilder B;
    auto Report = [&](const char *Kind, const Expected<unsigned> &N) {
      if (!N) {
        std::fprintf(stderr, "%s import failed: %s\n", Kind,
                     N.fault().Message.c_str());
        return false;
      }
      std::printf("%-12s %u pairings admitted\n", Kind, *N);
      return true;
    };
    if (Recorded && !Report("recorded", B.addRecordedCases()))
      return 1;
    for (const std::string &Dir : ScriptDirs)
      if (!Report("scripts", B.importScriptsDir(Dir)))
        return 1;
    printBuildNotes(B.notes());
    auto Saved = B.registry().save(Out);
    if (!Saved) {
      std::fprintf(stderr, "%s\n", Saved.fault().Message.c_str());
      return 1;
    }
    std::printf("wrote %zu entries to %s\n", B.registry().size(),
                Out.c_str());
    return 0;
  }

  if (Sub == "inspect") {
    if (argc < 4)
      return usage();
    auto R = loadExistingRegistry(argv[3]);
    if (!R)
      return 1;
    std::printf("%zu entries in %s\n", R->size(), argv[3]);
    for (const RegistryEntry *E : R->entries()) {
      std::printf("%s  %-30s %-7s %-10s %-10s %s\n", E->Key.c_str(),
                  E->AnalysisId.c_str(), E->Machine.c_str(),
                  E->Op.empty() ? "(no-op)" : E->Op.c_str(),
                  E->Source.c_str(), analysis::modeName(E->M));
      for (const std::string &Line : extra::split(E->Constraints, '\n'))
        if (!Line.empty())
          std::printf("    %s\n", Line.c_str());
    }
    return 0;
  }

  return usage();
}

int cmdCompile(int argc, char **argv) {
  using namespace extra::registry;
  std::string RegPath, MachineFilter;
  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--registry" && I + 1 < argc)
      RegPath = argv[++I];
    else if (Arg == "--machine" && I + 1 < argc)
      MachineFilter = argv[++I];
    else
      return usage();
  }
  if (RegPath.empty())
    return usage();
  if (!MachineFilter.empty() && !machineFromName(MachineFilter)) {
    std::fprintf(stderr, "unknown machine '%s'\n", MachineFilter.c_str());
    return usage();
  }
  auto R = loadExistingRegistry(RegPath);
  if (!R)
    return 1;

  bool AllPass = true;
  for (MachineKind MK : allMachines()) {
    if (!MachineFilter.empty() && MachineFilter != machineName(MK))
      continue;
    std::vector<CompileNote> Notes;
    DifferentialReport Rep =
        runDifferential(MK, *R, demoProgram(), demoMemory(), &Notes);
    std::printf("%s", formatReport(Rep).c_str());
    for (const CompileNote &N : Notes)
      std::printf("  note: %s: %s\n", N.CaseId.c_str(), N.Detail.c_str());
    if (!Rep.passes()) {
      AllPass = false;
      std::printf("  FAIL: %s\n",
                  !Rep.StatesMatch
                      ? "states diverged"
                      : (Rep.WithRegistry.Exotic == 0
                             ? "no exotic emission from the registry"
                             : "not strictly fewer instruction "
                               "dispatches"));
    }
  }
  return AllPass ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  // Arm the fault injector from the environment before any command runs
  // (the `search --inject` flag layers on top of this).
  std::string InjectErr;
  if (!FaultInjector::instance().configureFromEnv(&InjectErr)) {
    std::fprintf(stderr, "bad EXTRA_INJECT: %s\n", InjectErr.c_str());
    return 2;
  }
  const char *Cmd = argv[1];
  if (!std::strcmp(Cmd, "rules"))
    return cmdRules(argc, argv);
  if (!std::strcmp(Cmd, "catalog"))
    return cmdCatalog();
  if (!std::strcmp(Cmd, "descriptions"))
    return cmdDescriptions();
  if (!std::strcmp(Cmd, "show"))
    return cmdShow(argc, argv);
  if (!std::strcmp(Cmd, "cases"))
    return cmdCases();
  if (!std::strcmp(Cmd, "analyze"))
    return cmdAnalyze(argc, argv);
  if (!std::strcmp(Cmd, "replay"))
    return cmdReplay(argc, argv);
  if (!std::strcmp(Cmd, "search"))
    return cmdSearch(argc, argv);
  if (!std::strcmp(Cmd, "postmortem"))
    return cmdPostmortem(argc, argv);
  if (!std::strcmp(Cmd, "profile"))
    return cmdProfile(argc, argv);
  if (!std::strcmp(Cmd, "registry"))
    return cmdRegistry(argc, argv);
  if (!std::strcmp(Cmd, "compile"))
    return cmdCompile(argc, argv);
  return usage();
}
