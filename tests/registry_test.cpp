//===- registry_test.cpp - Binding registry subsystem tests -----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// The executable-registry pipeline end to end: format round trips and
// version-header behavior, imports from every artifact source, constraint
// text re-parsing, binding compilation per machine, and the differential
// execution proof that registry-compiled bindings produce simulator
// states identical to decomposition while dispatching strictly fewer
// instructions.
//
//===----------------------------------------------------------------------===//

#include "registry/Harness.h"
#include "registry/RegistryBuilder.h"

#include "analysis/Derivations.h"
#include "search/Checkpoint.h"
#include "support/VersionedFile.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#ifndef EXTRA_SOURCE_DIR
#define EXTRA_SOURCE_DIR "."
#endif

using namespace extra;
using namespace extra::registry;

namespace {

struct TempFile {
  std::string Path;
  explicit TempFile(const std::string &Name)
      : Path(::testing::TempDir() + Name) {
    std::remove(Path.c_str());
  }
  ~TempFile() { std::remove(Path.c_str()); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Building from the recorded corpus
//===----------------------------------------------------------------------===//

TEST(RegistryBuilder, RecordedCorpusAdmitsAllFourteenPairings) {
  const Registry &R = recordedCorpus();
  // 11 Table 2 cases + stosb/clear + skpc/span + movc3/sassign.
  EXPECT_EQ(R.size(), 14u);
  for (const RegistryEntry *E : R.entries()) {
    EXPECT_FALSE(E->Key.empty());
    EXPECT_FALSE(E->Constraints.empty()) << E->AnalysisId;
    EXPECT_FALSE(E->Binding.empty()) << E->AnalysisId;
    if (E->Mnemonic != "mvc") // mvc matches with no instruction rewriting.
      EXPECT_FALSE(E->InstScript.empty()) << E->AnalysisId;
    EXPECT_EQ(E->Source, "recorded");
    EXPECT_FALSE(E->Machine.empty()) << E->InstructionId;
  }
}

TEST(RegistryBuilder, ScriptsDirImportMatchesRecordedCorpus) {
  RegistryBuilder B;
  auto N = B.importScriptsDir(std::string(EXTRA_SOURCE_DIR) + "/scripts");
  ASSERT_TRUE(N) << N.fault().Message;
  EXPECT_EQ(*N, 14u) << [&] {
    std::string Msg;
    for (const BuildNote &Note : B.notes())
      Msg += Note.CaseId + ": " + Note.Detail + "\n";
    return Msg;
  }();
  // The shipped scripts regenerate the same constraint sets the built-in
  // corpus does.
  for (const RegistryEntry *E : recordedCorpus().entries()) {
    const RegistryEntry *F = B.registry().find(E->Key);
    ASSERT_NE(F, nullptr) << E->AnalysisId;
    EXPECT_EQ(F->Constraints, E->Constraints) << E->AnalysisId;
    EXPECT_EQ(F->Binding, E->Binding) << E->AnalysisId;
  }
}

TEST(RegistryBuilder, CheckpointImportReplaysVerifiedCasesOnly) {
  TempFile F("registry_ckpt.jsonl");
  search::CheckpointRecord Good;
  Good.Case = "i8086.scasb/rigel.index";
  Good.Outcome = search::CaseOutcome::Verified;
  search::CheckpointRecord Bad;
  Bad.Case = "vax.locc/clu.search";
  Bad.Outcome = search::CaseOutcome::TimedOut;
  ASSERT_TRUE(search::appendCheckpoint(F.Path, Good));
  ASSERT_TRUE(search::appendCheckpoint(F.Path, Bad));

  RegistryBuilder B;
  auto N = B.importCheckpoint(F.Path);
  ASSERT_TRUE(N) << N.fault().Message;
  EXPECT_EQ(*N, 1u);
  EXPECT_EQ(B.registry().size(), 1u);
  EXPECT_EQ(B.registry().entries()[0]->AnalysisId, "i8086.scasb/rigel.index");
  EXPECT_EQ(B.registry().entries()[0]->Source, "checkpoint");
}

TEST(RegistryBuilder, MemoImportTakesVerifiedEntriesVerbatim) {
  // A memo line as the server writes it: verified, with the rendered
  // payload. The import must trust it without replay and carry budgets.
  const RegistryEntry *Seed = nullptr;
  for (const RegistryEntry *E : recordedCorpus().entries())
    if (E->AnalysisId == "i8086.scasb/rigel.index")
      Seed = E;
  ASSERT_NE(Seed, nullptr);

  TempFile F("registry_memo.jsonl");
  {
    std::ofstream Out(F.Path);
    Out << search::versionHeaderLine("extra-memo", 1) << "\n";
    RegistryEntry E = *Seed;
    // Reuse the registry rendering: the memo format is a superset of the
    // checkpoint record plus exactly these payload keys.
    std::string Line = E.toJsonLine();
    Line.insert(Line.size() - 1, ",\"outcome\":\"verified\"");
    Out << Line << "\n";
  }
  RegistryBuilder B;
  auto N = B.importMemoFile(F.Path);
  ASSERT_TRUE(N) << N.fault().Message;
  EXPECT_EQ(*N, 1u);
  const RegistryEntry *E = B.registry().find(Seed->Key);
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->Source, "memo");
  EXPECT_EQ(E->Constraints, Seed->Constraints);
  EXPECT_EQ(E->InstScript, Seed->InstScript);
}

//===----------------------------------------------------------------------===//
// Serialization: round trip, torn tail, version headers
//===----------------------------------------------------------------------===//

TEST(RegistryFormat, SaveLoadRoundTripPreservesEveryField) {
  TempFile F("registry_roundtrip.jsonl");
  const Registry &R = recordedCorpus();
  auto Saved = R.save(F.Path);
  ASSERT_TRUE(Saved) << Saved.fault().Message;

  auto Loaded = Registry::load(F.Path);
  ASSERT_TRUE(Loaded) << Loaded.fault().Message;
  ASSERT_EQ(Loaded->size(), R.size());
  for (const RegistryEntry *E : R.entries()) {
    const RegistryEntry *L = Loaded->find(E->Key);
    ASSERT_NE(L, nullptr) << E->Key;
    EXPECT_EQ(L->toJsonLine(), E->toJsonLine());
  }
}

TEST(RegistryFormat, MissingFileLoadsEmpty) {
  auto R = Registry::load(::testing::TempDir() + "no_such_registry.jsonl");
  ASSERT_TRUE(R);
  EXPECT_TRUE(R->empty());
}

TEST(RegistryFormat, TornTrailingLineIsSkipped) {
  TempFile F("registry_torn.jsonl");
  ASSERT_TRUE(recordedCorpus().save(F.Path));
  {
    std::ofstream Out(F.Path, std::ios::app);
    Out << "{\"key\":\"0xdead\",\"case\":\"i80"; // Killed mid-append.
  }
  auto R = Registry::load(F.Path);
  ASSERT_TRUE(R) << R.fault().Message;
  EXPECT_EQ(R->size(), recordedCorpus().size());
}

TEST(RegistryFormat, LaterRecordWinsOnDuplicateKey) {
  TempFile F("registry_dup.jsonl");
  const RegistryEntry *Seed = recordedCorpus().entries()[0];
  ASSERT_TRUE(Registry::appendEntry(F.Path, *Seed));
  RegistryEntry Updated = *Seed;
  Updated.Source = "memo";
  ASSERT_TRUE(Registry::appendEntry(F.Path, Updated));

  auto R = Registry::load(F.Path);
  ASSERT_TRUE(R);
  ASSERT_EQ(R->size(), 1u);
  EXPECT_EQ(R->entries()[0]->Source, "memo");
}

TEST(RegistryFormat, HeaderlessFileIsTolerated) {
  TempFile F("registry_headerless.jsonl");
  {
    std::ofstream Out(F.Path);
    Out << recordedCorpus().entries()[0]->toJsonLine() << "\n";
  }
  auto R = Registry::load(F.Path);
  ASSERT_TRUE(R) << R.fault().Message;
  EXPECT_EQ(R->size(), 1u);
}

TEST(RegistryFormat, ForeignFormatHeaderIsATypedStoreFault) {
  TempFile F("registry_foreign.jsonl");
  {
    std::ofstream Out(F.Path);
    Out << search::versionHeaderLine(search::kCheckpointFormat, 1) << "\n";
  }
  auto R = Registry::load(F.Path);
  ASSERT_FALSE(R);
  EXPECT_EQ(R.fault().Category, FaultCategory::Store);
}

TEST(RegistryFormat, FutureVersionHeaderIsATypedStoreFault) {
  TempFile F("registry_future.jsonl");
  {
    std::ofstream Out(F.Path);
    Out << search::versionHeaderLine(kRegistryFormat, kRegistryVersion + 1)
        << "\n";
  }
  auto R = Registry::load(F.Path);
  ASSERT_FALSE(R);
  EXPECT_EQ(R.fault().Category, FaultCategory::Store);
  EXPECT_NE(R.fault().Message.find("reads up to version"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Constraint text re-parsing
//===----------------------------------------------------------------------===//

TEST(ConstraintText, EveryRecordedSetReParsesToTheSameRendering) {
  for (const RegistryEntry *E : recordedCorpus().entries()) {
    auto CS = parseConstraintText(E->Constraints);
    ASSERT_TRUE(CS) << E->AnalysisId << ": " << CS.fault().Message;
    EXPECT_EQ(CS->str(), E->Constraints) << E->AnalysisId;
  }
}

TEST(ConstraintText, UnknownRenderingIsAParseFault) {
  auto CS = parseConstraintText("flavor: very exotic\n");
  ASSERT_FALSE(CS);
  EXPECT_EQ(CS.fault().Category, FaultCategory::Parse);
}

//===----------------------------------------------------------------------===//
// Binding compilation
//===----------------------------------------------------------------------===//

TEST(BindingCompiler, EveryInVocabularyEntryLowers) {
  for (const RegistryEntry *E : recordedCorpus().entries()) {
    auto B = compileBinding(*E);
    if (E->Op.empty()) {
      // rigel.span has no code-generator operator kind; the entry is
      // carried by the format but not lowerable.
      EXPECT_FALSE(B) << E->AnalysisId;
      continue;
    }
    ASSERT_TRUE(B) << E->AnalysisId << ": " << B.fault().Message;
    EXPECT_EQ(B->Mnemonic, E->Mnemonic);
    EXPECT_EQ(B->AnalysisId, E->AnalysisId);
    EXPECT_TRUE(static_cast<bool>(B->Emit));
  }
}

TEST(BindingCompiler, LoaderDeduplicatesTwoLanguagePairings) {
  auto T = codegen::makeI8086Target();
  std::vector<CompileNote> Notes;
  unsigned N =
      loadRegistryBindings(recordedCorpus(), "i8086", *T, &Notes);
  // scasb is discovered against both pascal.index and clu.search; one
  // binding covers both. movsb likewise. With cmpsb and stosb: 4.
  EXPECT_EQ(N, 4u);
  EXPECT_EQ(T->bindings().size(), 4u);
  bool SawDup = false;
  for (const CompileNote &Note : Notes)
    SawDup |= Note.Detail.find("already loaded") != std::string::npos;
  EXPECT_TRUE(SawDup);

  // The built-in targets: locc's two pairings share one binding on the
  // VAX (locc, two movc3s, cmpc3, movc5); the 370 has mvc alone.
  const std::pair<MachineKind, size_t> Loaded[] = {
      {MachineKind::I8086, 4}, {MachineKind::Vax, 5}, {MachineKind::Ibm370, 1}};
  for (const auto &[MK, Want] : Loaded)
    EXPECT_EQ(corpusTarget(MK)->bindings().size(), Want) << machineName(MK);
}

namespace {

const RegistryEntry &recordedEntry(const std::string &CaseId) {
  for (const RegistryEntry *E : recordedCorpus().entries())
    if (E->AnalysisId == CaseId)
      return *E;
  ADD_FAILURE() << "no recorded entry " << CaseId;
  return *recordedCorpus().entries()[0];
}

/// The lines \p E's lowered binding emits for one symbolic index.
std::vector<std::string> loweredIndexLines(const RegistryEntry &E) {
  auto B = compileBinding(E);
  if (!B) {
    ADD_FAILURE() << E.AnalysisId << ": " << B.fault().Message;
    return {};
  }
  codegen::CodeGenContext Ctx;
  B->Emit(codegen::strIndex("res", codegen::Value::symbol("s"),
                            codegen::Value::symbol("n"),
                            codegen::Value::symbol("c")),
          constraint::CompileTimeFacts(), Ctx);
  return Ctx.takeLines();
}

} // namespace

TEST(BindingCompiler, SearcherRenderedLoccOutputLowers) {
  // The searcher prints augment code with its own spacing; the lowerer
  // reads the ISDL AST, so the discovered rigel.index binding emits what
  // the recorded one does.
  RegistryEntry Discovered = recordedEntry("vax.locc/rigel.index");
  Discovered.InstScript =
      "allocate-temp name=rb section=OPERANDS type=bits:31:0\n"
      "add-prologue code=\"rb <- r1;\"\n"
      "replace-output code=\"if r0 = 0 then   output (0); else   "
      "output (r1 - rb); end_if;\"\n"
      "empty-if-elim\n";
  std::vector<std::string> Want =
      loweredIndexLines(recordedEntry("vax.locc/rigel.index"));
  ASSERT_FALSE(Want.empty());
  EXPECT_EQ(loweredIndexLines(Discovered), Want);
}

TEST(BindingCompiler, SearcherRenderedNegatedLoccOutputSwapsArms) {
  // For clu.search the searcher tests `not r0 = 0`, with the arms the
  // other way round; the lowered epilogue is the same.
  RegistryEntry Discovered = recordedEntry("vax.locc/clu.search");
  Discovered.InstScript =
      "allocate-temp name=rb section=OPERANDS type=bits:31:0\n"
      "add-prologue code=\"rb <- r1;\"\n"
      "replace-output code=\"if not r0 = 0 then   output (r1 - rb); else   "
      "output (0); end_if;\"\n"
      "empty-if-elim\n"
      "if-not-elim\n";
  std::vector<std::string> Want =
      loweredIndexLines(recordedEntry("vax.locc/rigel.index"));
  ASSERT_FALSE(Want.empty());
  EXPECT_EQ(loweredIndexLines(Discovered), Want);
}

TEST(BindingCompiler, MvcChunkSizeComesFromTheRangeConstraint) {
  // The 370 registry binding must chunk a 700-byte literal move at the
  // constraint's 256 bound — the number appears nowhere in the compiler.
  const RegistryEntry *Mvc = nullptr;
  for (const RegistryEntry *E : recordedCorpus().entries())
    if (E->Machine == "ibm370")
      Mvc = E;
  ASSERT_NE(Mvc, nullptr);
  auto B = compileBinding(*Mvc);
  ASSERT_TRUE(B) << B.fault().Message;
  ASSERT_TRUE(static_cast<bool>(B->RewriteEmit));

  codegen::CodeGenContext Ctx;
  codegen::HLOp Move = codegen::strMove(codegen::Value::literal(3000),
                                        codegen::Value::literal(1000),
                                        codegen::Value::literal(700));
  constraint::CompileTimeFacts Facts;
  ASSERT_TRUE(B->RewriteEmit(Move, Facts, Ctx));
  unsigned Chunks = 0;
  for (const std::string &Line : Ctx.lines())
    if (Line.find("mvc (r1), (r2), ") != std::string::npos)
      ++Chunks;
  EXPECT_EQ(Chunks, 3u); // 256 + 256 + 188.
}

//===----------------------------------------------------------------------===//
// Differential execution: registry bindings vs decomposition
//===----------------------------------------------------------------------===//

TEST(Differential, DemoProgramIsStateIdenticalAndCheaperOnAllMachines) {
  const Registry &R = recordedCorpus();
  for (MachineKind MK : allMachines()) {
    DifferentialReport Rep =
        runDifferential(MK, R, demoProgram(), demoMemory());
    EXPECT_TRUE(Rep.WithRegistry.Ok)
        << machineName(MK) << ": " << Rep.WithRegistry.Error;
    EXPECT_TRUE(Rep.Baseline.Ok)
        << machineName(MK) << ": " << Rep.Baseline.Error;
    EXPECT_TRUE(Rep.StatesMatch) << machineName(MK) << ": " << Rep.Divergence;
    EXPECT_GT(Rep.WithRegistry.Exotic, 0u) << machineName(MK);
    EXPECT_LT(Rep.WithRegistry.Instructions, Rep.Baseline.Instructions)
        << machineName(MK);
  }
}

namespace {

/// A one-op program exercising \p K, with literal operands inside every
/// recorded constraint.
codegen::Program opProgram(codegen::OpKind K) {
  using codegen::Value;
  codegen::Program P;
  switch (K) {
  case codegen::OpKind::StrIndex:
    P.Ops.push_back(codegen::strIndex("res", Value::literal(100),
                                      Value::literal(16),
                                      Value::literal('r')));
    break;
  case codegen::OpKind::StrMove:
    P.Ops.push_back(codegen::strMove(Value::literal(300), Value::literal(100),
                                     Value::literal(16)));
    break;
  case codegen::OpKind::StrEqual:
    P.Ops.push_back(codegen::strEqual("res", Value::literal(100),
                                      Value::literal(130),
                                      Value::literal(16)));
    break;
  case codegen::OpKind::BlockCopy:
    P.Ops.push_back(codegen::blockCopy(Value::literal(300),
                                       Value::literal(100),
                                       Value::literal(16)));
    break;
  case codegen::OpKind::BlockClear:
    P.Ops.push_back(codegen::blockClear(Value::literal(400),
                                        Value::literal(8)));
    break;
  }
  P.Facts.Axioms.insert("pascal.no-overlap");
  return P;
}

interp::Memory opMemory() {
  interp::Memory M;
  interp::storeBytes(M, 100, "characteristic!!");
  interp::storeBytes(M, 130, "characteristic!!"); // Equal to the first.
  for (int I = 0; I < 8; ++I)
    M[400 + I] = 0xEE;
  return M;
}

} // namespace

TEST(Differential, EveryLowerablePairingIsStateIdenticalInIsolation) {
  // Each registry entry, alone on a cleared target, against the
  // decomposed translation of the same one-op program. This is the
  // per-pairing half of the differential suite: a registry binding may
  // only ever change cost, never observable state.
  unsigned Exercised = 0;
  for (const RegistryEntry *E : recordedCorpus().entries()) {
    auto MK = machineFromName(E->Machine);
    ASSERT_TRUE(MK.has_value()) << E->AnalysisId;
    auto B = compileBinding(*E);
    if (!B)
      continue; // rigel.span: outside the code generator's vocabulary.

    Registry Solo;
    Solo.upsert(*E);
    codegen::Program P = opProgram(B->Op);
    DifferentialReport Rep = runDifferential(*MK, Solo, P, opMemory());
    EXPECT_EQ(Rep.BindingsLoaded, 1u) << E->AnalysisId;
    EXPECT_TRUE(Rep.WithRegistry.Ok)
        << E->AnalysisId << ": " << Rep.WithRegistry.Error;
    EXPECT_TRUE(Rep.Baseline.Ok)
        << E->AnalysisId << ": " << Rep.Baseline.Error;
    EXPECT_TRUE(Rep.StatesMatch) << E->AnalysisId << ": " << Rep.Divergence;
    EXPECT_EQ(Rep.WithRegistry.Exotic, 1u) << E->AnalysisId;
    EXPECT_LT(Rep.WithRegistry.Instructions, Rep.Baseline.Instructions)
        << E->AnalysisId;
    ++Exercised;
  }
  EXPECT_EQ(Exercised, 13u); // 14 pairings minus rigel.span.
}

TEST(Differential, RegistryFileRoundTripStillExecutes) {
  // The full deployment path: build -> save -> load -> compile -> run.
  TempFile F("registry_exec.jsonl");
  ASSERT_TRUE(recordedCorpus().save(F.Path));
  auto Loaded = Registry::load(F.Path);
  ASSERT_TRUE(Loaded) << Loaded.fault().Message;
  for (MachineKind MK : allMachines()) {
    DifferentialReport Rep =
        runDifferential(MK, *Loaded, demoProgram(), demoMemory());
    EXPECT_TRUE(Rep.passes())
        << machineName(MK) << ": " << formatReport(Rep);
  }
}
