//===- registry_test.cpp - Binding registry subsystem tests -----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// The executable-registry pipeline end to end: format round trips and
// version-header behavior, imports from every artifact source and from a
// search's own verified result, constraint text re-parsing, binding
// compilation per machine, and the differential execution proof that
// registry-compiled bindings produce simulator states identical to
// decomposition while dispatching strictly fewer instructions.
//
//===----------------------------------------------------------------------===//

#include "registry/Harness.h"
#include "registry/RegistryBuilder.h"

#include "SimTraffic.h"
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
    if (E->Mnemonic != "mvc") { // mvc matches with no instruction rewriting.
      EXPECT_FALSE(E->InstScript.empty()) << E->AnalysisId;
    }
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
  // Importing the scripts/ directory and importing the corpus compiled
  // from it give the same entries, provenance aside.
  auto Blank = [](RegistryEntry E) {
    E.Source.clear();
    E.WallMs = 0;
    return E.toJsonLine();
  };
  ASSERT_EQ(B.registry().size(), recordedCorpus().size());
  for (const RegistryEntry *E : recordedCorpus().entries()) {
    const RegistryEntry *F = B.registry().find(E->Key);
    ASSERT_NE(F, nullptr) << E->AnalysisId;
    EXPECT_EQ(Blank(*F), Blank(*E)) << E->AnalysisId;
  }
}

TEST(RegistryBuilder, UnparsableScriptFileIsNotedByName) {
  analysis::ScriptFiles Files = {
      {"vax.movc3_pc2.copy.operator.script",
       "swap-relational-operands occurrence=0\n"
       "swap-commutative op=\"+ occurrence=1\n"},
      {"vax.movc3_pc2.copy.instruction.script", "replace-output code=none\n"},
  };
  RegistryBuilder B;
  EXPECT_EQ(B.admitScriptFiles(Files, "scripts"), 0u);
  EXPECT_TRUE(B.registry().empty());
  ASSERT_EQ(B.notes().size(), 1u);
  EXPECT_EQ(B.notes()[0].CaseId, "vax.movc3/pc2.copy");
  EXPECT_EQ(B.notes()[0].Detail,
            "vax.movc3_pc2.copy.operator.script:2:36: error: "
            "unterminated quoted value");
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
  ASSERT_TRUE(support::appendVersionedLine(F.Path, registryFileFormat(),
                                           Seed->toJsonLine()));
  RegistryEntry Updated = *Seed;
  Updated.Source = "memo";
  ASSERT_TRUE(support::appendVersionedLine(F.Path, registryFileFormat(),
                                           Updated.toJsonLine()));

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
    Out << support::versionHeaderLine(search::kCheckpointFormat, 1) << "\n";
  }
  auto R = Registry::load(F.Path);
  ASSERT_FALSE(R);
  EXPECT_EQ(R.fault().Category, FaultCategory::Store);
}

TEST(RegistryFormat, FutureVersionHeaderIsATypedStoreFault) {
  TempFile F("registry_future.jsonl");
  {
    std::ofstream Out(F.Path);
    Out << support::versionHeaderLine(kRegistryFormat, kRegistryVersion + 1)
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

TEST(Differential, FrozenSimulatorTraffic) {
  // Compiled programs on both sides of the harness on every machine,
  // pinned as sim_test's frozen table pins hand-written runs.
  auto Bytes = [](uint64_t Base, size_t Len) {
    interp::Memory M;
    for (size_t I = 0; I < Len; ++I)
      M[Base + I] = static_cast<uint8_t>('a' + I % 26);
    return M;
  };
  using codegen::Value;
  auto Program = [](codegen::HLOp Op) {
    codegen::Program P;
    P.Ops.push_back(std::move(Op));
    P.Facts.Axioms.insert("pascal.no-overlap");
    return P;
  };
  std::vector<std::tuple<std::string, codegen::Program, interp::Memory>>
      Compiled = {
          {"demo", demoProgram(), demoMemory()},
          {"copy up",
           Program(codegen::blockCopy(Value::literal(110), Value::literal(100),
                                      Value::literal(40))),
           Bytes(100, 40)},
          {"copy down",
           Program(codegen::blockCopy(Value::literal(100), Value::literal(110),
                                      Value::literal(40))),
           Bytes(110, 40)},
          {"long move",
           Program(codegen::strMove(Value::literal(1000), Value::literal(100),
                                    Value::literal(600))),
           Bytes(100, 600)},
      };
  std::vector<std::pair<std::string, std::string>> Runs;
  for (const auto &[Name, P, Mem] : Compiled)
    for (MachineKind MK : allMachines()) {
      DifferentialReport Rep = runDifferential(MK, recordedCorpus(), P, Mem);
      std::string Tag = std::string(machineName(MK)) + " " + Name;
      Runs.emplace_back(Tag + " registry",
                        extra::testing::traffic(Rep.WithRegistry));
      Runs.emplace_back(Tag + " baseline",
                        extra::testing::traffic(Rep.Baseline));
    }

  static const std::vector<std::pair<std::string, std::string>> Frozen = {
      {"i8086 demo registry",
       "ok n=31 uops=67 mem=40:d042af6a127d452d regs=al=0 ax=0 bx=300 cx=0 "
       "di=408 eq=1 i=4 si=116 "},
      {"i8086 demo baseline",
       "ok n=389 uops=280 mem=40:d042af6a127d452d regs=al=114 bx=300 cx=0 "
       "dh=33 di=408 dl=0 eq=1 i=4 si=116 "},
      {"vax demo registry",
       "ok n=28 uops=69 mem=40:d042af6a127d452d regs=eq=1 i=4 r0=0 r1=0 "
       "r2=0 r3=408 r4=0 r5=0 "},
      {"vax demo baseline",
       "ok n=388 uops=279 mem=40:d042af6a127d452d regs=eq=1 i=4 r0=0 r1=116 "
       "r2=114 r3=408 r4=300 r5=0 r6=33 "},
      {"ibm370 demo registry",
       "ok n=258 uops=198 mem=40:d042af6a127d452d regs=eq=1 i=4 r1=408 "
       "r2=316 r3=0 r4=114 r5=300 r6=0 r7=33 "},
      {"ibm370 demo baseline",
       "ok n=388 uops=279 mem=40:d042af6a127d452d regs=eq=1 i=4 r1=408 "
       "r2=316 r3=0 r4=114 r5=300 r6=0 r7=33 "},
      {"i8086 copy up registry",
       "ok n=333 uops=250 mem=50:fd10e987808a5be9 regs=cx=0 di=110 dl=97 "
       "dx=140 si=100 "},
      {"i8086 copy up baseline",
       "ok n=333 uops=250 mem=50:fd10e987808a5be9 regs=cx=0 di=110 dl=97 "
       "dx=140 si=100 "},
      {"vax copy up registry",
       "ok n=4 uops=44 mem=50:fd10e987808a5be9 regs=r0=0 r1=140 r2=0 r3=150 "
       "r4=0 r5=0 "},
      {"vax copy up baseline",
       "ok n=325 uops=244 mem=50:eec73b0ee2c08329 regs=r0=0 r1=140 r3=150 "
       "r5=106 "},
      {"ibm370 copy up registry",
       "ok n=325 uops=244 mem=50:eec73b0ee2c08329 regs=r1=150 r2=140 r3=0 "
       "r6=106 "},
      {"ibm370 copy up baseline",
       "ok n=325 uops=244 mem=50:eec73b0ee2c08329 regs=r1=150 r2=140 r3=0 "
       "r6=106 "},
      {"i8086 copy down registry",
       "ok n=329 uops=247 mem=50:b70d356018664421 regs=cx=0 di=140 dl=110 "
       "dx=150 si=150 "},
      {"i8086 copy down baseline",
       "ok n=329 uops=247 mem=50:b70d356018664421 regs=cx=0 di=140 dl=110 "
       "dx=150 si=150 "},
      {"vax copy down registry",
       "ok n=4 uops=44 mem=50:b70d356018664421 regs=r0=0 r1=150 r2=0 r3=140 "
       "r4=0 r5=0 "},
      {"vax copy down baseline",
       "ok n=325 uops=244 mem=50:b70d356018664421 regs=r0=0 r1=150 r3=140 "
       "r5=110 "},
      {"ibm370 copy down registry",
       "ok n=325 uops=244 mem=50:b70d356018664421 regs=r1=140 r2=150 r3=0 "
       "r6=110 "},
      {"ibm370 copy down baseline",
       "ok n=325 uops=244 mem=50:b70d356018664421 regs=r1=140 r2=150 r3=0 "
       "r6=110 "},
      {"i8086 long move registry",
       "ok n=5 uops=604 mem=1200:27ad5ad0352587b5 regs=cx=0 di=1600 si=700 "},
      {"i8086 long move baseline",
       "ok n=4805 uops=3604 mem=1200:27ad5ad0352587b5 regs=cx=0 di=1600 "
       "dl=98 si=700 "},
      {"vax long move registry",
       "ok n=4 uops=604 mem=1200:27ad5ad0352587b5 regs=r0=0 r1=700 r2=0 "
       "r3=1600 r4=0 r5=0 "},
      {"vax long move baseline",
       "ok n=4805 uops=3604 mem=1200:27ad5ad0352587b5 regs=r0=0 r1=700 "
       "r3=1600 r5=98 "},
      {"ibm370 long move registry",
       "ok n=9 uops=609 mem=1200:27ad5ad0352587b5 regs=r1=1512 r2=612 "},
      {"ibm370 long move baseline",
       "ok n=4805 uops=3604 mem=1200:27ad5ad0352587b5 regs=r1=1600 r2=700 "
       "r3=0 r6=98 "},
  };
  ASSERT_EQ(Runs.size(), Frozen.size());
  for (size_t I = 0; I < Runs.size(); ++I) {
    EXPECT_EQ(Runs[I].first, Frozen[I].first);
    EXPECT_EQ(Runs[I].second, Frozen[I].second)
        << "{\"" << Runs[I].first << "\",\n \"" << Runs[I].second << "\"},";
  }
}

TEST(RegistryBuilder, DiscoveredBindingIsAdmittedSavedAndLowered) {
  // The `search --registry` path: a verified search result is admitted
  // from its own end-to-end replay, survives a save/load round trip, and
  // lowers onto the VAX as the movc3 copy binding.
  search::BatchCase C;
  C.Id = "vax.movc3/pc2.copy";
  C.OperatorId = "pc2.copy";
  C.InstructionId = "vax.movc3";
  search::SearchLimits L;
  search::DiscoveryResult D =
      search::discoverAndVerify(C.OperatorId, C.InstructionId, L);
  ASSERT_TRUE(D.Verified) << D.Outcome.FailureReason;

  RegistryBuilder B;
  ASSERT_TRUE(B.admitDiscovery(C, D, L, 12.5));
  EXPECT_TRUE(B.notes().empty());
  ASSERT_EQ(B.registry().size(), 1u);
  const RegistryEntry E = *B.registry().entries()[0];
  auto Key = pairingKeyHex(C.OperatorId, C.InstructionId, C.M);
  ASSERT_TRUE(Key);
  EXPECT_EQ(E.Key, *Key);
  EXPECT_EQ(E.AnalysisId, C.Id);
  EXPECT_EQ(E.Source, "search");
  EXPECT_EQ(E.Op, "BlockCopy");
  EXPECT_EQ(E.Binding, D.Replay.Binding.str());
  EXPECT_EQ(E.Constraints, D.Replay.Constraints.str());
  EXPECT_EQ(E.MaxNodes, L.MaxNodes);
  EXPECT_DOUBLE_EQ(E.WallMs, 12.5);

  TempFile F("registry_search.jsonl");
  ASSERT_TRUE(B.registry().save(F.Path));
  auto Loaded = Registry::load(F.Path);
  ASSERT_TRUE(Loaded) << Loaded.fault().Message;
  const RegistryEntry *Back = Loaded->find(E.Key);
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(Back->toJsonLine(), E.toJsonLine());

  DifferentialReport Rep =
      runDifferential(MachineKind::Vax, *Loaded,
                      opProgram(codegen::OpKind::BlockCopy), opMemory());
  EXPECT_EQ(Rep.BindingsLoaded, 1u);
  EXPECT_EQ(Rep.WithRegistry.Exotic, 1u);
  EXPECT_TRUE(Rep.passes()) << formatReport(Rep);

  // An unverified result is noted, never admitted.
  search::DiscoveryResult Unverified = D;
  Unverified.Verified = false;
  RegistryBuilder None;
  EXPECT_FALSE(None.admitDiscovery(C, Unverified, L, 0));
  EXPECT_TRUE(None.registry().empty());
  EXPECT_EQ(None.notes().size(), 1u);
}
