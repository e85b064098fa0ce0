//===- support_test.cpp - Support library unit tests ------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"
#include "support/Error.h"
#include "support/FaultInjection.h"
#include "support/Json.h"
#include "support/StringUtil.h"
#include "support/VersionedFile.h"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <memory>
#include <thread>
#include <vector>

using namespace extra;

namespace {

TEST(DiagnosticsTest, ErrorCounting) {
  DiagnosticEngine D;
  EXPECT_FALSE(D.hasErrors());
  D.warning({1, 2}, "w");
  EXPECT_FALSE(D.hasErrors());
  D.error({3, 4}, "e");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  EXPECT_EQ(D.diagnostics().size(), 2u);
  D.clear();
  EXPECT_FALSE(D.hasErrors());
  EXPECT_TRUE(D.diagnostics().empty());
}

TEST(DiagnosticsTest, Rendering) {
  DiagnosticEngine D;
  D.error({3, 7}, "bad thing");
  D.note(SourceLoc(), "context");
  std::string S = D.str();
  EXPECT_NE(S.find("3:7: error: bad thing"), std::string::npos);
  EXPECT_NE(S.find("note: context"), std::string::npos);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n"), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(StringUtilTest, Pad) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padLeft("abcd", 2), "abcd");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(startsWith("abc", "ab"));
  EXPECT_TRUE(startsWith("abc", ""));
  EXPECT_FALSE(startsWith("abc", "abcd"));
  EXPECT_FALSE(startsWith("abc", "b"));
}

TEST(StringUtilTest, ParseUnsignedTakesWholeDecimalArgument) {
  EXPECT_EQ(parseUnsigned("0"), 0u);
  EXPECT_EQ(parseUnsigned("300"), 300u);
  EXPECT_EQ(parseUnsigned("007"), 7u);
  EXPECT_EQ(parseUnsigned("18446744073709551615"), UINT64_MAX);
  // A prefix is not a number, and neither is a sign, a space or a base.
  for (const char *Bad : {"", "abc", "3x", "x3", "-1", "+1", " 1", "1 ",
                          "0x10", "1.5", "1e3"})
    EXPECT_FALSE(parseUnsigned(Bad)) << '"' << Bad << '"';
  // Overflow is rejected, not wrapped.
  EXPECT_FALSE(parseUnsigned("18446744073709551616"));
  EXPECT_FALSE(parseUnsigned("99999999999999999999"));
}

TEST(StringUtilTest, ParseUnsignedHonorsMax) {
  EXPECT_EQ(parseUnsigned("4294967295", UINT32_MAX), UINT32_MAX);
  EXPECT_FALSE(parseUnsigned("4294967296", UINT32_MAX));
  EXPECT_EQ(parseUnsigned("0", 0), 0u);
  EXPECT_FALSE(parseUnsigned("5", 0));
  EXPECT_EQ(parseUnsigned("19", 19), 19u);
  EXPECT_FALSE(parseUnsigned("20", 19));
}

//===----------------------------------------------------------------------===//
// Typed faults and Expected<T>
//===----------------------------------------------------------------------===//

TEST(ErrorTest, FaultCategoryNamesRoundTrip) {
  for (FaultCategory C :
       {FaultCategory::None, FaultCategory::Parse, FaultCategory::Validate,
        FaultCategory::InterpBudget, FaultCategory::RuleApplication,
        FaultCategory::Synth, FaultCategory::Internal})
    EXPECT_EQ(faultCategoryFromName(faultCategoryName(C)), C);
  // Unknown names degrade to Internal, never crash.
  EXPECT_EQ(faultCategoryFromName("???"), FaultCategory::Internal);
}

TEST(ErrorTest, ExpectedCarriesValueOrFault) {
  Expected<int> Ok(42);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(*Ok, 42);
  EXPECT_FALSE(Ok.fault().isFault());

  Expected<int> Bad(makeFault(FaultCategory::Parse, "boom"));
  ASSERT_FALSE(Bad);
  EXPECT_EQ(Bad.fault().Category, FaultCategory::Parse);
  EXPECT_EQ(Bad.fault().str(), "parse: boom");
}

TEST(ErrorTest, ExpectedMoveOnlyPayload) {
  Expected<std::unique_ptr<int>> E(std::make_unique<int>(7));
  ASSERT_TRUE(E);
  std::unique_ptr<int> P = E.take();
  ASSERT_TRUE(P);
  EXPECT_EQ(*P, 7);
}

//===----------------------------------------------------------------------===//
// Deterministic fault injection
//===----------------------------------------------------------------------===//

/// Disarms the injector on scope exit so tests cannot leak a spec.
struct InjectorReset {
  ~InjectorReset() { FaultInjector::instance().reset(); }
};

TEST(FaultInjectionTest, DisarmedIsSilent) {
  InjectorReset Guard;
  FaultInjector::instance().reset();
  EXPECT_FALSE(FaultInjector::instance().armed());
  for (int I = 0; I < 1000; ++I)
    EXPECT_FALSE(FaultInjector::instance().shouldFail("parser"));
  EXPECT_EQ(FaultInjector::instance().injectedTotal(), 0u);
}

TEST(FaultInjectionTest, SpecValidation) {
  InjectorReset Guard;
  std::string Err;
  EXPECT_FALSE(FaultInjector::instance().configure("nosuchsite=0.5", &Err));
  EXPECT_NE(Err.find("nosuchsite"), std::string::npos);
  EXPECT_FALSE(FaultInjector::instance().configure("store=0.5", &Err));
  EXPECT_FALSE(FaultInjector::instance().configure("parser=1.5", &Err));
  EXPECT_FALSE(FaultInjector::instance().configure("parser=", &Err));
  EXPECT_FALSE(FaultInjector::instance().configure("parser", &Err));
  EXPECT_TRUE(
      FaultInjector::instance().configure("parser=0.5, synth=0.25", &Err))
      << Err;
  EXPECT_TRUE(FaultInjector::instance().armed());
}

TEST(FaultInjectionTest, DecisionsDeterministicWithinScope) {
  // The Nth check of a site inside a named scope is a pure function of
  // (seed, site, scope, N): replaying the same scope yields the same
  // decision sequence.
  InjectorReset Guard;
  std::string Err;
  ASSERT_TRUE(FaultInjector::instance().configure("parser=0.3", &Err)) << Err;

  auto Sequence = [] {
    std::vector<bool> Out;
    FaultScope Scope("case-a");
    for (int I = 0; I < 64; ++I)
      Out.push_back(FaultInjector::instance().shouldFail("parser"));
    return Out;
  };
  std::vector<bool> First = Sequence();
  std::vector<bool> Second = Sequence();
  EXPECT_EQ(First, Second);

  // A different scope label sees a different (but equally deterministic)
  // stream.
  std::vector<bool> Other;
  {
    FaultScope Scope("case-b");
    for (int I = 0; I < 64; ++I)
      Other.push_back(FaultInjector::instance().shouldFail("parser"));
  }
  EXPECT_NE(First, Other);
}

TEST(FaultInjectionTest, DecisionsIndependentOfThread) {
  // Scoped decisions are thread-local state only: two threads replaying
  // the same scope observe identical streams.
  InjectorReset Guard;
  std::string Err;
  ASSERT_TRUE(FaultInjector::instance().configure("interp=0.4", &Err)) << Err;

  auto Run = [](std::vector<bool> &Out) {
    FaultScope Scope("case-x");
    for (int I = 0; I < 64; ++I)
      Out.push_back(FaultInjector::instance().shouldFail("interp"));
  };
  std::vector<bool> A, B;
  std::thread T1([&] { Run(A); });
  std::thread T2([&] { Run(B); });
  T1.join();
  T2.join();
  EXPECT_EQ(A, B);
}

TEST(FaultInjectionTest, SuppressWins) {
  InjectorReset Guard;
  std::string Err;
  ASSERT_TRUE(FaultInjector::instance().configure("validate=1", &Err)) << Err;
  EXPECT_TRUE(FaultInjector::instance().shouldFail("validate"));
  {
    FaultSuppress Quiet;
    for (int I = 0; I < 100; ++I)
      EXPECT_FALSE(FaultInjector::instance().shouldFail("validate"));
  }
  EXPECT_TRUE(FaultInjector::instance().shouldFail("validate"));
}

TEST(FaultInjectionTest, RateOneAlwaysFiresRateZeroNever) {
  InjectorReset Guard;
  std::string Err;
  ASSERT_TRUE(
      FaultInjector::instance().configure("synth=1,rule-apply=0", &Err))
      << Err;
  FaultScope Scope("rates");
  for (int I = 0; I < 50; ++I) {
    EXPECT_TRUE(FaultInjector::instance().shouldFail("synth"));
    EXPECT_FALSE(FaultInjector::instance().shouldFail("rule-apply"));
  }
  auto Fired = FaultInjector::instance().firedBySite();
  ASSERT_EQ(Fired.size(), 2u);
}

// --- VersionedFile: the shared JSONL durability contract ---

TEST(JsonLineTest, EscapeRoundTripsThroughTheReader) {
  // Every byte the writers may put in a string value, control characters,
  // quotes and backslashes included, reads back as itself.
  std::string All;
  for (int C = 0x01; C <= 0x7f; ++C)
    All += static_cast<char>(C);
  auto O = support::parseJsonObjectLine("{\"k\":\"" + support::jsonEscape(All) +
                                        "\",\"n\":7}");
  ASSERT_TRUE(O.has_value());
  EXPECT_EQ(O->field("k"), All);
  EXPECT_EQ(O->fieldU64("n"), 7u);
}

TEST(JsonLineTest, RejectsTrailingContent) {
  EXPECT_FALSE(support::parseJsonObjectLine("{\"a\":1} x").has_value());
  EXPECT_FALSE(support::parseJsonObjectLine("{} x").has_value());
  auto O = support::parseJsonObjectLine("{\"a\":1}  ");
  ASSERT_TRUE(O.has_value());
  EXPECT_EQ(O->field("a"), "1");
}

class VersionedFileTest : public ::testing::Test {
protected:
  std::string Path;
  support::FileFormat Fmt{"extra-widget", 3, "widget file"};

  void SetUp() override {
    // ctest runs each case as its own process, in parallel: one file per
    // case, so no case deletes or overwrites another's.
    Path = testing::TempDir() + "/versioned_file_test." +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".jsonl";
    std::remove(Path.c_str());
  }
  void TearDown() override { std::remove(Path.c_str()); }

  void writeRaw(const std::string &Text) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Text;
  }
};

TEST_F(VersionedFileTest, HeaderLineRoundTrips) {
  std::string Line = support::versionHeaderLine("extra-widget", 3);
  auto H = support::parseVersionHeader(Line);
  ASSERT_TRUE(H.has_value());
  EXPECT_EQ(H->first, "extra-widget");
  EXPECT_EQ(H->second, 3u);
}

TEST_F(VersionedFileTest, RecordLinesAreNotHeaders) {
  EXPECT_FALSE(support::parseVersionHeader("{\"key\":\"a/b\"}").has_value());
  EXPECT_FALSE(support::parseVersionHeader("{\"format\":\"x\"").has_value());
  EXPECT_FALSE(support::parseVersionHeader("not json at all").has_value());
  EXPECT_FALSE(support::parseVersionHeader("").has_value());
}

TEST_F(VersionedFileTest, MissingFileReadsEmpty) {
  auto Lines = support::readVersionedLines(Path, Fmt);
  ASSERT_TRUE(Lines);
  EXPECT_TRUE(Lines->empty());
}

TEST_F(VersionedFileTest, AppendStampsHeaderOnceAndReaderStripsIt) {
  ASSERT_TRUE(support::appendVersionedLine(Path, Fmt, "{\"n\":1}"));
  ASSERT_TRUE(support::appendVersionedLine(Path, Fmt, "{\"n\":2}"));
  std::ifstream In(Path);
  std::string First;
  std::getline(In, First);
  EXPECT_TRUE(support::parseVersionHeader(First).has_value());
  auto Lines = support::readVersionedLines(Path, Fmt);
  ASSERT_TRUE(Lines);
  EXPECT_EQ(*Lines, (std::vector<std::string>{"{\"n\":1}", "{\"n\":2}"}));
}

TEST_F(VersionedFileTest, AppendAfterTornTailStartsAFreshLine) {
  // A run killed mid-append leaves an unterminated tail; the next append
  // must not weld two records onto one line.
  writeRaw(support::versionHeaderLine("extra-widget", 3) + "\n{\"n\":1}");
  ASSERT_TRUE(support::appendVersionedLine(Path, Fmt, "{\"n\":2}"));
  auto Lines = support::readVersionedLines(Path, Fmt);
  ASSERT_TRUE(Lines);
  EXPECT_EQ(*Lines, (std::vector<std::string>{"{\"n\":1}", "{\"n\":2}"}));
}

TEST_F(VersionedFileTest, HeaderlessFileIsToleratedAsCurrentVersion) {
  writeRaw("{\"n\":1}\n\n{\"n\":2}\n");
  auto Lines = support::readVersionedLines(Path, Fmt);
  ASSERT_TRUE(Lines);
  EXPECT_EQ(*Lines, (std::vector<std::string>{"{\"n\":1}", "{\"n\":2}"}));
}

TEST_F(VersionedFileTest, ForeignFormatIsATypedStoreFault) {
  writeRaw(support::versionHeaderLine("extra-other", 1) + "\n{\"n\":1}\n");
  auto Lines = support::readVersionedLines(Path, Fmt);
  ASSERT_FALSE(Lines);
  EXPECT_EQ(Lines.fault().Category, FaultCategory::Store);
  EXPECT_NE(Lines.fault().Message.find("not a widget file"),
            std::string::npos);
}

TEST_F(VersionedFileTest, FutureVersionIsATypedStoreFault) {
  writeRaw(support::versionHeaderLine("extra-widget", 4) + "\n{\"n\":1}\n");
  auto Lines = support::readVersionedLines(Path, Fmt);
  ASSERT_FALSE(Lines);
  EXPECT_EQ(Lines.fault().Category, FaultCategory::Store);
  EXPECT_NE(Lines.fault().Message.find("reads up to version"),
            std::string::npos);
}

TEST_F(VersionedFileTest, WholeFileWriteRoundTrips) {
  ASSERT_TRUE(support::appendVersionedLine(Path, Fmt, "{\"stale\":true}"));
  ASSERT_TRUE(
      support::writeVersionedFile(Path, Fmt, {"{\"n\":1}", "{\"n\":2}"}));
  auto Lines = support::readVersionedLines(Path, Fmt);
  ASSERT_TRUE(Lines);
  EXPECT_EQ(*Lines, (std::vector<std::string>{"{\"n\":1}", "{\"n\":2}"}));
}

} // namespace
