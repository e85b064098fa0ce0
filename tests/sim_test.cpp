//===- sim_test.cpp - Target simulator unit tests ---------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "SimTraffic.h"
#include "sim/Sim370.h"
#include "sim/Sim8086.h"
#include "sim/SimVax.h"

#include <gtest/gtest.h>

using namespace extra;
using namespace extra::sim;
using interp::Memory;
using interp::loadBytes;
using interp::storeBytes;
using extra::testing::traffic;

namespace {

TEST(SimCommonTest, ParseAsmLine) {
  AsmStmt S = parseAsmLine("  mov di, 100   ; comment", ';');
  ASSERT_EQ(S.Toks.size(), 3u);
  EXPECT_EQ(S.Toks[0], "mov");
  EXPECT_EQ(S.Toks[1], "di");
  EXPECT_EQ(S.Toks[2], "100");

  AsmStmt L = parseAsmLine("top0:", ';');
  EXPECT_EQ(L.Label, "top0");
  EXPECT_TRUE(L.Toks.empty());

  AsmStmt C = parseAsmLine("; only a comment", ';');
  EXPECT_TRUE(C.Label.empty());
  EXPECT_TRUE(C.Toks.empty());
}

TEST(SimCommonTest, AssembleRejectsDuplicateLabels) {
  std::vector<AsmStmt> Prog;
  std::map<std::string, size_t> Labels;
  std::string Error;
  EXPECT_FALSE(assemble({"x:", "mov a, 1", "x:"}, ';', Prog, Labels, Error));
  EXPECT_NE(Error.find("duplicate"), std::string::npos);
}

TEST(SimCommonTest, CodeSizeCountsInstructionLines) {
  EXPECT_EQ(codeSize({"; c", "l:", "mov a, 1", "", "  add a, 2"}, ';'), 2u);
}

//===----------------------------------------------------------------------===//
// 8086
//===----------------------------------------------------------------------===//

TEST(Sim8086Test, MovAddSubCmp) {
  SimResult R = run8086({
      "mov ax, 5",
      "add ax, 7",
      "sub ax, 2",
      "cmp ax, 10",
      "jz yes",
      "mov bx, 0",
      "jmp done",
      "yes:",
      "mov bx, 1",
      "done:",
  });
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.reg("ax"), 10);
  EXPECT_EQ(R.reg("bx"), 1);
}

TEST(Sim8086Test, SixteenBitWraparound) {
  SimResult R = run8086({"mov cx, 0", "dec cx"});
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.reg("cx"), 0xFFFF);
}

TEST(Sim8086Test, MemoryOperands) {
  Memory M;
  M[50] = 7;
  SimResult R = run8086({"mov si, 50", "mov al, [si]", "mov di, 60",
                         "mov [di], al"},
                        M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.reg("al"), 7);
  EXPECT_EQ(R.Mem.get(60), 7);
}

TEST(Sim8086Test, RepneScasbFindsCharacter) {
  Memory M;
  storeBytes(M, 100, "hello");
  SimResult R = run8086({"mov di, 100", "mov cx, 5", "mov al, 108",
                         "cld", "repne scasb"},
                        M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.reg("di"), 103); // one past the first 'l'
  EXPECT_EQ(R.reg("cx"), 2);
}

TEST(Sim8086Test, RepMovsbMovesBlock) {
  Memory M;
  storeBytes(M, 10, "abcde");
  SimResult R = run8086({"mov si, 10", "mov di, 30", "mov cx, 5", "cld",
                         "rep movsb"},
                        M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(loadBytes(R.Mem, 30, 5), "abcde");
  // One dispatch for the rep line, five micro-ops for the bytes.
  EXPECT_EQ(R.reg("cx"), 0);
}

TEST(Sim8086Test, RepeCmpsbStopsAtMismatch) {
  Memory M;
  storeBytes(M, 10, "abcx");
  storeBytes(M, 30, "abcy");
  SimResult R = run8086({"mov si, 10", "mov di, 30", "mov cx, 4", "cld",
                         "cmp ax, ax", "repe cmpsb", "jnz ne", "mov dx, 1",
                         "jmp done", "ne:", "mov dx, 0", "done:"},
                        M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.reg("dx"), 0);
}

TEST(Sim8086Test, BackwardDirection) {
  Memory M;
  storeBytes(M, 10, "ab");
  SimResult R = run8086({"mov si, 11", "std", "lodsb"}, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.reg("al"), 'b');
  EXPECT_EQ(R.reg("si"), 10);
}

TEST(Sim8086Test, UnknownInstructionReported) {
  SimResult R = run8086({"frobnicate ax, 1"});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("unknown instruction"), std::string::npos);
}

TEST(Sim8086Test, JumpWithoutLabelIsUnknownInstruction) {
  SimResult R = run8086({"mov ax, 1", "jmp"});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "unknown instruction 'jmp' in 'jmp'");
  EXPECT_EQ(R.Instructions, 2u);
  R = run8086({"cmp ax, ax", "jz"});
  EXPECT_EQ(R.Error, "unknown instruction 'jz' in 'jz'");
}

TEST(Sim8086Test, InfiniteLoopHitsStepLimit) {
  SimResult R = run8086({"top:", "jmp top"}, {}, {}, 1000);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);
}

TEST(Sim8086Test, LongRepRunsUnderTheStepCapAlone) {
  // 200 passes of a 60000-byte rep movsb: 12M byte moves. The 16-bit cx
  // bounds each rep and the step cap bounds the run; no budget on the
  // whole run's byte work cuts a rep short.
  SimResult R = run8086({"mov bx, 200", "top:", "mov si, 0", "mov di, 0",
                         "mov cx, 60000", "cld", "rep movsb", "dec bx",
                         "jnz top"},
                        {}, {}, 100000000);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Instructions, 1401u);
  EXPECT_EQ(R.MicroOps, 1u + 200u * 60005u);
  EXPECT_EQ(R.reg("bx"), 0);
}

TEST(Sim8086Test, VirtualSymbolsActAsRegisters) {
  SimResult R = run8086({"mov result, 42", "mov ax, result"});
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.reg("ax"), 42);
}

//===----------------------------------------------------------------------===//
// VAX
//===----------------------------------------------------------------------===//

TEST(SimVaxTest, Movc3ForwardAndResults) {
  Memory M;
  storeBytes(M, 10, "vax11");
  SimResult R = runVax({"movl r0, 5", "movl r1, 10", "movl r3, 40",
                        "movc3 r0, r1, r3"},
                       M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(loadBytes(R.Mem, 40, 5), "vax11");
  EXPECT_EQ(R.reg("r0"), 0);
  EXPECT_EQ(R.reg("r1"), 15);
  EXPECT_EQ(R.reg("r3"), 45);
}

TEST(SimVaxTest, Movc3OverlapSafety) {
  Memory M;
  storeBytes(M, 10, "abc");
  // dst = 12 overlaps the source tail; the naive forward copy would
  // produce "aba" at 12 (§4.3's example).
  SimResult R = runVax({"movc3 3, 10, 12"}, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(loadBytes(R.Mem, 12, 3), "abc");
}

TEST(SimVaxTest, LoccFoundAndNotFound) {
  Memory M;
  storeBytes(M, 10, "hello");
  SimResult Found = runVax({"locc 108, 5, 10"}, M); // 'l'
  ASSERT_TRUE(Found.Ok) << Found.Error;
  EXPECT_EQ(Found.reg("r0"), 3);  // bytes remaining including 'l'
  EXPECT_EQ(Found.reg("r1"), 12); // address of the located byte

  SimResult Absent = runVax({"locc 122, 5, 10"}, M); // 'z'
  ASSERT_TRUE(Absent.Ok);
  EXPECT_EQ(Absent.reg("r0"), 0);
  EXPECT_EQ(Absent.reg("r1"), 15);
}

TEST(SimVaxTest, Cmpc3EqualAndUnequal) {
  Memory M;
  storeBytes(M, 10, "same");
  storeBytes(M, 30, "same");
  storeBytes(M, 50, "sane");
  SimResult Eq = runVax({"cmpc3 4, 10, 30"}, M);
  ASSERT_TRUE(Eq.Ok);
  EXPECT_EQ(Eq.reg("r0"), 0);
  SimResult Ne = runVax({"cmpc3 4, 10, 50"}, M);
  ASSERT_TRUE(Ne.Ok);
  EXPECT_EQ(Ne.reg("r0"), 2); // mismatch at 'm'/'n', two bytes remain
}

TEST(SimVaxTest, Movc5FillsTail) {
  Memory M;
  storeBytes(M, 10, "xy");
  SimResult R = runVax({"movc5 2, 10, 46, 5, 40"}, M); // fill '.'
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(loadBytes(R.Mem, 40, 5), "xy...");
  EXPECT_EQ(R.reg("r0"), 0);
}

TEST(SimVaxTest, BranchesAndByteOps) {
  Memory M;
  M[20] = 9;
  SimResult R = runVax({"movl r1, 20", "ldb r5, (r1)", "cmpl r5, 9",
                        "beql hit", "movl r6, 0", "brb done", "hit:",
                        "movl r6, 1", "done:", "stb r6, (r1)"},
                       M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.reg("r6"), 1);
  EXPECT_EQ(R.Mem.get(20), 1);
}

TEST(SimVaxTest, JumpWithoutLabelIsUnknownInstruction) {
  SimResult R = runVax({"movl r1, 1", "brb"});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "unknown instruction 'brb' in 'brb'");
  EXPECT_EQ(R.Instructions, 2u);
  R = runVax({"tstl r1", "beql"});
  EXPECT_EQ(R.Error, "unknown instruction 'beql' in 'beql'");
}

//===----------------------------------------------------------------------===//
// 370
//===----------------------------------------------------------------------===//

TEST(Sim370Test, MvcMovesLengthPlusOne) {
  Memory M;
  storeBytes(M, 100, "abcdef");
  SimResult R = run370({"la r1, 200", "la r2, 100", "mvc (r1), (r2), 3"}, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  // Length field 3 moves FOUR bytes — the §4.2 quirk.
  EXPECT_EQ(loadBytes(R.Mem, 200, 6), std::string("abcd\0\0", 6));
}

TEST(Sim370Test, MvcRejectsWideLengthField) {
  SimResult R = run370({"la r1, 0", "la r2, 10", "mvc (r1), (r2), 300"});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("8 bits"), std::string::npos);
}

TEST(Sim370Test, ArithmeticAndBranches) {
  SimResult R = run370({"la r1, 10", "ahi r1, -3", "chi r1, 7", "je ok",
                        "la r2, 0", "j done", "ok:", "la r2, 1", "done:"});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.reg("r1"), 7);
  EXPECT_EQ(R.reg("r2"), 1);
}

TEST(Sim370Test, JumpWithoutLabelIsUnknownInstruction) {
  SimResult R = run370({"la r1, 1", "j"});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "unknown instruction 'j' in 'j'");
  EXPECT_EQ(R.Instructions, 2u);
  R = run370({"chi r1, 0", "je"});
  EXPECT_EQ(R.Error, "unknown instruction 'je' in 'je'");
}

TEST(Sim370Test, TwentyFourBitAddresses) {
  SimResult R = run370({"la r1, 16777216"}); // 2^24 wraps to 0
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.reg("r1"), 0);
}

TEST(Sim370Test, ByteLoadStoreLoop) {
  Memory M;
  storeBytes(M, 10, "abc");
  SimResult R = run370({
      "la r1, 10", "la r2, 30", "la r3, 3",
      "top:", "chi r3, 0", "je done", "ahi r3, -1",
      "ldb r6, (r1)", "ahi r1, 1", "stb r6, (r2)", "ahi r2, 1", "j top",
      "done:",
  }, M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(loadBytes(R.Mem, 30, 3), "abc");
}

//===----------------------------------------------------------------------===//
// Frozen traffic: every mnemonic of the three simulators, the exotic
// instructions in both directions and with both outcomes, and the
// failures. Each run pins its status, error text, dispatches, micro-ops,
// a digest of the held bytes and every register (SimTraffic.h), so a
// faster simulator or memory must still mean the same thing. Recorded
// over the std::map memory the paged image replaced; registry_test pins
// compiled programs the same way.
//===----------------------------------------------------------------------===//

Memory lettersAt(std::initializer_list<std::pair<uint64_t, const char *>> At) {
  Memory M;
  for (const auto &[Base, Text] : At)
    storeBytes(M, Base, Text);
  return M;
}

std::vector<std::pair<std::string, std::string>> trafficRuns() {
  std::vector<std::pair<std::string, std::string>> Out;
  auto Add = [&](const std::string &Name, const SimResult &R) {
    Out.emplace_back(Name, traffic(R));
  };
  const Memory Text = lettersAt({{10, "abcdefghij"}, {30, "abcdefgxij"}});

  // 8086: the register/immediate/memory forms, every jump, and the
  // string instructions alone and repeated, in both directions.
  Add("8086 asm arithmetic",
      run8086({"mov ax, 5", "mov bx, ax", "add bx, 300", "sub bx, 2",
               "mov si, 10", "mov al, [si]", "add al, [si]", "mov di, 60",
               "mov [di], al", "mov [di], 7", "inc di", "mov [di], bx",
               "cmp bx, 303", "jl bad", "jg bad", "jle le", "jmp bad",
               "le:", "cmp bx, 304", "jge bad", "cmp ax, 5", "jnz bad",
               "jz tail", "bad:", "mov dx, 99", "tail:", "dec ax",
               "mov cl, 300", "mov sym, -70000", "sub sym, 1"},
              Text, {{"bp", 70000}}));
  for (const char *Dir : {"cld", "std"}) {
    std::string D = Dir, Up = D == "cld" ? "up" : "down";
    std::string Si = D == "cld" ? "10" : "19", Di = D == "cld" ? "30" : "39",
                Far = D == "cld" ? "50" : "59";
    Add("8086 asm single string ops " + Up,
        run8086({D, "mov si, " + Si, "mov di, " + Di, "lodsb", "scasb",
                 "movsb", "cmpsb", "stosb"},
                Text));
    Add("8086 asm rep movsb " + Up,
        run8086({D, "mov si, " + Si, "mov di, " + Far, "mov cx, 10",
                 "rep movsb"},
                Text));
    Add("8086 asm rep stosb " + Up,
        run8086({D, "mov di, " + Di, "mov al, 42", "mov cx, 6", "rep stosb"},
                Text));
    Add("8086 asm repe cmpsb " + Up,
        run8086({D, "mov si, " + Si, "mov di, " + Di, "mov cx, 10",
                 "repe cmpsb", "jz same", "mov dx, 1", "same:"},
                Text));
    Add("8086 asm repne scasb hit " + Up,
        run8086({D, "mov di, " + Di, "mov al, 103", "mov cx, 10",
                 "repne scasb"},
                Text));
    Add("8086 asm repne scasb miss " + Up,
        run8086({D, "mov di, " + Di, "mov al, 122", "mov cx, 10",
                 "repne scasb"},
                Text));
  }
  Add("8086 asm repe cmpsb equal",
      run8086({"mov si, 10", "mov di, 30", "mov cx, 3", "repe cmpsb"}, Text));
  Add("8086 asm rep with cx zero",
      run8086({"mov cx, 0", "rep movsb", "rep lodsb", "rep scasb",
               "repe cmpsb", "repne stosb"},
              Text));
  Add("8086 asm rep lodsb", run8086({"mov cx, 2", "rep lodsb"}, Text));
  Add("8086 asm rep of a non-string instruction",
      run8086({"mov cx, 2", "rep inc"}, Text));
  Add("8086 asm rep of a non-string instruction with cx zero",
      run8086({"mov cx, 0", "rep inc"}, Text));
  Add("8086 asm inc of memory", run8086({"mov di, 10", "inc [di]"}, Text));
  Add("8086 asm literal-looking destination",
      run8086({"mov 5, 3", "add 5, 2", "mov ax, 5"}, Text));
  Add("8086 asm wrong operand count", run8086({"mov ax, 1", "mov ax"}, Text));
  Add("8086 asm duplicate label", run8086({"x:", "mov ax, 1", "x:"}, Text));
  Add("8086 asm unknown instruction",
      run8086({"mov ax, 1", "frobnicate ax, 1"}, Text));
  Add("8086 asm unknown label on a taken branch",
      run8086({"mov ax, 1", "cmp ax, 2", "jz nowhere", "jnz nowhere"}, Text));
  Add("8086 asm step limit",
      run8086({"mov cx, 0", "top:", "inc cx", "jmp top"}, Text, {}, 500));

  // VAX: the register forms and branches, then each string instruction.
  Add("vax asm arithmetic and branches",
      runVax({"movl r1, 10", "movl r2, 3", "top:", "ldb r5, (r1)",
              "addl r5, 1", "stb r5, (r1)", "incl r1", "decl r2", "tstl r2",
              "bneq top", "subl r1, 2", "cmpl r1, 11", "beql eq",
              "brb bad", "eq:", "cmpl 4, r2", "beql bad", "jmp done",
              "bad:", "movl r9, 1", "done:"},
             Text));
  Add("vax asm initial symbols",
      runVax({"addl r7, 1", "movl r8, sym"}, Text,
             {{"unused", 5}, {"r7", 3}, {"sym", -9}}));
  Add("vax asm movc3 disjoint", runVax({"movc3 10, 10, 60"}, Text));
  Add("vax asm movc3 overlap upward", runVax({"movc3 10, 10, 14"}, Text));
  Add("vax asm movc3 overlap downward", runVax({"movc3 10, 10, 6"}, Text));
  Add("vax asm movc3 from registers",
      runVax({"movl r6, 4", "movl r7, 30", "movl r8, 70", "movc3 r6, r7, r8"},
             Text));
  Add("vax asm movc5 fill", runVax({"movc5 3, 10, 46, 8, 70"}, Text));
  Add("vax asm movc5 truncate", runVax({"movc5 9, 10, 46, 4, 70"}, Text));
  Add("vax asm locc hit", runVax({"locc 103, 10, 30"}, Text));
  Add("vax asm locc miss", runVax({"locc 122, 10, 30"}, Text));
  Add("vax asm cmpc3 hit", runVax({"cmpc3 10, 10, 30"}, Text));
  Add("vax asm cmpc3 miss", runVax({"cmpc3 6, 10, 30"}, Text));
  Add("vax asm unknown instruction",
      runVax({"movl r1, 1", "movl r1"}, Text));
  Add("vax asm unknown label on a taken branch",
      runVax({"tstl r1", "bneq nowhere", "beql nowhere"}, Text));
  Add("vax asm step limit",
      runVax({"top:", "incl r1", "brb top"}, Text, {}, 300));

  // 370: the register forms and branches, mvc chunks, and the 8-bit
  // length field.
  Add("370 asm arithmetic and branches",
      run370({"la r1, 10", "la r2, 3", "lr r3, r1", "top:", "ldb r6, (r1)",
              "ahi r6, 1", "stb r6, (r1)", "ahi r1, 1", "ahi r2, -1",
              "chi r2, 0", "jne top", "ar r3, r1", "sr r3, r2", "cr r3, r1",
              "jl bad", "jg ok", "j bad", "ok:", "chi r3, 33", "je done",
              "bad:", "la r9, 1", "done:", "la r4, -1"},
             Text));
  Add("370 asm cr of literal-looking registers",
      run370({"la 7, 4", "la r1, 9", "cr r1, 7", "jg gt", "la r2, 0", "gt:"},
             Text));
  Add("370 asm mvc chunks",
      run370({"la r1, 300", "la r2, 10", "mvc (r1), (r2), 255", "ahi r1, 256",
              "ahi r2, 256", "mvc (r1), (r2), 255", "ahi r1, 256",
              "ahi r2, 256", "mvc (r1), (r2), 87"},
             Text));
  Add("370 asm mvc wide length",
      run370({"la r1, 300", "la r2, 10", "la r3, 256", "mvc (r1), (r2), r3"},
             Text));
  Add("370 asm unknown instruction",
      run370({"la r1, 2", "mvc r1, r2, 3"}, Text));
  Add("370 asm unknown label on a taken branch",
      run370({"la r1, 1", "chi r1, 1", "jne nowhere", "je nowhere"}, Text));
  Add("370 asm step limit",
      run370({"top:", "ahi r1, 1", "j top"}, Text, {}, 300));
  return Out;
}

TEST(SimTrafficTest, FrozenTable) {
  static const std::vector<std::pair<std::string, std::string>> Frozen = {
      {"8086 asm arithmetic",
       "ok n=25 uops=19 mem=22:7c45760c2680adcc regs=al=194 ax=4 bp=70000 "
       "bx=303 cl=44 di=61 si=10 sym=-70001 "},
      {"8086 asm single string ops up",
       "ok n=8 uops=8 mem=20:b2c2d0b65f5fb672 regs=al=97 di=34 si=13 "},
      {"8086 asm rep movsb up",
       "ok n=5 uops=14 mem=30:bfb93abaf36b1565 regs=cx=0 di=60 si=20 "},
      {"8086 asm rep stosb up",
       "ok n=5 uops=10 mem=20:986e02e8cad54c14 regs=al=42 cx=0 di=36 "},
      {"8086 asm repe cmpsb up",
       "ok n=7 uops=13 mem=20:a603d180822486c5 regs=cx=2 di=38 dx=1 si=18 "},
      {"8086 asm repne scasb hit up",
       "ok n=5 uops=11 mem=20:a603d180822486c5 regs=al=103 cx=3 di=37 "},
      {"8086 asm repne scasb miss up",
       "ok n=5 uops=14 mem=20:a603d180822486c5 regs=al=122 cx=0 di=40 "},
      {"8086 asm single string ops down",
       "ok n=8 uops=8 mem=20:24b3ace0aaca1b76 regs=al=106 di=35 si=16 "},
      {"8086 asm rep movsb down",
       "ok n=5 uops=14 mem=30:bfb93abaf36b1565 regs=cx=0 di=49 si=9 "},
      {"8086 asm rep stosb down",
       "ok n=5 uops=10 mem=20:e80f3ca376b8986c regs=al=42 cx=0 di=33 "},
      {"8086 asm repe cmpsb down",
       "ok n=7 uops=8 mem=20:a603d180822486c5 regs=cx=7 di=36 dx=1 si=16 "},
      {"8086 asm repne scasb hit down",
       "ok n=5 uops=8 mem=20:a603d180822486c5 regs=al=103 cx=6 di=35 "},
      {"8086 asm repne scasb miss down",
       "ok n=5 uops=14 mem=20:a603d180822486c5 regs=al=122 cx=0 di=29 "},
      {"8086 asm repe cmpsb equal",
       "ok n=4 uops=6 mem=20:a603d180822486c5 regs=cx=0 di=33 si=13 "},
      {"8086 asm rep with cx zero",
       "ok n=6 uops=1 mem=20:a603d180822486c5 regs=cx=0 "},
      {"8086 asm rep lodsb",
       "ok n=2 uops=3 mem=20:a603d180822486c5 regs=al=0 cx=0 si=2 "},
      {"8086 asm rep of a non-string instruction",
       "fail 'unknown string instruction in 'rep inc'' n=2 uops=1 "
       "mem=20:a603d180822486c5 regs=cx=2 "},
      {"8086 asm rep of a non-string instruction with cx zero",
       "fail 'unknown string instruction in 'rep inc'' n=2 uops=1 "
       "mem=20:a603d180822486c5 regs=cx=0 "},
      {"8086 asm inc of memory",
       "fail 'inc/dec needs one register in 'inc [di]'' n=2 uops=1 "
       "mem=20:a603d180822486c5 regs=di=10 "},
      {"8086 asm literal-looking destination",
       "ok n=3 uops=3 mem=20:a603d180822486c5 regs=5=7 ax=5 "},
      {"8086 asm wrong operand count",
       "fail 'unknown instruction in 'mov ax'' n=2 uops=1 "
       "mem=20:a603d180822486c5 regs=ax=1 "},
      {"8086 asm duplicate label",
       "fail 'duplicate label 'x'' n=0 uops=0 mem=0:cbf29ce484222325 regs="},
      {"8086 asm unknown instruction",
       "fail 'unknown instruction 'frobnicate' in 'frobnicate ax, 1'' n=2 "
       "uops=2 mem=20:a603d180822486c5 regs=ax=1 "},
      {"8086 asm unknown label on a taken branch",
       "fail 'unknown label 'nowhere' in 'jnz nowhere'' n=4 uops=2 "
       "mem=20:a603d180822486c5 regs=ax=1 "},
      {"8086 asm step limit",
       "fail 'step limit exceeded' n=501 uops=251 mem=20:a603d180822486c5 "
       "regs=cx=250 "},
      {"vax asm arithmetic and branches",
       "ok n=29 uops=23 mem=20:4573d10ad5cc1436 regs=r1=11 r2=0 r5=100 "},
      {"vax asm initial symbols",
       "ok n=2 uops=2 mem=20:a603d180822486c5 regs=r7=4 r8=-9 sym=-9 "
       "unused=5 "},
      {"vax asm movc3 disjoint",
       "ok n=1 uops=11 mem=30:e7e52f01d297c489 regs=r0=0 r1=20 r2=0 r3=70 "
       "r4=0 r5=0 "},
      {"vax asm movc3 overlap upward",
       "ok n=1 uops=11 mem=24:403d14268656159 regs=r0=0 r1=20 r2=0 r3=24 "
       "r4=0 r5=0 "},
      {"vax asm movc3 overlap downward",
       "ok n=1 uops=11 mem=24:61f9e78cbbf86ce1 regs=r0=0 r1=20 r2=0 r3=16 "
       "r4=0 r5=0 "},
      {"vax asm movc3 from registers",
       "ok n=4 uops=8 mem=24:63d110fb24c5e7f9 regs=r0=0 r1=34 r2=0 r3=74 "
       "r4=0 r5=0 r6=4 r7=30 r8=70 "},
      {"vax asm movc5 fill",
       "ok n=1 uops=9 mem=28:89b800cfef7ca3c3 regs=r0=0 r1=13 r2=0 r3=78 "
       "r4=0 r5=0 "},
      {"vax asm movc5 truncate",
       "ok n=1 uops=5 mem=24:63d110fb24c5e7f9 regs=r0=5 r1=14 r2=0 r3=74 "
       "r4=0 r5=0 "},
      {"vax asm locc hit",
       "ok n=1 uops=8 mem=20:a603d180822486c5 regs=r0=4 r1=36 "},
      {"vax asm locc miss",
       "ok n=1 uops=11 mem=20:a603d180822486c5 regs=r0=0 r1=40 "},
      {"vax asm cmpc3 hit",
       "ok n=1 uops=9 mem=20:a603d180822486c5 regs=r0=3 r1=17 r3=37 "},
      {"vax asm cmpc3 miss",
       "ok n=1 uops=7 mem=20:a603d180822486c5 regs=r0=0 r1=16 r3=36 "},
      {"vax asm unknown instruction",
       "fail 'unknown instruction 'movl' in 'movl r1'' n=2 uops=2 "
       "mem=20:a603d180822486c5 regs=r1=1 "},
      {"vax asm unknown label on a taken branch",
       "fail 'unknown label 'nowhere' in 'beql nowhere'' n=3 uops=1 "
       "mem=20:a603d180822486c5 regs=r1=0 "},
      {"vax asm step limit",
       "fail 'step limit exceeded' n=301 uops=150 mem=20:a603d180822486c5 "
       "regs=r1=150 "},
      {"370 asm arithmetic and branches",
       "ok n=33 uops=27 mem=20:4573d10ad5cc1436 regs=r1=13 r2=0 r3=23 "
       "r4=16777215 r6=100 r9=1 "},
      {"370 asm cr of literal-looking registers",
       "ok n=4 uops=3 mem=20:a603d180822486c5 regs=7=4 r1=9 "},
      {"370 asm mvc chunks",
       "ok n=9 uops=609 mem=620:86c6fdd03ada5880 regs=r1=812 r2=522 "},
      {"370 asm mvc wide length",
       "fail 'mvc length field must fit in 8 bits in 'mvc (r1), (r2), r3'' "
       "n=4 uops=4 mem=20:a603d180822486c5 regs=r1=300 r2=10 r3=256 "},
      {"370 asm unknown instruction",
       "fail 'unknown instruction 'mvc' in 'mvc r1, r2, 3'' n=2 uops=2 "
       "mem=20:a603d180822486c5 regs=r1=2 "},
      {"370 asm unknown label on a taken branch",
       "fail 'unknown label 'nowhere' in 'je nowhere'' n=4 uops=2 "
       "mem=20:a603d180822486c5 regs=r1=1 "},
      {"370 asm step limit",
       "fail 'step limit exceeded' n=301 uops=150 mem=20:a603d180822486c5 "
       "regs=r1=150 "},
  };
  std::vector<std::pair<std::string, std::string>> Runs = trafficRuns();
  EXPECT_GE(Runs.size(), 30u);
  ASSERT_EQ(Runs.size(), Frozen.size());
  for (size_t I = 0; I < Runs.size(); ++I) {
    EXPECT_EQ(Runs[I].first, Frozen[I].first);
    EXPECT_EQ(Runs[I].second, Frozen[I].second)
        << "{\"" << Runs[I].first << "\",\n \"" << Runs[I].second << "\"},";
  }
}

} // namespace
