#include <gtest/gtest.h>

#include "frontends/dahlia/codegen.h"
#include "frontends/dahlia/parser.h"
#include "workloads/harness.h"

namespace calyx {
namespace {

/**
 * Compile a Dahlia program in the given mode and require the hardware's
 * final memory state to equal the AST interpreter's.
 */
void
expectMatchesInterp(const std::string &src,
                    const std::string &spec = "default")
{
    dahlia::Program prog = dahlia::parse(src);
    workloads::MemState inputs = workloads::makeInputs("t", prog);
    workloads::MemState golden = workloads::runOnInterp(prog, inputs);
    workloads::MemState hw;
    workloads::runOnHardware(prog, spec, inputs, &hw);
    for (const auto &[name, data] : golden)
        EXPECT_EQ(hw.at(name), data) << "memory " << name;
}

TEST(DahliaCodegen, MemoryCopy)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[4];
decl b: ubit<32>[4];
for (let i: ubit<3> = 0..4) { b[i] := a[i]; }
)");
}

TEST(DahliaCodegen, ArithmeticChain)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[4];
decl out: ubit<32>[4];
for (let i: ubit<3> = 0..4) {
  out[i] := (a[i] + 3) * 2 - (a[i] >> 1);
}
)");
}

TEST(DahliaCodegen, SameMemoryReadAndWrite)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[4];
for (let i: ubit<3> = 0..4) { a[i] := a[i] + a[i]; }
)");
}

TEST(DahliaCodegen, IfElse)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[8];
decl out: ubit<32>[8];
for (let i: ubit<4> = 0..8) {
  if (a[i] > 6) { out[i] := 1; } else { out[i] := 0; }
}
)");
}

TEST(DahliaCodegen, WhileLoop)
{
    expectMatchesInterp(R"(
decl out: ubit<32>[1];
let x: ubit<32> = 1;
let n: ubit<32> = 0;
---
while (n < 10) {
  x := x + x;
  ---
  n := n + 1;
}
---
out[0] := x;
)");
}

TEST(DahliaCodegen, MultiplyDivideModulo)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[4];
decl b: ubit<32>[4];
decl out: ubit<32>[4];
for (let i: ubit<3> = 0..4) {
  out[i] := a[i] * b[i] + a[i] / b[i] + a[i] % b[i];
}
)");
}

TEST(DahliaCodegen, Sqrt)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[4];
decl out: ubit<32>[4];
for (let i: ubit<3> = 0..4) {
  out[i] := sqrt(a[i] * a[i] + 9);
}
)");
}

TEST(DahliaCodegen, UnorderedCompositionParallelizes)
{
    // Two independent statements: must compile to a par and still match.
    const char *src = R"(
decl a: ubit<32>[4];
decl b: ubit<32>[4];
for (let i: ubit<3> = 0..4) {
  a[i] := a[i] + 1; b[i] := b[i] + 2
}
)";
    dahlia::Program prog = dahlia::parse(src);
    Context ctx = dahlia::compileDahlia(prog);
    bool has_par = false;
    ctx.component("main").control().walk([&](const Control &c) {
        if (c.kind() == Control::Kind::Par)
            has_par = true;
    });
    EXPECT_TRUE(has_par);
    expectMatchesInterp(src);
}

TEST(DahliaCodegen, DependentUnorderedCompositionSerializes)
{
    const char *src = R"(
decl a: ubit<32>[4];
let x: ubit<32> = 0;
---
x := a[0] + 1; a[1] := x
)";
    dahlia::Program prog = dahlia::parse(src);
    Context ctx = dahlia::compileDahlia(prog);
    bool has_par = false;
    ctx.component("main").control().walk([&](const Control &c) {
        if (c.kind() == Control::Kind::Par)
            has_par = true;
    });
    EXPECT_FALSE(has_par);
    expectMatchesInterp(src);
}

TEST(DahliaCodegen, TwoDimensionalMemories)
{
    expectMatchesInterp(R"(
decl A: ubit<32>[4][4];
decl B: ubit<32>[4][4];
for (let i: ubit<3> = 0..4) {
  for (let j: ubit<3> = 0..4) {
    B[j][i] := A[i][j];
  }
}
)");
}

TEST(DahliaCodegen, UnrolledLoopWithBanking)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[8 bank 2];
decl b: ubit<32>[8 bank 2];
for (let i: ubit<4> = 0..8) unroll 2 {
  b[i] := a[i] * 3;
}
)");
}

TEST(DahliaCodegen, UnrolledReductionWithCombine)
{
    expectMatchesInterp(R"(
decl a: ubit<32>[8 bank 2];
decl out: ubit<32>[1];
let acc: ubit<32> = 0;
---
for (let i: ubit<4> = 0..8) unroll 2 {
  let v: ubit<32> = a[i] * a[i];
} combine {
  acc := acc + v;
}
---
out[0] := acc;
)");
}

TEST(DahliaCodegen, MultSequencesUnderSensitive)
{
    const std::string spec = "all,-resource-sharing,-register-sharing";
    expectMatchesInterp(R"(
decl a: ubit<32>[4];
decl out: ubit<32>[4];
for (let i: ubit<3> = 0..4) {
  out[i] := a[i] * a[i] * 2 + 7;
}
)",
                        spec);
}

TEST(DahliaCodegen, StaticGroupsAnnotated)
{
    dahlia::Program prog = dahlia::parse(R"(
decl a: ubit<32>[4];
let x: ubit<32> = 0;
---
x := a[0] * a[1];
)");
    Context ctx = dahlia::compileDahlia(prog);
    // The multiply group carries static = multLatency + 1 (§6.2).
    bool found = false;
    for (const auto &g : ctx.component("main").groups()) {
        if (g->name().str().rfind("do_mul", 0) == 0) {
            found = true;
            EXPECT_EQ(g->staticLatency(), multLatency + 1);
        }
    }
    EXPECT_TRUE(found);
}

TEST(DahliaCodegen, SqrtGroupHasNoStaticAttribute)
{
    dahlia::Program prog = dahlia::parse(R"(
decl a: ubit<32>[4];
a[0] := sqrt(a[1]);
)");
    Context ctx = dahlia::compileDahlia(prog);
    bool found = false;
    for (const auto &g : ctx.component("main").groups()) {
        if (g->name().str().rfind("do_sqrt", 0) == 0) {
            found = true;
            EXPECT_EQ(g->staticLatency(), std::nullopt);
        }
    }
    EXPECT_TRUE(found);
}

TEST(DahliaCodegen, AllOptimizationConfigs)
{
    const char *src = R"(
decl a: ubit<32>[8];
decl out: ubit<32>[8];
for (let i: ubit<4> = 0..8) {
  let t: ubit<32> = a[i] * 2;
  ---
  let u: ubit<32> = t + 5;
  ---
  out[i] := u - 1;
}
)";
    for (bool rs : {false, true}) {
        for (bool gs : {false, true}) {
            for (bool st : {false, true}) {
                std::string spec = "all";
                if (!rs)
                    spec += ",-resource-sharing";
                if (!gs)
                    spec += ",-register-sharing";
                if (!st)
                    spec += ",-static";
                expectMatchesInterp(src, spec);
            }
        }
    }
}

} // namespace
} // namespace calyx
