#include <gtest/gtest.h>

#include "frontends/systolic/systolic.h"
#include "helpers.h"
#include "passes/infer_latency.h"
#include "support/error.h"

namespace calyx {
namespace {

using MatrixU64 = std::vector<std::vector<uint64_t>>;

MatrixU64
matmul(const MatrixU64 &a, const MatrixU64 &b)
{
    size_t rows = a.size(), inner = b.size(), cols = b[0].size();
    MatrixU64 c(rows, std::vector<uint64_t>(cols, 0));
    for (size_t i = 0; i < rows; ++i)
        for (size_t j = 0; j < cols; ++j)
            for (size_t k = 0; k < inner; ++k)
                c[i][j] =
                    truncate(c[i][j] + a[i][k] * b[k][j], 32);
    return c;
}

MatrixU64
makeMatrix(size_t rows, size_t cols, uint64_t seed)
{
    MatrixU64 m(rows, std::vector<uint64_t>(cols));
    for (size_t i = 0; i < rows; ++i)
        for (size_t j = 0; j < cols; ++j)
            m[i][j] = (seed + 3 * i + 7 * j) % 23 + 1;
    return m;
}

uint64_t
runArray(int rows, int cols, int inner, bool sensitive,
         const MatrixU64 &a, const MatrixU64 &b, MatrixU64 *result)
{
    Context ctx;
    systolic::Config cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.inner = inner;
    systolic::generate(ctx, cfg);
    passes::runPipeline(ctx, sensitive
                                 ? "all,-resource-sharing,-register-sharing"
                                 : "default");

    sim::SimProgram sp(ctx, "main");
    for (int i = 0; i < rows; ++i) {
        auto *l = sp.findModel(systolic::leftMemName(i))->memory();
        for (int k = 0; k < inner; ++k)
            (*l)[k] = a[i][k];
    }
    for (int j = 0; j < cols; ++j) {
        auto *t = sp.findModel(systolic::topMemName(j))->memory();
        for (int k = 0; k < inner; ++k)
            (*t)[k] = b[k][j];
    }
    sim::CycleSim cs(sp);
    uint64_t cycles = cs.run();
    auto *out = sp.findModel(systolic::outMemName)->memory();
    result->assign(rows, std::vector<uint64_t>(cols));
    for (int i = 0; i < rows; ++i)
        for (int j = 0; j < cols; ++j)
            (*result)[i][j] = (*out)[i * cols + j];
    return cycles;
}

class SystolicSize : public ::testing::TestWithParam<int>
{};

TEST_P(SystolicSize, ComputesMatmulBothModes)
{
    int dim = GetParam();
    MatrixU64 a = makeMatrix(dim, dim, 5);
    MatrixU64 b = makeMatrix(dim, dim, 11);
    MatrixU64 expect = matmul(a, b);

    MatrixU64 got;
    uint64_t insensitive = runArray(dim, dim, dim, false, a, b, &got);
    EXPECT_EQ(got, expect) << "insensitive " << dim;

    MatrixU64 got2;
    uint64_t sensitive = runArray(dim, dim, dim, true, a, b, &got2);
    EXPECT_EQ(got2, expect) << "sensitive " << dim;

    // Latency-sensitive compilation must be faster (paper §7.1: 1.9x).
    EXPECT_LT(sensitive, insensitive);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SystolicSize,
                         ::testing::Values(1, 2, 3, 4));

TEST(Systolic, RectangularArray)
{
    MatrixU64 a = makeMatrix(2, 4, 3);
    MatrixU64 b = makeMatrix(4, 3, 9);
    MatrixU64 expect = matmul(a, b);
    MatrixU64 got;
    runArray(2, 3, 4, false, a, b, &got);
    EXPECT_EQ(got, expect);
}

TEST(Systolic, LatencyFullyInferred)
{
    // The generator emits no "static" attributes, yet after
    // InferLatency the whole design is static (paper §6.1).
    Context ctx;
    systolic::Config cfg;
    cfg.rows = cfg.cols = cfg.inner = 2;
    systolic::generate(ctx, cfg);

    for (const auto &g : ctx.component("main").groups())
        EXPECT_EQ(g->staticLatency(), std::nullopt) << g->name();

    passes::PassManager pm;
    pm.add<passes::InferLatency>();
    pm.run(ctx);
    EXPECT_NE(ctx.component("mac_pe").staticLatency(), std::nullopt);
    EXPECT_NE(ctx.component("main").staticLatency(), std::nullopt);
}

TEST(Systolic, DesignStatsMatchPaperScale)
{
    // Paper §7.4: the 8x8 array has 241 cells, 224 groups, and 1,744
    // control statements. Exact equality is not expected from an
    // independent reimplementation; same order of magnitude is.
    Context ctx;
    systolic::Config cfg;
    cfg.rows = cfg.cols = cfg.inner = 8;
    systolic::generate(ctx, cfg);
    auto stats = passes::gatherStats(ctx);
    EXPECT_GE(stats.cells, 150);
    EXPECT_LE(stats.cells, 400);
    EXPECT_GE(stats.groups, 150);
    EXPECT_LE(stats.groups, 400);
    EXPECT_GE(stats.controlStatements, 1000);
    EXPECT_LE(stats.controlStatements, 3000);
}

TEST(Systolic, RejectsBadConfig)
{
    Context ctx;
    systolic::Config cfg;
    cfg.rows = 0;
    EXPECT_THROW(systolic::generate(ctx, cfg), Error);
}

} // namespace
} // namespace calyx
