/**
 * @file
 * Systolic-array example (paper §6.1): generate a 4x4 matrix-multiply
 * systolic array, let the compiler infer all latencies from the PE
 * (§5.3), compile both latency-insensitively and -sensitively, and
 * check the product against a software matmul.
 */
#include <cstdint>
#include <iostream>
#include <vector>

#include "frontends/systolic/systolic.h"
#include "ir/printer.h"
#include "passes/pipeline_spec.h"
#include "sim/cycle_sim.h"

using namespace calyx;

namespace {

constexpr int DIM = 4;

void
fill(sim::SimProgram &sp, const std::vector<std::vector<uint64_t>> &a,
     const std::vector<std::vector<uint64_t>> &bt)
{
    for (int i = 0; i < DIM; ++i) {
        auto *l = sp.findModel(systolic::leftMemName(i))->memory();
        for (int k = 0; k < DIM; ++k)
            (*l)[k] = a[i][k];
    }
    for (int j = 0; j < DIM; ++j) {
        auto *t = sp.findModel(systolic::topMemName(j))->memory();
        for (int k = 0; k < DIM; ++k)
            (*t)[k] = bt[j][k]; // column j of B
    }
}

} // namespace

int
main()
{
    std::vector<std::vector<uint64_t>> a(DIM, std::vector<uint64_t>(DIM));
    std::vector<std::vector<uint64_t>> b(DIM, std::vector<uint64_t>(DIM));
    for (int i = 0; i < DIM; ++i) {
        for (int j = 0; j < DIM; ++j) {
            a[i][j] = i + 2 * j + 1;
            b[i][j] = 3 * i + j + 2;
        }
    }
    std::vector<std::vector<uint64_t>> bt(DIM, std::vector<uint64_t>(DIM));
    for (int i = 0; i < DIM; ++i)
        for (int j = 0; j < DIM; ++j)
            bt[j][i] = b[i][j];

    for (bool sensitive : {false, true}) {
        Context ctx;
        systolic::Config cfg;
        cfg.rows = cfg.cols = cfg.inner = DIM;
        systolic::generate(ctx, cfg);

        passes::DesignStats stats = passes::gatherStats(ctx);
        passes::runPipeline(ctx, sensitive
                                     ? "all,-resource-sharing,-register-sharing"
                                     : "default");

        sim::SimProgram sp(ctx, "main");
        fill(sp, a, bt);
        sim::CycleSim cs(sp);
        uint64_t cycles = cs.run();

        auto *out = sp.findModel(systolic::outMemName)->memory();
        bool ok = true;
        for (int i = 0; i < DIM; ++i) {
            for (int j = 0; j < DIM; ++j) {
                uint64_t expect = 0;
                for (int k = 0; k < DIM; ++k)
                    expect += a[i][k] * b[k][j];
                if ((*out)[i * DIM + j] != expect)
                    ok = false;
            }
        }
        std::cout << (sensitive ? "latency-sensitive  "
                                : "latency-insensitive")
                  << ": " << cycles << " cycles, "
                  << (ok ? "result correct" : "RESULT WRONG") << " ("
                  << stats.cells << " cells, " << stats.groups
                  << " groups, " << stats.controlStatements
                  << " control statements)\n";
        if (!ok)
            return 1;
    }
    return 0;
}
