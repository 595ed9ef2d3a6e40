/**
 * Batched lane-parallel simulation (ISSUE 8): a batch of N stimuli run
 * through sim::BatchRunner must be bit-identical — cycle counts,
 * register state, memory images, per lane — to N scalar CycleSim runs,
 * on both the levelized and compiled engines, including batches whose
 * lanes take divergent control paths (a while loop bounded by a value
 * loaded from memory) and batches cut into tiles whose tail runs
 * either padded or (compiled engine, short tails) on the scalar module.
 * Also covers the work-stealing pool the tiles are spread over, and
 * the construction-time rejections (groups, the Jacobi oracle).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "frontends/dahlia/codegen.h"
#include "frontends/dahlia/parser.h"
#include "helpers.h"
#include "ir/parser.h"
#include "sim/batch.h"
#include "sim/compiled.h"
#include "sim/cycle_sim.h"
#include "support/pool.h"
#include "support/error.h"
#include "workloads/harness.h"
#include "workloads/polybench.h"

namespace calyx {
namespace {

/** Engines batching supports in this environment. */
std::vector<sim::Engine>
batchEngines()
{
    std::vector<sim::Engine> out{sim::Engine::Levelized};
    if (sim::compiledEngineUnavailableReason().empty())
        out.push_back(sim::Engine::Compiled);
    return out;
}

/** One scalar run's observable outcome, in BatchRunner slot order. */
struct ScalarRef
{
    uint64_t cycles = 0;
    std::vector<uint64_t> regs;
    std::vector<std::vector<uint64_t>> mems;
};

ScalarRef
runScalar(const Context &ctx, const sim::Stimulus &stim, sim::Engine engine)
{
    sim::SimProgram sp(ctx, ctx.entrypoint());
    for (const auto &[path, data] : stim.mems) {
        std::vector<uint64_t> *mem = sp.findModel(path)->memory();
        EXPECT_NE(mem, nullptr) << path;
        std::copy(data.begin(), data.end(), mem->begin());
    }
    sim::CycleSim cs(sp, engine);
    ScalarRef r;
    r.cycles = cs.run();
    for (const auto &m : sp.models()) {
        if (auto rv = m->registerValue())
            r.regs.push_back(*rv);
        else if (const std::vector<uint64_t> *mm = m->memory())
            r.mems.push_back(*mm);
    }
    return r;
}

/** `counts`, when given, receives the tile shapes the batch ran as. */
void
expectBatchMatchesScalar(const Context &ctx,
                         const std::vector<sim::Stimulus> &batch,
                         const sim::BatchOptions &opts,
                         const std::string &label,
                         sim::BatchRunner::TileCounts *counts = nullptr)
{
    sim::SimProgram sp(ctx, ctx.entrypoint());
    sim::BatchRunner runner(sp, opts);
    auto results = runner.run(batch);
    if (counts)
        *counts = runner.tileCounts();
    ASSERT_EQ(results.size(), batch.size()) << label;
    for (size_t l = 0; l < batch.size(); ++l) {
        ScalarRef ref = runScalar(ctx, batch[l], opts.engine);
        EXPECT_EQ(ref.cycles, results[l].cycles)
            << label << ": cycle count diverges in lane " << l << " ("
            << sim::engineName(opts.engine) << ")";
        EXPECT_EQ(ref.regs, results[l].regs)
            << label << ": register state diverges in lane " << l << " ("
            << sim::engineName(opts.engine) << ")";
        EXPECT_EQ(ref.mems, results[l].mems)
            << label << ": memory state diverges in lane " << l << " ("
            << sim::engineName(opts.engine) << ")";
    }
}

/**
 * While loop whose trip count is loaded combinationally from a 1-entry
 * memory in the condition group: per-lane stimuli drive genuinely
 * divergent control — different iteration counts, cycle counts, and
 * final state per lane.
 */
const char *kDataBoundedLoop = R"(
component main() -> () {
  cells {
    bound = std_mem_d1(8, 1, 1);
    out = std_mem_d1(32, 1, 1);
    x = std_reg(32);
    i = std_reg(8);
    lt = std_lt(8);
    addx = std_add(32);
    addi = std_add(8);
  }
  wires {
    group cond {
      bound.addr0 = 1'd0;
      lt.left = i.out;
      lt.right = bound.read_data;
      cond[done] = 1'd1;
    }
    group bump_x {
      addx.left = x.out; addx.right = 32'd3;
      x.in = addx.out; x.write_en = 1'd1;
      bump_x[done] = x.done;
    }
    group bump_i {
      addi.left = i.out; addi.right = 8'd1;
      i.in = addi.out; i.write_en = 1'd1;
      bump_i[done] = i.done;
    }
    group store {
      out.addr0 = 1'd0;
      out.write_data = x.out; out.write_en = 1'd1;
      store[done] = out.done;
    }
  }
  control {
    seq {
      while lt.out with cond { seq { bump_x; bump_i; } }
      store;
    }
  }
}
)";

TEST(BatchSim, Batch64MatchesScalarOnExamples)
{
    namespace fs = std::filesystem;
    int found = 0;
    for (const auto &entry : fs::directory_iterator(CALYX_EXAMPLES_DIR)) {
        if (entry.path().extension() != ".futil")
            continue;
        ++found;
        std::ifstream in(entry.path());
        ASSERT_TRUE(in) << entry.path();
        std::stringstream buffer;
        buffer << in.rdbuf();
        Context ctx = Parser::parseProgram(buffer.str());
        passes::runPipeline(ctx, "all");
        // 64 lanes (four default-width tiles) with default-zero
        // stimuli: every lane must retire exactly like one scalar run.
        std::vector<sim::Stimulus> batch(64);
        for (sim::Engine engine : batchEngines()) {
            sim::BatchOptions opts;
            opts.engine = engine;
            expectBatchMatchesScalar(
                ctx, batch, opts, entry.path().filename().string());
        }
    }
    EXPECT_GE(found, 2) << "expected at least two examples/*.futil";
}

TEST(BatchSim, DivergentControlPathsPerLane)
{
    Context ctx = Parser::parseProgram(kDataBoundedLoop);
    passes::runPipeline(ctx, "all");
    // Divergent trip counts, deliberately out of order, including the
    // zero-trip edge and lanes that straddle tile boundaries.
    std::vector<uint64_t> bounds = {5, 0, 13, 1, 7, 2, 9, 0, 4, 11};
    std::vector<sim::Stimulus> batch;
    for (uint64_t b : bounds) {
        sim::Stimulus s;
        s.mems.emplace_back("bound", std::vector<uint64_t>{b});
        batch.push_back(std::move(s));
    }
    for (sim::Engine engine : batchEngines()) {
        sim::BatchOptions opts;
        opts.engine = engine;
        // 10 lanes -> tiles of 4, 4, and a 2-stimulus tail (two
        // scalar tiles on the compiled engine, one narrowed levelized
        // tile).
        opts.laneTile = 4;
        opts.threads = 3;
        expectBatchMatchesScalar(ctx, batch, opts, "data-bounded loop");
    }

    // Sanity: the lanes really did diverge (distinct cycle counts).
    sim::SimProgram sp(ctx, ctx.entrypoint());
    sim::BatchOptions opts;
    opts.engine = sim::Engine::Levelized;
    auto results = sim::runBatch(sp, batch, opts);
    EXPECT_NE(results[0].cycles, results[1].cycles);
    EXPECT_NE(results[0].cycles, results[2].cycles);
    EXPECT_EQ(results[1].cycles, results[7].cycles); // Both zero-trip.
}

TEST(BatchSim, PolybenchDivergentDataPerLane)
{
    const workloads::Kernel &k = workloads::kernel("gemm");
    dahlia::Program prog = dahlia::parse(k.source);
    Context ctx = dahlia::compileDahlia(prog);
    passes::runPipeline(ctx, "all");

    workloads::MemState base = workloads::makeInputs("gemm", prog);
    std::vector<sim::Stimulus> batch;
    for (uint64_t lane = 0; lane < 6; ++lane) {
        workloads::MemState inputs = base;
        for (auto &[name, data] : inputs)
            for (size_t i = 0; i < data.size(); ++i)
                data[i] += lane * (i % 7);
        batch.push_back(workloads::makeStimulus(prog, inputs));
    }
    for (sim::Engine engine : batchEngines()) {
        sim::BatchOptions opts;
        opts.engine = engine;
        opts.laneTile = 4; // 2-stimulus tail: scalar tiles (compiled).
        opts.threads = 2;
        expectBatchMatchesScalar(ctx, batch, opts, "gemm");
    }
}

/** `n` stimuli with divergent trip counts for kDataBoundedLoop. */
std::vector<sim::Stimulus>
boundedLoopBatch(size_t n)
{
    std::vector<sim::Stimulus> batch(n);
    for (size_t b = 0; b < n; ++b) {
        batch[b].mems.emplace_back("bound",
                                   std::vector<uint64_t>{(b * 5) % 13});
    }
    return batch;
}

TEST(BatchSim, CompiledTailShapesMatchScalar)
{
    if (!sim::compiledEngineUnavailableReason().empty())
        GTEST_SKIP() << sim::compiledEngineUnavailableReason();
    Context ctx = Parser::parseProgram(kDataBoundedLoop);
    passes::runPipeline(ctx, "all");
    // laneTile 8: a batch of 11 is one full tile plus a 3-stimulus
    // tail (<= 4) on three scalar tiles; a batch of 14 has a 6-stimulus
    // tail (> 4), which runs as one padded 8-lane tile.
    struct Shape
    {
        size_t batch;
        uint64_t scalarTiles, laneTiles, paddedLanes;
    };
    for (Shape shape : {Shape{11, 3, 1, 0}, Shape{14, 0, 2, 2}}) {
        for (unsigned threads : {1u, 3u}) {
            sim::BatchOptions opts;
            opts.engine = sim::Engine::Compiled;
            opts.laneTile = 8;
            opts.threads = threads;
            std::string label = "batch " + std::to_string(shape.batch) +
                                ", " + std::to_string(threads) + " threads";
            sim::BatchRunner::TileCounts tc;
            expectBatchMatchesScalar(ctx, boundedLoopBatch(shape.batch),
                                     opts, label, &tc);
            EXPECT_EQ(tc.scalarTiles, shape.scalarTiles) << label;
            EXPECT_EQ(tc.laneTiles, shape.laneTiles) << label;
            EXPECT_EQ(tc.paddedLanes, shape.paddedLanes) << label;
        }
    }
}

TEST(BatchSim, ResidentRunnerReusesOneModule)
{
    if (!sim::compiledEngineUnavailableReason().empty())
        GTEST_SKIP() << sim::compiledEngineUnavailableReason();
    Context ctx = Parser::parseProgram(kDataBoundedLoop);
    passes::runPipeline(ctx, "all");
    sim::SimProgram sp(ctx, ctx.entrypoint());
    sim::BatchOptions opts;
    opts.engine = sim::Engine::Compiled;
    opts.laneTile = 8;
    sim::BatchRunner runner(sp, opts);
    std::vector<sim::Stimulus> batch(8);
    for (uint64_t b = 0; b < 8; ++b)
        batch[b].mems.emplace_back("bound", std::vector<uint64_t>{b});
    for (int round = 0; round < 5; ++round) {
        auto results = runner.run(batch);
        for (uint64_t b = 1; b < 8; ++b)
            EXPECT_EQ(results[b].regs[0], 3 * b)
                << "round " << round << " lane " << b;
    }
    // The JIT module is resident: one load serves every full batch.
    EXPECT_EQ(runner.moduleLoads(), 1u);

    // Batches of every shape add at most the scalar module.
    for (size_t n : {1, 3, 8, 11}) {
        auto shaped = boundedLoopBatch(n);
        auto results = runner.run(shaped);
        for (size_t b = 0; b < n; ++b)
            EXPECT_EQ(results[b].regs[0], 3 * ((b * 5) % 13))
                << "batch " << n << " lane " << b;
    }
    EXPECT_LE(runner.moduleLoads(), 2u);
}

TEST(BatchSim, RejectsJacobiAndGroups)
{
    Context lowered = Parser::parseProgram(kDataBoundedLoop);
    passes::runPipeline(lowered, "all");
    sim::SimProgram sp(lowered, lowered.entrypoint());
    sim::BatchOptions opts;
    opts.engine = sim::Engine::Jacobi;
    try {
        sim::BatchRunner runner(sp, opts);
        FAIL() << "batched runner accepted the jacobi oracle";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("jacobi"), std::string::npos)
            << e.what();
    }

    Context grouped = Parser::parseProgram(kDataBoundedLoop);
    sim::SimProgram spg(grouped, grouped.entrypoint());
    sim::BatchOptions lopts;
    lopts.engine = sim::Engine::Levelized;
    try {
        sim::BatchRunner runner(spg, lopts);
        FAIL() << "batched runner accepted a program with groups";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("lowered"), std::string::npos)
            << e.what();
    }
}

TEST(BatchSim, RejectsUnknownStimulusMemory)
{
    Context ctx = Parser::parseProgram(kDataBoundedLoop);
    passes::runPipeline(ctx, "all");
    sim::SimProgram sp(ctx, ctx.entrypoint());
    sim::BatchOptions opts;
    opts.engine = sim::Engine::Levelized;
    std::vector<sim::Stimulus> batch(1);
    batch[0].mems.emplace_back("no_such_mem", std::vector<uint64_t>{1});
    try {
        sim::runBatch(sp, batch, opts);
        FAIL() << "unknown stimulus memory was not rejected";
    } catch (const Error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("no_such_mem"), std::string::npos) << msg;
        EXPECT_NE(msg.find("bound"), std::string::npos)
            << "diagnostic should list the known memories: " << msg;
    }
}

TEST(WorkPool, ParallelForCoversEveryIndexOnce)
{
    const size_t n = 10'000;
    std::vector<std::atomic<uint32_t>> hits(n);
    for (auto &h : hits)
        h.store(0);
    for (unsigned threads : {1u, 2u, 4u, 7u}) {
        for (auto &h : hits)
            h.store(0);
        WorkPool::global().parallelFor(n, threads, [&](size_t i) {
            hits[i].fetch_add(1);
        });
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1u)
                << "index " << i << " with " << threads << " threads";
    }
}

TEST(WorkPool, PropagatesFirstException)
{
    try {
        WorkPool::global().parallelFor(64, 4, [&](size_t i) {
            if (i == 13)
                fatal("boom at 13");
        });
        FAIL() << "exception was swallowed by the pool";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    }
    // The pool stays usable after a failed job.
    std::atomic<size_t> count{0};
    WorkPool::global().parallelFor(32, 4,
                                        [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 32u);
}

} // namespace
} // namespace calyx
