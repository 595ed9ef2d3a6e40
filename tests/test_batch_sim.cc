/**
 * Batched lane-parallel simulation (ISSUE 8): a batch of N stimuli run
 * through sim::BatchRunner must be bit-identical — cycle counts,
 * register state, memory images, per lane — to N scalar CycleSim runs
 * on the Jacobi oracle, whichever engine the batch runs on (levelized
 * or compiled), including batches whose
 * lanes take divergent control paths (a while loop bounded by a value
 * loaded from memory) and batches cut into tiles whose tail runs
 * either padded or (compiled engine, short tails) on the scalar module.
 * Also covers the work-stealing pool the tiles are spread over, its
 * usable-core count (the default thread count), the grain gate's
 * choice to spread a batch or run it on the caller, and the
 * construction-time rejections (groups, the Jacobi oracle).
 */
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "frontends/dahlia/codegen.h"
#include "frontends/dahlia/parser.h"
#include "frontends/systolic/systolic.h"
#include "helpers.h"
#include "ir/parser.h"
#include "sim/batch.h"
#include "sim/compiled.h"
#include "sim/cycle_sim.h"
#include "support/pool.h"
#include "support/error.h"
#include "workloads/harness.h"
#include "workloads/polybench.h"

// Sanitizers slow a tile's host code and allocations several-fold but
// not the kernel's wake-up of a worker.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CALYX_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CALYX_SANITIZED 1
#endif
#endif

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

/** One scalar Jacobi run per stimulus: the oracle every batch engine
 * is held to. */
std::vector<ScalarRef>
jacobiRefs(const Context &ctx, const std::vector<sim::Stimulus> &batch)
{
    std::vector<ScalarRef> refs;
    for (const sim::Stimulus &stim : batch) {
        sim::SimProgram sp(ctx, ctx.entrypoint());
        for (const auto &[path, data] : stim.mems) {
            std::vector<uint64_t> *mem = sp.findModel(path)->memory();
            EXPECT_NE(mem, nullptr) << path;
            std::copy(data.begin(), data.end(), mem->begin());
        }
        sim::CycleSim cs(sp, sim::Engine::Jacobi);
        ScalarRef &r = refs.emplace_back();
        r.cycles = cs.run();
        for (const auto &m : sp.models()) {
            if (auto rv = m->registerValue())
                r.regs.push_back(*rv);
            else if (const std::vector<uint64_t> *mm = m->memory())
                r.mems.push_back(*mm);
        }
    }
    return refs;
}

/** `refs` from jacobiRefs(ctx, batch); `counts`, when given, receives
 * the tile shapes the batch ran as. */
void
expectBatchMatchesScalar(const Context &ctx,
                         const std::vector<sim::Stimulus> &batch,
                         const std::vector<ScalarRef> &refs,
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
    ASSERT_EQ(refs.size(), batch.size()) << label;
    for (size_t l = 0; l < batch.size(); ++l) {
        const ScalarRef &ref = refs[l];
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
        auto refs = jacobiRefs(ctx, batch);
        for (sim::Engine engine : batchEngines()) {
            sim::BatchOptions opts;
            opts.engine = engine;
            expectBatchMatchesScalar(
                ctx, batch, refs, opts, entry.path().filename().string());
        }
    }
    EXPECT_GE(found, 2) << "expected at least two examples/*.futil";
}

TEST(BatchSim, DivergentControlPathsPerLane)
{
    Context ctx = Parser::parseProgram(kDataBoundedLoop);
    passes::runPipeline(ctx, "all");
    // Divergent trip counts, deliberately out of order, including the
    // zero-trip edge and lanes that straddle the tile boundary.
    std::vector<uint64_t> bounds = {5, 0, 13, 1, 7, 2, 9, 0, 4, 11,
                                    3, 12, 6, 8, 0, 10, 2, 7, 1};
    std::vector<sim::Stimulus> batch;
    for (uint64_t b : bounds) {
        sim::Stimulus s;
        s.mems.emplace_back("bound", std::vector<uint64_t>{b});
        batch.push_back(std::move(s));
    }
    auto refs = jacobiRefs(ctx, batch);
    for (sim::Engine engine : batchEngines()) {
        sim::BatchOptions opts;
        opts.engine = engine;
        // 19 lanes -> one full 16-lane tile and a 3-stimulus tail (three
        // scalar tiles on the compiled engine, one narrowed levelized
        // tile).
        opts.threads = 3;
        expectBatchMatchesScalar(ctx, batch, refs, opts,
                                 "data-bounded loop");
    }

    // Sanity: the lanes really did diverge (distinct cycle counts).
    sim::SimProgram sp(ctx, ctx.entrypoint());
    sim::BatchOptions opts;
    opts.engine = sim::Engine::Levelized;
    auto results = sim::BatchRunner(sp, opts).run(batch);
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

    // Six distinct input sets, each held to a Jacobi run of its own,
    // repeated over 19 lanes: a full 16-lane tile and a 3-stimulus
    // tail.
    workloads::MemState base = workloads::makeInputs("gemm", prog);
    std::vector<sim::Stimulus> distinct;
    for (uint64_t v = 0; v < 6; ++v) {
        workloads::MemState inputs = base;
        for (auto &[name, data] : inputs)
            for (size_t i = 0; i < data.size(); ++i)
                data[i] += v * (i % 7);
        distinct.push_back(workloads::makeStimulus(prog, inputs));
    }
    auto distinctRefs = jacobiRefs(ctx, distinct);
    std::vector<sim::Stimulus> batch;
    std::vector<ScalarRef> refs;
    for (size_t lane = 0; lane < 19; ++lane) {
        batch.push_back(distinct[lane % distinct.size()]);
        refs.push_back(distinctRefs[lane % distinct.size()]);
    }
    for (sim::Engine engine : batchEngines()) {
        sim::BatchOptions opts;
        opts.engine = engine;
        opts.threads = 2; // 3-stimulus tail: scalar tiles (compiled).
        expectBatchMatchesScalar(ctx, batch, refs, opts, "gemm");
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
    // A batch of 19 is one full 16-lane tile plus a 3-stimulus tail
    // (<= 8) on three scalar tiles; a batch of 27 has an 11-stimulus
    // tail (> 8), which runs as one padded 16-lane tile.
    struct Shape
    {
        size_t batch;
        uint64_t scalarTiles, laneTiles, paddedLanes;
    };
    for (Shape shape : {Shape{19, 3, 1, 0}, Shape{27, 0, 2, 5}}) {
        auto batch = boundedLoopBatch(shape.batch);
        auto refs = jacobiRefs(ctx, batch);
        for (unsigned threads : {1u, 3u}) {
            sim::BatchOptions opts;
            opts.engine = sim::Engine::Compiled;
            opts.threads = threads;
            std::string label = "batch " + std::to_string(shape.batch) +
                                ", " + std::to_string(threads) + " threads";
            sim::BatchRunner::TileCounts tc;
            expectBatchMatchesScalar(ctx, batch, refs, opts, label, &tc);
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
    sim::BatchRunner runner(sp, opts);
    std::vector<sim::Stimulus> batch(16);
    for (uint64_t b = 0; b < 16; ++b)
        batch[b].mems.emplace_back("bound", std::vector<uint64_t>{b});
    for (int round = 0; round < 5; ++round) {
        auto results = runner.run(batch);
        for (uint64_t b = 1; b < 16; ++b)
            EXPECT_EQ(results[b].regs[0], 3 * b)
                << "round " << round << " lane " << b;
    }
    // The JIT module is resident: one load serves every full batch.
    EXPECT_EQ(runner.moduleLoads(), 1u);

    // Batches of every shape add at most the scalar module.
    for (size_t n : {1, 3, 16, 19}) {
        auto shaped = boundedLoopBatch(n);
        auto results = runner.run(shaped);
        for (size_t b = 0; b < n; ++b)
            EXPECT_EQ(results[b].regs[0], 3 * ((b * 5) % 13))
                << "batch " << n << " lane " << b;
    }
    EXPECT_LE(runner.moduleLoads(), 2u);
}

TEST(BatchSim, ThreadsDefaultToUsableCores)
{
    EXPECT_EQ(sim::BatchOptions{}.threads, WorkPool::defaultThreads());
}

/**
 * Participants of each of `runs` successive batches of `n` default
 * stimuli on one compiled runner `threads` wide. An untimed runner
 * first runs as many, so that the module's code and the pool's workers
 * are warm: the decisions then follow the gate's rule, not the
 * first-touch costs a sanitizer build multiplies.
 */
std::vector<unsigned>
gateDecisions(Context &ctx, size_t n, unsigned threads, int runs)
{
    sim::SimProgram sp(ctx, ctx.entrypoint());
    sim::BatchOptions opts;
    opts.engine = sim::Engine::Compiled;
    opts.threads = threads;
    std::vector<sim::Stimulus> batch(n);
    {
        sim::BatchRunner warm(sp, opts);
        for (int r = 0; r < runs; ++r)
            warm.run(batch);
    }
    sim::BatchRunner runner(sp, opts);
    std::vector<unsigned> widths;
    for (int r = 0; r < runs; ++r) {
        runner.run(batch);
        widths.push_back(runner.lastParticipants());
    }
    return widths;
}

TEST(BatchSim, GrainGateSpreadsOnlyBatchesThatPay)
{
    if (!sim::compiledEngineUnavailableReason().empty())
        GTEST_SKIP() << sim::compiledEngineUnavailableReason();
    // The counter's four 16-lane tiles take microseconds, less than
    // waking three workers: once its shape is timed (the first batch
    // spreads to time it), a batch runs on the caller alone. Under a
    // sanitizer a tile costs about what a wake-up does, and the choice
    // follows the noise, so only the first batch is held there.
    std::ifstream in(std::string(CALYX_EXAMPLES_DIR) + "/counter.futil");
    ASSERT_TRUE(in);
    std::stringstream buffer;
    buffer << in.rdbuf();
    Context counter = Parser::parseProgram(buffer.str());
    passes::runPipeline(counter, "all");
    std::vector<unsigned> counter64 = gateDecisions(counter, 64, 4, 3);
    EXPECT_EQ(counter64[0], 4u);
#ifndef CALYX_SANITIZED
    EXPECT_EQ(counter64, (std::vector<unsigned>{4, 1, 1}));
#endif

    // A systolic 4x4 tile takes milliseconds: every batch spreads.
    Context systolic4;
    systolic::Config cfg;
    cfg.rows = cfg.cols = cfg.inner = 4;
    systolic::generate(systolic4, cfg);
    passes::runPipeline(systolic4, "all,-resource-sharing,-register-sharing");
    EXPECT_EQ(gateDecisions(systolic4, 64, 4, 3),
              (std::vector<unsigned>{4, 4, 4}));
}

/** Threads this process runs. */
size_t
processThreads()
{
    size_t n = 0;
    for ([[maybe_unused]] const auto &task :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

TEST(BatchSim, WideThreadCountReservesOnlyTheUsableCores)
{
    // A runner asked for more threads than the host has reserves its
    // usable cores; the rest would only wait. The width stays in the
    // dozens so that a regression starts dozens of threads, not the
    // thousands a mistyped count asks for.
    unsigned usable = WorkPool::defaultThreads();
    WorkPool::global().reserve(usable);
    size_t before = processThreads();
    Context ctx = Parser::parseProgram(kDataBoundedLoop);
    passes::runPipeline(ctx, "all");
    sim::SimProgram sp(ctx, ctx.entrypoint());
    sim::BatchOptions opts;
    opts.engine = sim::Engine::Levelized;
    opts.threads = usable + 64;
    sim::BatchRunner runner(sp, opts);
    EXPECT_EQ(processThreads(), before);
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
        sim::BatchRunner(sp, opts).run(batch);
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

TEST(WorkPool, ConcurrentCallersDoNotStackThreads)
{
    // Two threads each request a 2-wide parallelFor at once. The pool
    // serializes jobs, so the combined participant high-water mark must
    // stay at one job's width (2) — not the 4 a per-caller thread pool
    // would spike to.
    WorkPool::global().resetPeakParticipants();
    auto burst = [] {
        WorkPool::global().parallelFor(8, 2, [](size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        });
    };
    std::thread a(burst), b(burst);
    a.join();
    b.join();
    EXPECT_GE(WorkPool::peakParticipants(), 1u);
    EXPECT_LE(WorkPool::peakParticipants(), 2u);
}

TEST(WorkPool, DefaultThreadsCountsTheAffinityMask)
{
    // A thread pinned to one CPU has one usable core, however many the
    // host has: hardware_concurrency() ignores the mask.
    cpu_set_t all;
    CPU_ZERO(&all);
    ASSERT_EQ(sched_getaffinity(0, sizeof all, &all), 0);
    EXPECT_EQ(WorkPool::defaultThreads(),
              static_cast<unsigned>(CPU_COUNT(&all)));
    int cpu = 0;
    while (!CPU_ISSET(cpu, &all))
        ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
    unsigned pinned = WorkPool::defaultThreads();
    // A runner built here resolves its default thread count here.
    Context ctx = Parser::parseProgram(kDataBoundedLoop);
    passes::runPipeline(ctx, "all");
    sim::SimProgram sp(ctx, ctx.entrypoint());
    sim::BatchOptions opts;
    opts.engine = sim::Engine::Levelized;
    sim::BatchRunner runner(sp, opts);
    ASSERT_EQ(sched_setaffinity(0, sizeof all, &all), 0);
    EXPECT_EQ(pinned, 1u);
    EXPECT_EQ(runner.options().threads, 1u);
}

TEST(WorkPool, NestedParallelismIsCappedNotStacked)
{
    // A parallelFor issued from inside a pool worker runs serially on
    // that worker: a nested loop (say, a compiled-module shard build
    // started from inside a batch tile) must not multiply the thread
    // count, and must not deadlock on the pool's single job slot.
    WorkPool::global().resetPeakParticipants();
    std::atomic<size_t> inner{0};
    WorkPool::global().parallelFor(2, 2, [&](size_t) {
        WorkPool::global().parallelFor(8, 4, [&](size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            inner.fetch_add(1);
        });
    });
    EXPECT_EQ(inner.load(), 16u);
    EXPECT_LE(WorkPool::peakParticipants(), 2u);
}

} // namespace
} // namespace calyx
