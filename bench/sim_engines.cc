/**
 * @file
 * Cross-engine simulator benchmark: times every registered simulation
 * engine (sim::engineInfos() — jacobi, levelized, compiled, and
 * whatever arrives next) on the fig7 (systolic matmul) and fig8
 * (PolyBench) workloads, verifies that all engines agree on cycle
 * counts and architectural state, and writes the measurements to
 * BENCH_sim.json.
 *
 * Methodology: one SimProgram per workload is shared by every engine
 * and every repetition, so the one-time costs each engine hides behind
 * it (the levelized schedule build, the compiled engine's codegen +
 * host-compiler invocation) are paid in an untimed warmup run and the
 * timed repetitions measure steady-state simulation throughput.
 * Memories are re-seeded before each repetition, outside the timed
 * region. Reported cycles_per_sec is best-of-reps (fastest single
 * repetition): scheduler noise on a shared host only ever adds time,
 * so the minimum is the estimate stable enough to gate on.
 *
 * Each workload also times a levelized run with a no-op SimObserver
 * attached (the "observed" row), so BENCH_sim.json records the cost of
 * leaving tracing on — and, by comparison with the plain levelized
 * row, that the tracing-off path carries no residual overhead.
 * Observed and plain repetitions interleave pairwise so the overhead
 * quotient compares runs taken under the same host conditions.
 *
 * Batched throughput (sim/batch.h) is measured per workload as
 * stimuli/sec at batch sizes 1/64/4096 for each engine and thread
 * count (see benchBatched), written as the per-workload "batched"
 * rows in BENCH_sim.json.
 *
 * Usage:
 *   bench_sim_engines [--small] [--check] [--reps N] [--out FILE]
 *                     [--max-dim N]
 *     --small     CI smoke configuration (fewer/smaller workloads)
 *     --check     exit non-zero if compiled is slower than levelized on
 *                 any workload (the tiny configurations legitimately
 *                 let jacobi beat levelized, so that pair is not
 *                 gated), or if a batched gate fails (checkBatched:
 *                 on gemm compiled batch-1 >= 0.8x scalar compiled
 *                 stimuli/s and batch-4096 >= batch-1; levelized
 *                 N-thread batch-64 >= 2x single-thread on
 *                 systolic_8x8 when the host has >= 2 cores)
 *     --reps N    timing repetitions per engine (default 3)
 *     --out       output path (default BENCH_sim.json)
 *     --max-dim N skip systolic configurations larger than NxN
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "frontends/dahlia/codegen.h"
#include "frontends/dahlia/parser.h"
#include "frontends/systolic/systolic.h"
#include "obs/observer.h"
#include "passes/pipeline_spec.h"
#include "sim/batch.h"
#include "sim/compiled.h"
#include "sim/cycle_sim.h"
#include "support/error.h"
#include "workloads/harness.h"
#include "workloads/polybench.h"

using namespace calyx;

namespace {

/** Jacobi re-evaluates the whole netlist to a fixed point every cycle;
 * past this systolic dimension a single run takes minutes. */
constexpr int jacobiMaxDim = 8;

/** Single-repetition threshold: one timed run of a dim>=32 array is
 * seconds-to-minutes on the slower engines already. */
constexpr int singleRepDim = 32;

struct EngineRun
{
    bool ran = false;
    uint64_t cycles = 0;
    double seconds = 0; ///< Total across all repetitions.
    double best = 0;    ///< Fastest single repetition.
    int reps = 0;

    /**
     * Throughput from the fastest repetition: scheduler jitter on a
     * shared host only ever adds time, so min-of-reps is the stable
     * estimate of what the engine can do (total/seconds swings >10%
     * run to run there, which no 5%-tolerance gate survives).
     */
    double
    cps() const
    {
        return ran && best > 0 ? static_cast<double>(cycles) / best
                               : 0.0;
    }
};

/** One batched-throughput measurement: stimuli/sec for one (engine,
 * batch size, thread count) cell, best-of-reps like EngineRun. */
struct BatchRow
{
    std::string engine;
    uint32_t batchSize = 0;
    unsigned threads = 1;
    uint32_t laneTile = 0;
    int reps = 0;
    double best = 0; ///< Fastest single repetition, seconds.

    double
    stimPerSec() const
    {
        return best > 0 ? static_cast<double>(batchSize) / best : 0.0;
    }
};

struct WorkloadResult
{
    std::string name;
    uint64_t cycles = 0;
    std::vector<EngineRun> runs; ///< Indexed like sim::engineInfos().
    EngineRun observed; ///< Levelized with a no-op observer attached.
    std::vector<BatchRow> batched; ///< sim/batch.h throughput rows.

    /** stimuli/sec of the (engine, batch, threads) row, or 0. */
    double
    batchStimPerSec(const std::string &engine, uint32_t batch,
                    unsigned threads) const
    {
        for (const BatchRow &row : batched) {
            if (row.engine == engine && row.batchSize == batch &&
                row.threads == threads)
                return row.stimPerSec();
        }
        return 0.0;
    }

    double
    observedCps() const
    {
        return observed.cps();
    }

    double
    cps(size_t e) const
    {
        return runs[e].cps();
    }

    /** cps(num)/cps(den), or 0 when either engine did not run. */
    double
    speedup(size_t num, size_t den) const
    {
        double n = cps(num), d = cps(den);
        return n > 0 && d > 0 ? n / d : 0.0;
    }
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

size_t
engineIndex(sim::Engine e)
{
    const auto &infos = sim::engineInfos();
    for (size_t i = 0; i < infos.size(); ++i) {
        if (infos[i].engine == e)
            return i;
    }
    fatal("bench: engine not registered");
}

/**
 * Time every usable engine on one prepared SimProgram. `seed` re-pokes
 * input memories (untimed, once per repetition); `state` snapshots
 * whatever the workload compares for cross-engine equivalence.
 */
WorkloadResult
benchProgram(const std::string &name, sim::SimProgram &sp, int reps,
             const std::function<void()> &seed,
             const std::function<std::vector<std::vector<uint64_t>>()>
                 &state,
             const std::function<bool(sim::Engine)> &skip)
{
    WorkloadResult r;
    r.name = name;
    r.runs.assign(sim::engineInfos().size(), {});

    bool have_baseline = false;
    std::vector<std::vector<uint64_t>> baseline;
    for (size_t e = 0; e < sim::engineInfos().size(); ++e) {
        sim::Engine engine = sim::engineInfos()[e].engine;
        if (skip(engine))
            continue;
        EngineRun &run = r.runs[e];
        run.reps = reps;

        // Untimed warmup: absorbs the engine's one-time costs and
        // doubles as the cross-engine equivalence check.
        seed();
        sim::CycleSim warm(sp, engine);
        run.cycles = warm.run();
        if (r.cycles == 0)
            r.cycles = run.cycles;
        if (run.cycles != r.cycles) {
            fatal(name, ": engine cycle mismatch (",
                  sim::engineName(engine), "=", run.cycles, ", expected ",
                  r.cycles, ")");
        }
        std::vector<std::vector<uint64_t>> got = state();
        if (!have_baseline) {
            baseline = std::move(got);
            have_baseline = true;
        } else if (got != baseline) {
            fatal(name, ": architectural state mismatch on ",
                  sim::engineName(engine));
        }

        // The observability cost row rides along with the levelized
        // reps: the same run with a do-nothing observer attached, so
        // BENCH_sim.json records what leaving a probe on costs (and
        // that off costs nothing — the plain reps never touch the
        // notification path). Observed and plain repetitions
        // interleave within one loop: back-to-back pairs see the same
        // host conditions, so the overhead quotient of the two bests
        // compares like with like instead of folding in whatever the
        // machine did between two separate measurement loops (the
        // separated form charged one workload +67% "overhead" that
        // was nothing but scheduler drift).
        struct NoopObserver : obs::SimObserver
        {
            void
            cycleSettled(uint64_t, const uint64_t *) override
            {
            }
        } noop;
        bool observe = engine == sim::Engine::Levelized;
        if (observe) {
            r.observed.cycles = run.cycles;
            r.observed.reps = reps;
        }
        for (int i = 0; i < reps; ++i) {
            seed();
            sim::CycleSim cs(sp, engine);
            double start = now();
            cs.run();
            double dt = now() - start;
            run.seconds += dt;
            if (run.best == 0 || dt < run.best)
                run.best = dt;
            if (!observe)
                continue;
            seed();
            sim::CycleSim ocs(sp, engine);
            ocs.state().addObserver(&noop);
            start = now();
            ocs.run();
            dt = now() - start;
            r.observed.seconds += dt;
            if (r.observed.best == 0 || dt < r.observed.best)
                r.observed.best = dt;
        }
        run.ran = true;
        if (observe)
            r.observed.ran = true;
    }
    return r;
}

/**
 * Batched-throughput rows (sim/batch.h): stimuli/sec per engine, batch
 * size, and thread count, appended to `r.batched`. One resident
 * BatchRunner per (engine, threads) pays schedule/JIT setup once —
 * exactly the `futil --serve` usage the rows are meant to predict.
 * Batch sizes: 1/64/4096 on the compiled engine (batch-1 runs on the
 * scalar module, the others on full lane tiles; checkBatched gates
 * both on gemm); the levelized interpreter stops at 64 — its
 * per-stimulus cost makes a 4096 batch minutes long without saying
 * anything new. Thread counts: 1, plus the host's hardware concurrency
 * when it is >= 2.
 */
void
benchBatched(WorkloadResult &r, sim::SimProgram &sp,
             const sim::Stimulus &stim, int reps,
             const std::function<bool(sim::Engine)> &skip)
{
    unsigned hw = std::thread::hardware_concurrency();
    std::vector<unsigned> threadCfgs{1};
    if (hw >= 2)
        threadCfgs.push_back(hw);
    struct Cfg
    {
        sim::Engine e;
        std::vector<uint32_t> batches;
    };
    const std::vector<Cfg> cfgs = {
        {sim::Engine::Compiled, {1, 64, 4096}},
        {sim::Engine::Levelized, {1, 64}},
    };
    for (const Cfg &cfg : cfgs) {
        if (skip(cfg.e))
            continue;
        for (unsigned th : threadCfgs) {
            sim::BatchOptions bo;
            bo.engine = cfg.e;
            bo.threads = th;
            sim::BatchRunner runner(sp, bo);
            // Untimed warmup: JIT loads (scalar and lane-tile modules),
            // pool spin-up, allocator.
            for (uint32_t n : {1u, bo.laneTile}) {
                std::vector<sim::Stimulus> warm(n, stim);
                runner.run(warm);
            }
            for (uint32_t b : cfg.batches) {
                std::vector<sim::Stimulus> batchVec(b, stim);
                BatchRow row;
                row.engine = sim::engineName(cfg.e);
                row.batchSize = b;
                row.threads = th;
                row.laneTile = runner.options().laneTile;
                row.reps = b >= 4096 ? std::min(reps, 2) : reps;
                for (int i = 0; i < row.reps; ++i) {
                    double start = now();
                    runner.run(batchVec);
                    double dt = now() - start;
                    if (row.best == 0 || dt < row.best)
                        row.best = dt;
                }
                r.batched.push_back(std::move(row));
            }
        }
    }
}

WorkloadResult
benchSystolic(int dim, int reps, const std::function<bool(sim::Engine)> &skip)
{
    Context ctx;
    systolic::Config cfg;
    cfg.rows = cfg.cols = cfg.inner = dim;
    systolic::generate(ctx, cfg);
    passes::runPipeline(ctx, "all,-resource-sharing,-register-sharing");
    sim::SimProgram sp(ctx, "main");

    auto seed = [&sp, dim] {
        for (int i = 0; i < dim; ++i) {
            auto *l = sp.findModel(systolic::leftMemName(i))->memory();
            auto *t = sp.findModel(systolic::topMemName(i))->memory();
            for (int k = 0; k < dim; ++k) {
                (*l)[k] = i + k + 1;
                (*t)[k] = 2 * i + k + 1;
            }
        }
    };
    auto state = [&sp] { return sim::archState(sp); };
    auto skip_dim = [&](sim::Engine e) {
        return skip(e) ||
               (e == sim::Engine::Jacobi && dim > jacobiMaxDim);
    };
    std::string name =
        "systolic_" + std::to_string(dim) + "x" + std::to_string(dim);
    WorkloadResult r = benchProgram(
        name, sp, dim >= singleRepDim ? 1 : reps, seed, state, skip_dim);
    if (dim <= jacobiMaxDim) {
        // Batched rows for the tractable dims only (the gate workload
        // is systolic_8x8; a 64x64 batch of 64 is hours of levelized).
        sim::Stimulus stim;
        for (int i = 0; i < dim; ++i) {
            std::vector<uint64_t> l(dim), t(dim);
            for (int k = 0; k < dim; ++k) {
                l[k] = i + k + 1;
                t[k] = 2 * i + k + 1;
            }
            stim.mems.emplace_back(systolic::leftMemName(i),
                                   std::move(l));
            stim.mems.emplace_back(systolic::topMemName(i), std::move(t));
        }
        benchBatched(r, sp, stim, reps, skip_dim);
    }
    return r;
}

WorkloadResult
benchKernel(const std::string &name, int reps,
            const std::function<bool(sim::Engine)> &skip)
{
    const workloads::Kernel &k = workloads::kernel(name);
    dahlia::Program prog = dahlia::parse(k.source);
    workloads::MemState inputs = workloads::makeInputs(name, prog);

    Context ctx = dahlia::compileDahlia(prog);
    passes::runPipeline(ctx, passes::parsePipelineSpec("all"));
    sim::SimProgram sp(ctx, "main");

    auto seed = [&] { workloads::pokeInputs(sp, prog, inputs); };
    auto state = [&] {
        std::vector<std::vector<uint64_t>> flat;
        for (auto &[mem, data] : workloads::readMemories(sp, prog))
            flat.push_back(data);
        return flat;
    };
    WorkloadResult r = benchProgram(name, sp, reps, seed, state, skip);
    benchBatched(r, sp, workloads::makeStimulus(prog, inputs), reps,
                 skip);
    return r;
}

void
writeJson(const std::string &path,
          const std::vector<WorkloadResult> &results,
          double geo_lev_jac, double geo_comp_lev)
{
    size_t jac = engineIndex(sim::Engine::Jacobi);
    size_t lev = engineIndex(sim::Engine::Levelized);
    size_t comp = engineIndex(sim::Engine::Compiled);

    std::ofstream out(path);
    if (!out)
        fatal("cannot write ", path);
    // The host the rows were measured on: every throughput row and
    // every skipped multi-core gate depends on it.
    out << "{\n  \"host\": {\"hardware_threads\": "
        << std::thread::hardware_concurrency() << ", \"compiler\": \""
#if defined(__clang__)
        << "clang "
#elif defined(__GNUC__)
        << "gcc "
#endif
        << __VERSION__ << "\", \"build_type\": \"" << CALYX_BUILD_TYPE
        << "\"},\n  \"workloads\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const WorkloadResult &r = results[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"%s\", \"cycles\": %llu,\n",
                      r.name.c_str(),
                      static_cast<unsigned long long>(r.cycles));
        out << buf;
        out << "     \"engines\": {";
        bool first = true;
        for (size_t e = 0; e < sim::engineInfos().size(); ++e) {
            if (!r.runs[e].ran)
                continue;
            std::snprintf(buf, sizeof buf,
                          "%s\"%s\": {\"reps\": %d, \"seconds\": %.6f, "
                          "\"cycles_per_sec\": %.0f}",
                          first ? "" : ", ", sim::engineInfos()[e].name,
                          r.runs[e].reps, r.runs[e].seconds, r.cps(e));
            out << buf;
            first = false;
        }
        out << "},\n";
        if (r.observed.ran) {
            double plain = r.cps(lev), obs_cps = r.observedCps();
            double overhead =
                plain > 0 && obs_cps > 0 ? (plain / obs_cps - 1) * 100
                                         : 0.0;
            std::snprintf(buf, sizeof buf,
                          "     \"observed_levelized\": {\"reps\": %d, "
                          "\"seconds\": %.6f, \"cycles_per_sec\": %.0f, "
                          "\"overhead_pct\": %.1f},\n",
                          r.observed.reps, r.observed.seconds, obs_cps,
                          overhead);
            out << buf;
        }
        if (!r.batched.empty()) {
            out << "     \"batched\": [\n";
            for (size_t b = 0; b < r.batched.size(); ++b) {
                const BatchRow &row = r.batched[b];
                std::snprintf(
                    buf, sizeof buf,
                    "       {\"engine\": \"%s\", \"batch\": %u, "
                    "\"threads\": %u, \"lane_tile\": %u, \"reps\": %d, "
                    "\"best_seconds\": %.6f, "
                    "\"stimuli_per_sec\": %.1f}%s\n",
                    row.engine.c_str(), row.batchSize, row.threads,
                    row.laneTile, row.reps, row.best, row.stimPerSec(),
                    b + 1 < r.batched.size() ? "," : "");
                out << buf;
            }
            out << "     ],\n";
        }
        std::snprintf(buf, sizeof buf,
                      "     \"speedup_levelized_vs_jacobi\": %.2f, "
                      "\"speedup_compiled_vs_levelized\": %.2f}%s\n",
                      r.speedup(lev, jac), r.speedup(comp, lev),
                      i + 1 < results.size() ? "," : "");
        out << buf;
    }
    char tail[160];
    std::snprintf(tail, sizeof tail,
                  "  ],\n  \"geomean_levelized_vs_jacobi\": %.2f,\n"
                  "  \"geomean_compiled_vs_levelized\": %.2f\n}\n",
                  geo_lev_jac, geo_comp_lev);
    out << tail;
}

/**
 * --check gates on the batched rows. Two assertions:
 *
 *  1. Batch shapes pay off (single thread, on gemm): compiled batch-1
 *     runs on the scalar module (BatchOptions::laneTile), so it must
 *     reach >= 0.8x the scalar compiled stimuli/sec (cycles/sec over
 *     cycles) — the batch wrapper costs little; and batch-4096, all
 *     full lane tiles, must reach at least batch-1 — the lane module
 *     earns its width.
 *  2. Threads scale: on systolic_8x8, levelized batch-64 with all
 *     hardware threads must be >= 2x the single-thread rate. Skipped
 *     (with a note) on single-core hosts, where no multi-thread rows
 *     exist to compare.
 *
 * Returns the number of failed gates.
 */
int
checkBatched(const std::vector<WorkloadResult> &results)
{
    int failures = 0;
    unsigned hw = std::thread::hardware_concurrency();
    const size_t comp = engineIndex(sim::Engine::Compiled);
    for (const WorkloadResult &r : results) {
        if (r.name == "gemm" && r.runs[comp].ran && r.cycles > 0) {
            double scalar = r.cps(comp) / static_cast<double>(r.cycles);
            double b1 = r.batchStimPerSec("compiled", 1, 1);
            double b4096 = r.batchStimPerSec("compiled", 4096, 1);
            if (b1 > 0 && b1 < 0.8 * scalar) {
                std::fprintf(stderr,
                             "FAIL gemm: compiled batch-1 %.1f stimuli/s "
                             "is under 0.8x scalar compiled %.1f\n",
                             b1, scalar);
                ++failures;
            }
            if (b1 > 0 && b4096 > 0 && b4096 < b1) {
                std::fprintf(stderr,
                             "FAIL gemm: compiled batch-4096 %.1f "
                             "stimuli/s is under batch-1 %.1f\n",
                             b4096, b1);
                ++failures;
            }
        }
        if (r.name == "systolic_8x8" && hw >= 2) {
            double t1 = r.batchStimPerSec("levelized", 64, 1);
            double tn = r.batchStimPerSec("levelized", 64, hw);
            if (t1 > 0 && tn > 0 && tn < 2.0 * t1) {
                std::fprintf(stderr,
                             "FAIL systolic_8x8: levelized batch-64 "
                             "with %u threads %.1f stimuli/s is under "
                             "2x single-thread %.1f\n",
                             hw, tn, t1);
                ++failures;
            }
        }
    }
    if (hw < 2)
        std::printf("note: single-core host; thread-scaling gate "
                    "skipped\n");
    return failures;
}

/** Geomean of per-workload speedups, over workloads where both ran. */
double
geomean(const std::vector<WorkloadResult> &results, size_t num, size_t den)
{
    double log_sum = 0;
    int n = 0;
    for (const WorkloadResult &r : results) {
        double s = r.speedup(num, den);
        if (s > 0) {
            log_sum += std::log(s);
            ++n;
        }
    }
    return n > 0 ? std::exp(log_sum / n) : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool small = false, check = false;
    int reps = 3;
    int max_dim = 0;
    std::string out_path = "BENCH_sim.json";

    std::vector<std::string> args(argv + 1, argv + argc);
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--small") {
            small = true;
        } else if (args[i] == "--check") {
            check = true;
        } else if (args[i] == "--reps" && i + 1 < args.size()) {
            reps = std::max(1, std::atoi(args[++i].c_str()));
        } else if (args[i] == "--out" && i + 1 < args.size()) {
            out_path = args[++i];
        } else if (args[i] == "--max-dim" && i + 1 < args.size()) {
            max_dim = std::atoi(args[++i].c_str());
        } else {
            std::fprintf(stderr,
                         "usage: bench_sim_engines [--small] [--check] "
                         "[--reps N] [--out FILE] [--max-dim N]\n");
            return 2;
        }
    }

    // Engines come from the registry; nothing below hard-codes the set.
    const auto &engines = sim::engineInfos();
    std::string no_compiled = sim::compiledEngineUnavailableReason();
    auto skip = [&](sim::Engine e) {
        return e == sim::Engine::Compiled && !no_compiled.empty();
    };
    if (!no_compiled.empty())
        std::printf("note: skipping compiled engine: %s\n",
                    no_compiled.c_str());

    std::vector<int> dims = small
                                ? std::vector<int>{2, 4}
                                : std::vector<int>{2, 4, 6, 8, 16, 32, 64};
    if (max_dim > 0)
        std::erase_if(dims, [max_dim](int d) { return d > max_dim; });
    std::vector<std::string> kernels =
        small ? std::vector<std::string>{"gemm", "atax"}
              : std::vector<std::string>{"gemm", "atax", "mvt", "bicg"};

    std::printf("=== simulation engines:");
    for (const auto &info : engines)
        std::printf(" %s", info.name);
    std::printf(" ===\n");
    std::printf("%-14s %12s |", "workload", "cycles");
    for (const auto &info : engines)
        std::printf(" %13s", (std::string(info.name) + " c/s").c_str());
    std::printf("\n");

    std::vector<WorkloadResult> results;
    try {
        for (int dim : dims)
            results.push_back(benchSystolic(dim, reps, skip));
        for (const std::string &k : kernels)
            results.push_back(benchKernel(k, reps, skip));
    } catch (const Error &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }

    size_t jac = engineIndex(sim::Engine::Jacobi);
    size_t lev = engineIndex(sim::Engine::Levelized);
    size_t comp = engineIndex(sim::Engine::Compiled);
    bool regression = false;
    for (const WorkloadResult &r : results) {
        std::printf("%-14s %12llu |", r.name.c_str(),
                    static_cast<unsigned long long>(r.cycles));
        for (size_t e = 0; e < engines.size(); ++e) {
            if (r.runs[e].ran)
                std::printf(" %13.0f", r.cps(e));
            else
                std::printf(" %13s", "-");
        }
        std::printf("\n");
        for (const auto &row : r.batched) {
            std::printf("  batched %-9s batch %4u x%u thread%s "
                        "(tile %2u): %10.1f stimuli/s\n",
                        row.engine.c_str(), row.batchSize, row.threads,
                        row.threads == 1 ? " " : "s", row.laneTile,
                        row.stimPerSec());
        }
        double cl = r.speedup(comp, lev);
        if (cl > 0 && cl < 1.0)
            regression = true;
    }
    double geo_lj = geomean(results, lev, jac);
    double geo_cl = geomean(results, comp, lev);
    std::printf("geomean speedup: levelized/jacobi %.2fx, "
                "compiled/levelized %.2fx\n",
                geo_lj, geo_cl);

    double overhead_sum = 0;
    int overhead_n = 0;
    for (const WorkloadResult &r : results) {
        double plain = r.cps(lev), obs_cps = r.observedCps();
        if (plain > 0 && obs_cps > 0) {
            overhead_sum += (plain / obs_cps - 1) * 100;
            ++overhead_n;
        }
    }
    if (overhead_n > 0)
        std::printf("no-op observer overhead (levelized): %.1f%% mean "
                    "over %d workloads\n",
                    overhead_sum / overhead_n, overhead_n);

    try {
        writeJson(out_path, results, geo_lj, geo_cl);
    } catch (const Error &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());

    int failures = 0;
    if (check && regression) {
        std::fprintf(stderr,
                     "FAIL: an engine is slower than its predecessor on "
                     "at least one workload\n");
        ++failures;
    }
    if (check)
        failures += checkBatched(results);
    return failures > 0 ? 1 : 0;
}
