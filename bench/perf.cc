/**
 * @file
 * Timed measurements: simulation throughput (BENCH_sim.json), compile
 * time with the paper's §7.4 design statistics (BENCH_compile.json),
 * and the compile service (BENCH_service.json), each file with its
 * gates and the same host block.
 *
 * Every measurement is one row of one table. A count row records one
 * value. A timed row repeats until it has kMinSamples samples and
 * kMinSeconds of timed work, and records their median and quartiles.
 * The rows of one workload take their samples in interleaved rounds, so
 * host drift spreads across all of them. Every run is checked before it
 * is timed; a mismatch names the workload and the row, exits 1 and
 * writes no file. The gates compare medians; a failed gate still writes
 * the files, and exits 1.
 *
 * Usage: bench_perf   (takes no arguments; writes the three files in
 * the working directory)
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cache/compile_cache.h"
#include "emit/backend.h"
#include "frontends/dahlia/codegen.h"
#include "frontends/dahlia/parser.h"
#include "frontends/systolic/systolic.h"
#include "ir/fsm.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "obs/observer.h"
#include "passes/design_stats.h"
#include "passes/pipeline_spec.h"
#include "sim/batch.h"
#include "sim/compiled.h"
#include "sim/cycle_sim.h"
#include "support/error.h"
#include "support/json.h"
#include "support/pool.h"
#include "support/subprocess.h"
#include "support/text.h"
#include "support/time.h"
#include "workloads/harness.h"
#include "workloads/polybench.h"

using namespace calyx;

namespace {

constexpr size_t kMinSamples = 5;
constexpr double kMinSeconds = 0.2;

/** One row of the table: a timed row or a count row. */
struct Row
{
    std::string file; ///< "sim", "compile" or "service"
    std::string workload, name, unit;
    /** Units of work per sample: the row reports work / seconds, or,
     * with no work, its samples in milliseconds. */
    double work = 0;
    std::vector<double> seconds; ///< one per sample
    double timed = 0;            ///< their sum
    /** Takes one sample and returns its timed seconds. Rows fed by
     * another row's sampler have none. */
    std::function<double()> sample;
    std::optional<double> value; ///< a count or derived row
    std::optional<double> paper; ///< the paper's value, where it has one

    void
    add(double s)
    {
        seconds.push_back(s);
        timed += s;
    }

    /** Quantile `q` of the samples, in `unit`. */
    double
    quantile(double q) const
    {
        std::vector<double> v;
        for (double s : seconds)
            v.push_back(work > 0 ? work / s : s * 1e3);
        std::sort(v.begin(), v.end());
        double pos = q * static_cast<double>(v.size() - 1);
        size_t lo = static_cast<size_t>(pos);
        size_t hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
    }

    double median() const { return value ? *value : quantile(0.5); }
};

std::vector<Row> table;

double
median(const std::string &workload, const std::string &name)
{
    for (const Row &r : table) {
        if (r.workload == workload && r.name == name)
            return r.median();
    }
    fatal("no row ", workload, ", ", name);
}

/** Appends the rows of one workload to the table and samples them. */
struct Workload
{
    std::string file, name;
    size_t first = table.size();

    size_t
    timed(std::string row, std::string unit, double work,
          std::function<double()> sample, std::optional<double> paper = {})
    {
        table.push_back({file, name, std::move(row), std::move(unit), work,
                         {}, 0, std::move(sample), {}, paper});
        return table.size() - 1;
    }

    void
    count(std::string row, std::string unit, double value,
          std::optional<double> paper = {})
    {
        table.push_back({file, name, std::move(row), std::move(unit), 0, {},
                         0, nullptr, value, paper});
    }

    /** Samples the timed rows in interleaved rounds until each has its
     * samples, drops the samplers and the designs they hold, and prints
     * the rows. */
    void
    sample()
    {
        for (bool more = true; more;) {
            more = false;
            for (size_t i = first; i < table.size(); ++i) {
                Row &r = table[i];
                if (r.sample && (r.seconds.size() < kMinSamples ||
                                 r.timed < kMinSeconds)) {
                    r.add(r.sample());
                    more = true;
                }
            }
        }
        for (size_t i = first; i < table.size(); ++i) {
            Row &r = table[i];
            r.sample = nullptr;
            std::printf("%-7s %-14s %-46s %12.6g %-10s", r.file.c_str(),
                        r.workload.c_str(), r.name.c_str(), r.median(),
                        r.unit.c_str());
            if (!r.value)
                std::printf(" [%.6g, %.6g] n=%zu", r.quantile(0.25),
                            r.quantile(0.75), r.seconds.size());
            if (r.paper)
                std::printf(" (paper %g)", *r.paper);
            std::printf("\n");
        }
    }
};

json::Value
object(std::initializer_list<std::pair<const char *, json::Value>> members)
{
    json::Value o = json::Value::object();
    for (const auto &[key, value] : members)
        o.set(key, value);
    return o;
}

/** Each file's gates: {"name", "pass"} or {"name", "skipped"}. */
std::vector<std::pair<std::string, json::Value>> gates;
int failedGates = 0;

/** Records and prints gate `name`: skipped when `why` is non-empty,
 * else passed when `pass()` holds. */
void
gate(const char *file, const std::string &name,
     const std::function<bool()> &pass, const std::string &why = "")
{
    bool ok = why.empty() && pass();
    failedGates += why.empty() && !ok;
    std::printf("%s %s%s\n", !why.empty() ? "SKIP" : ok ? "PASS" : "FAIL",
                name.c_str(), why.empty() ? "" : (" (" + why + ")").c_str());
    gates.emplace_back(file, object({{"name", json::Value::str(name)},
                                     {why.empty() ? "pass" : "skipped",
                                      why.empty() ? json::Value::boolean(ok)
                                                  : json::Value::str(why)}}));
}

double
timeIt(const std::function<void()> &fn)
{
    double start = nowSeconds();
    fn();
    return nowSeconds() - start;
}

Context
systolicContext(int dim)
{
    Context ctx;
    systolic::Config cfg;
    cfg.rows = cfg.cols = cfg.inner = dim;
    systolic::generate(ctx, cfg);
    return ctx;
}

std::string
systolicName(int dim)
{
    return "systolic_" + std::to_string(dim) + "x" + std::to_string(dim);
}

// --- Simulation -----------------------------------------------------------

/** Why the compiled engine cannot run here, or "". Set by main(). */
std::string noCompiled;

/** A lowered design and the inputs every run starts from. */
struct SimDesign
{
    SimDesign(Context c, sim::Stimulus s)
        : ctx(std::move(c)), sp(ctx, Symbol("main")), stim(std::move(s))
    {}

    /** Pokes the stimulus into the scalar program's memories, as a
     * batch seeds a lane: images pad with zeros. */
    void
    seed()
    {
        for (const auto &[path, image] : stim.mems) {
            std::vector<uint64_t> &mem = *sp.findModel(path)->memory();
            std::fill(std::copy(image.begin(), image.end(), mem.begin()),
                      mem.end(), 0);
        }
    }

    Context ctx;
    sim::SimProgram sp;
    sim::Stimulus stim;
};

std::shared_ptr<SimDesign>
systolicDesign(int dim)
{
    Context ctx = systolicContext(dim);
    passes::runPipeline(ctx, "all,-resource-sharing,-register-sharing");
    sim::Stimulus stim;
    for (int i = 0; i < dim; ++i) {
        std::vector<uint64_t> left(dim), top(dim);
        for (int k = 0; k < dim; ++k) {
            left[k] = i + k + 1;
            top[k] = 2 * i + k + 1;
        }
        stim.mems.emplace_back(systolic::leftMemName(i), std::move(left));
        stim.mems.emplace_back(systolic::topMemName(i), std::move(top));
    }
    return std::make_shared<SimDesign>(std::move(ctx), std::move(stim));
}

/** examples/counter.futil: tiles of microseconds, shorter than waking
 * the pool's workers, so the grain gate runs its batches serially. */
std::shared_ptr<SimDesign>
counterDesign()
{
    std::string path = std::string(CALYX_EXAMPLES_DIR) + "/counter.futil";
    std::ifstream in(path);
    if (!in)
        fatal("cannot read ", path);
    std::stringstream text;
    text << in.rdbuf();
    Context ctx = Parser::parseProgram(text.str());
    passes::runPipeline(ctx, "all");
    return std::make_shared<SimDesign>(std::move(ctx), sim::Stimulus{});
}

std::shared_ptr<SimDesign>
kernelDesign(const std::string &name)
{
    dahlia::Program prog = dahlia::parse(workloads::kernel(name).source);
    Context ctx = dahlia::compileDahlia(prog);
    passes::runPipeline(ctx, "all");
    return std::make_shared<SimDesign>(
        std::move(ctx),
        workloads::makeStimulus(prog, workloads::makeInputs(name, prog)));
}

/** The architectural state `sp` holds after a run, in BatchRunner slot
 * order. */
sim::LaneResult
snapshot(const sim::SimProgram &sp, uint64_t cycles)
{
    sim::LaneResult r;
    r.cycles = cycles;
    for (const auto &m : sp.models()) {
        if (auto v = m->registerValue())
            r.regs.push_back(*v);
        else if (const std::vector<uint64_t> *mem = m->memory())
            r.mems.push_back(*mem);
    }
    return r;
}

std::string
batchRow(sim::Engine e, uint32_t batch, unsigned threads)
{
    return std::string(sim::engineName(e)) + " batch " +
           std::to_string(batch) + ", " + std::to_string(threads) +
           (threads == 1 ? " thread" : " threads");
}

/** A batch row of >= 2 tiles at every usable CPU: the rows the
 * "never slower than one thread" gates compare with one thread. */
struct SpreadRow
{
    std::string workload;
    sim::Engine engine;
    uint32_t batch;
};
std::vector<SpreadRow> spreadRows;

/** A do-nothing observer: the cost of leaving a probe attached. */
struct NoopObserver : obs::SimObserver
{
    void cycleSettled(uint64_t, const uint64_t *) override {}
} noop;

/**
 * Cycles/s of every engine, and of levelized with a no-op observer;
 * stimuli/s of compiled batches `compiledBatches` and levelized batches
 * 1 and 64, each at 1 thread and at every usable CPU. The first
 * engine's first run is the reference every other run must reproduce.
 */
void
simWorkload(const std::string &name, std::shared_ptr<SimDesign> d,
            const std::vector<uint32_t> &compiledBatches)
{
    Workload w{"sim", name};
    std::optional<sim::LaneResult> ref;
    std::string refRow;
    auto check = [&](const std::string &row, const sim::LaneResult &got,
                     const std::string &lane) {
        if (!ref) {
            ref = got;
            refRow = row;
            w.count("cycles", "cycles", static_cast<double>(got.cycles));
        }
        const char *what = got.cycles != ref->cycles ? "cycles"
                           : got.regs != ref->regs   ? "registers"
                           : got.mems != ref->mems   ? "memories"
                                                     : nullptr;
        if (what) {
            fatal(name, ", ", row, ": ", lane, what, " differ from the ",
                  refRow, " run");
        }
    };
    auto skipped = [](sim::Engine e) {
        return e == sim::Engine::Compiled && !noCompiled.empty();
    };
    for (const sim::EngineInfo &info : sim::engineInfos()) {
        for (bool observed : {false, true}) {
            if (skipped(info.engine) ||
                (observed && info.engine != sim::Engine::Levelized))
                continue;
            std::string row =
                std::string(info.name) + (observed ? " observed" : "");
            auto cs = std::make_shared<sim::CycleSim>(d->sp, info.engine);
            if (observed)
                cs->state().addObserver(&noop);
            d->seed();
            uint64_t cycles = cs->run();
            check(row, snapshot(d->sp, cycles), "");
            w.timed(row, "cycles/s", static_cast<double>(cycles), [d, cs] {
                d->seed();
                return timeIt([&] { cs->run(); });
            });
        }
    }

    std::vector<unsigned> threadCounts{1};
    if (unsigned usable = WorkPool::defaultThreads(); usable >= 2)
        threadCounts.push_back(usable);
    for (sim::Engine e : {sim::Engine::Compiled, sim::Engine::Levelized}) {
        if (skipped(e))
            continue;
        for (unsigned threads : threadCounts) {
            sim::BatchOptions opts;
            opts.engine = e;
            opts.threads = threads;
            auto runner = std::make_shared<sim::BatchRunner>(d->sp, opts);
            for (uint32_t b : e == sim::Engine::Compiled
                                  ? compiledBatches
                                  : std::vector<uint32_t>{1, 64}) {
                auto batch =
                    std::make_shared<std::vector<sim::Stimulus>>(b, d->stim);
                std::string row = batchRow(e, b, threads);
                const sim::BatchRunner::TileCounts &tc =
                    runner->tileCounts();
                uint64_t tilesBefore = tc.scalarTiles + tc.laneTiles;
                std::vector<sim::LaneResult> lanes = runner->run(*batch);
                if (threads > 1 &&
                    tc.scalarTiles + tc.laneTiles - tilesBefore >= 2)
                    spreadRows.push_back({name, e, b});
                for (size_t l = 0; l < lanes.size(); ++l)
                    check(row, lanes[l], "lane " + std::to_string(l) + " ");
                w.timed(row, "stimuli/s", b, [runner, batch] {
                    return timeIt([&] { runner->run(*batch); });
                });
            }
        }
    }
    w.sample();
    Workload derived{"sim", name};
    derived.count("observer overhead", "%",
                  (median(name, "levelized") /
                       median(name, "levelized observed") -
                   1) * 100);
    derived.sample();
}

void
simRows()
{
    if (!noCompiled.empty())
        std::printf("note: skipping the compiled engine: %s\n",
                    noCompiled.c_str());
    std::vector<std::string> names;
    for (int dim : {2, 4, 8}) {
        names.push_back(systolicName(dim));
        simWorkload(names.back(), systolicDesign(dim), {1, 64});
    }
    simWorkload("gemm", kernelDesign("gemm"), {1, 64, 4096});
    simWorkload("atax", kernelDesign("atax"), {1, 64});
    names.insert(names.end(), {"gemm", "atax"});
    // Batches too short to spread: the serial side of the grain gate.
    simWorkload("counter", counterDesign(), {2, 4, 8, 64});
    Workload w{"sim", "geomean"};
    for (auto [num, den] : {std::pair("compiled", "levelized"),
                            std::pair("levelized", "jacobi")}) {
        if (std::string(num) == "compiled" && !noCompiled.empty())
            continue;
        double logs = 0;
        for (const std::string &n : names)
            logs += std::log(median(n, num) / median(n, den));
        w.count(std::string(num) + "/" + den, "x",
                std::exp(logs / static_cast<double>(names.size())));
    }
    w.sample();

    for (const std::string &n : names) {
        gate("sim", "compiled >= levelized cycles/s on " + n, [&] {
            return median(n, "compiled") >= median(n, "levelized");
        }, noCompiled);
    }
    const sim::Engine comp = sim::Engine::Compiled;
    gate("sim", "gemm: compiled batch 1 >= 0.8x scalar compiled stimuli/s",
         [&] {
             return median("gemm", batchRow(comp, 1, 1)) >=
                    0.8 * median("gemm", "compiled") /
                        median("gemm", "cycles");
         }, noCompiled);
    gate("sim", "gemm: compiled batch 4096 >= batch 1", [&] {
        return median("gemm", batchRow(comp, 4096, 1)) >=
               median("gemm", batchRow(comp, 1, 1));
    }, noCompiled);
    const sim::Engine lev = sim::Engine::Levelized;
    unsigned usable = WorkPool::defaultThreads();
    gate("sim", "systolic_8x8: levelized batch 64 on every usable CPU >= 2x "
                "1 thread", [&] {
        return median("systolic_8x8", batchRow(lev, 64, usable)) >=
               2 * median("systolic_8x8", batchRow(lev, 64, 1));
    }, usable < 2 ? "1 usable CPU" : "");
    // The default thread count never loses to one thread (ROADMAP 3.2).
    // Batch-1 rows run one tile of the same serial code either way. A
    // batch the grain gate runs serially (the counter's) is that code
    // too, plus the gate's bookkeeping: exact >= would report noise, so
    // the bound is 0.95x, far above a spread that loses.
    if (usable < 2) {
        gate("sim", "every batch of >= 2 tiles on every usable CPU >= "
                    "0.95x 1 thread", nullptr, "1 usable CPU");
    }
    for (const SpreadRow &r : spreadRows) {
        gate("sim", r.workload + ": " + sim::engineName(r.engine) +
                        " batch " + std::to_string(r.batch) +
                        " on every usable CPU >= 0.95x 1 thread",
             [&] {
                 return median(r.workload,
                               batchRow(r.engine, r.batch, usable)) >=
                        0.95 * median(r.workload,
                                      batchRow(r.engine, r.batch, 1));
             });
    }
}

// --- Compile --------------------------------------------------------------

/** `-p all` end to end and per pass (PassRunInfo::seconds), and the
 * FSM counts of the compiled design. */
void
compileWorkload(const std::string &name, std::function<Context()> make)
{
    Workload w{"compile", name};
    Context ctx = make();
    std::vector<passes::PassRunInfo> infos = passes::runPipeline(ctx, "all");
    size_t all = w.timed("-p all", "ms", 0, nullptr);
    for (const passes::PassRunInfo &info : infos)
        w.timed(info.pass, "ms", 0, nullptr);
    table[all].sample = [make, all] {
        Context c = make();
        std::vector<passes::PassRunInfo> runs;
        double dt = timeIt([&] { runs = passes::runPipeline(c, "all"); });
        for (size_t i = 0; i < runs.size(); ++i)
            table[all + 1 + i].add(runs[i].seconds);
        return dt;
    };
    auto sum = [&](const char *row, auto field) {
        double total = 0;
        for (const auto &comp : ctx.components())
            total += static_cast<double>(fsmStats(*comp).*field);
        w.count(std::string("fsm ") + row, "count", total);
    };
    sum("machines", &FsmStats::machines);
    sum("states", &FsmStats::states);
    sum("codes", &FsmStats::codes);
    sum("transitions", &FsmStats::transitions);
    sum("counter states", &FsmStats::counterStates);
    sum("registers", &FsmStats::registers);
    sum("helper registers", &FsmStats::helperRegisters);
    sum("control registers", &FsmStats::controlRegisters);
    sum("seed registers", &FsmStats::seedRegisters);
    w.sample();
}

/**
 * §7.4, beside the paper's values: the size of the 8x8 systolic array
 * (cells, groups and control statements before compilation, lines of
 * Verilog after), and the time to compile it and gemver to Verilog.
 */
void
paperStats()
{
    const std::string sensitive = "all,-resource-sharing,-register-sharing";
    Workload sys{"compile", systolicName(8)};
    Context ctx = systolicContext(8);
    passes::DesignStats stats = passes::gatherStats(ctx);
    passes::runPipeline(ctx, sensitive);
    sys.count("cells", "count", stats.cells, 241);
    sys.count("groups", "count", stats.groups, 224);
    sys.count("control statements", "count", stats.controlStatements, 1744);
    auto verilog = emit::BackendRegistry::instance().create("verilog");
    sys.count("verilog lines", "count", countLines(verilog->emitString(ctx)),
              8906);
    sys.timed("-p " + sensitive + " -b verilog", "ms", 0, [sensitive] {
        return timeIt([&] {
            Context c = systolicContext(8);
            passes::runPipeline(c, sensitive);
            emit::BackendRegistry::instance().create("verilog")->emitString(c);
        });
    }, 700);
    sys.sample();

    Workload gemver{"compile", "gemver"};
    auto prog = std::make_shared<dahlia::Program>(
        dahlia::parse(workloads::kernel("gemver").source));
    gemver.timed("-p all -b verilog", "ms", 0, [prog] {
        return timeIt([&] { workloads::emitDesign(*prog, "all", "verilog"); });
    }, 60);
    gemver.sample();
}

void
compileRows()
{
    for (int dim : {8, 16})
        compileWorkload(systolicName(dim), [dim] {
            return systolicContext(dim);
        });
    for (const char *k : {"gemm", "atax"}) {
        auto prog = std::make_shared<dahlia::Program>(
            dahlia::parse(workloads::kernel(k).source));
        compileWorkload(k, [prog] { return dahlia::compileDahlia(*prog); });
    }
    paperStats();

    gate("compile", "every compile timing is nonzero", [] {
        return std::all_of(table.begin(), table.end(), [](const Row &r) {
            return r.file != "compile" || r.value || r.median() > 0;
        });
    });
    gate("compile", "systolic_16x16 compiles slower than systolic_8x8", [] {
        return median("systolic_16x16", "-p all") >
               median("systolic_8x8", "-p all");
    });
}

// --- Compile service ------------------------------------------------------

/** A PolyBench kernel as a renamed component, split around the digits
 * of its first 32-bit constant. */
struct KernelText
{
    std::string name, head, digits, tail;
};

KernelText
kernelText(const workloads::Kernel &k)
{
    Context ctx = dahlia::compileDahlia(dahlia::parse(k.source));
    std::string name = "poly_" + k.name, text = Printer::toString(ctx.main());
    text.replace(text.find("component main"), 14, "component " + name);
    size_t at = text.find("32'd");
    if (at == std::string::npos)
        fatal("kernel ", k.name, " has no 32-bit constant to edit");
    size_t end = text.find_first_not_of("0123456789", at + 4);
    return KernelText{name, text.substr(0, at + 4),
                      text.substr(at + 4, end - at - 4), text.substr(end)};
}

/** Every kernel, with the constant of kernel `edit` set to `value`, and
 * a main invoking each in sequence. */
std::string
assembleProgram(const std::vector<KernelText> &kernels, size_t edit,
                uint64_t value)
{
    std::string src, cells, wires, control;
    for (size_t i = 0; i < kernels.size(); ++i) {
        const KernelText &k = kernels[i];
        src += k.head + (i == edit ? std::to_string(value) : k.digits) +
               k.tail + "\n";
        std::string cell = "k" + std::to_string(i);
        std::string call = "call" + std::to_string(i);
        cells += "    " + cell + " = " + kernels[i].name + "();\n";
        wires += "    group " + call + " { " + cell + ".go = 1'd1; " + call +
                 "[done] = " + cell + ".done; }\n";
        control += " " + call + ";";
    }
    return src + "component main() -> () {\n  cells {\n" + cells +
           "  }\n  wires {\n" + wires + "  }\n  control { seq {" + control +
           " } }\n}\n";
}

/** Requests and the cold compile of each. */
struct Stream
{
    std::vector<std::string> sources, colds;
};

struct Lap
{
    double seconds = 0;
    uint64_t fromCache = 0, rawHits = 0;
};

/** Sends every request of `s` to `svc`, timing only the compiles; each
 * artifact must be byte-identical to the cold compile. */
Lap
lap(cache::CompileService &svc, const Stream &s, const std::string &name)
{
    Lap l;
    for (size_t i = 0; i < s.sources.size(); ++i) {
        cache::CompileRequest req{s.sources[i], "all"};
        cache::CompileResult res;
        l.seconds += timeIt([&] { res = svc.compile(req); });
        l.fromCache += res.componentsFromCache;
        l.rawHits += res.rawTextHit;
        if (res.artifact != s.colds[i])
            fatal("polybench_x6, ", name, ": request ", i,
                  " differs from a cold compile");
    }
    return l;
}

/**
 * Requests/s on a program of six PolyBench kernels, in twelve variants
 * that each edit one kernel's constant: cold (cache disabled), warm (the
 * variants revisited: raw-text hits) and incremental (unseen variants
 * on a fresh service: only the edited kernel and main recompile). A
 * sample is one lap over the variants; the counts are the first lap's.
 */
void
serviceRows()
{
    std::vector<KernelText> kernels;
    for (size_t k = 0; k < 6; ++k)
        kernels.push_back(kernelText(workloads::kernels()[k]));
    auto stream = [&](uint64_t base) {
        auto s = std::make_shared<Stream>();
        for (size_t v = 0; v < 2 * kernels.size(); ++v) {
            s->sources.push_back(
                assembleProgram(kernels, v % kernels.size(), base + v));
            Context ctx = Parser::parseProgram(s->sources.back());
            passes::runPipeline(ctx, "all");
            s->colds.push_back(
                emit::BackendRegistry::instance().create("calyx")->emitString(
                    ctx));
        }
        return s;
    };
    std::shared_ptr<Stream> seen = stream(100), unseen = stream(1000);

    Workload w{"service", "polybench_x6"};
    cache::CompileCache::Config off;
    off.enabled = false;
    auto cold = std::make_shared<cache::CompileService>(off);
    auto warm = std::make_shared<cache::CompileService>(
        cache::CompileCache::Config());
    lap(*warm, *seen, "warm");
    const std::pair<std::string, std::function<Lap()>> streams[] = {
        {"cold", [=] { return lap(*cold, *seen, "cold"); }},
        {"warm", [=] { return lap(*warm, *seen, "warm"); }},
        {"incremental", [=] {
             cache::CompileService fresh((cache::CompileCache::Config()));
             return lap(fresh, *unseen, "incremental");
         }},
    };
    for (const auto &[name, run] : streams) {
        Lap first = run();
        w.count(name + " components from cache", "count",
                static_cast<double>(first.fromCache));
        w.count(name + " raw-text hits", "count",
                static_cast<double>(first.rawHits));
        w.timed(name, "requests/s", static_cast<double>(seen->sources.size()),
                [run] { return run().seconds; });
    }
    w.sample();

    auto rps = [](const char *row) { return median("polybench_x6", row); };
    gate("service", "warm >= cold requests/s",
         [&] { return rps("warm") >= rps("cold"); });
    gate("service", "warm >= 5x cold requests/s",
         [&] { return rps("warm") >= 5 * rps("cold"); });
    gate("service", "incremental stream reuses cached components",
         [&] { return rps("incremental components from cache") > 0; });
}

// --- Output ---------------------------------------------------------------

/** Steal and total ticks of the cpu line of /proc/stat, or zeros. */
std::pair<double, double>
cpuTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    double f[8] = {}, total = 0;
    if (!(in >> cpu) || cpu != "cpu")
        return {0, 0};
    for (double &x : f) {
        in >> x;
        total += x;
    }
    return {f[7], total};
}

#if defined(__clang__)
const char *const kCompiler = "clang " __VERSION__;
#else
const char *const kCompiler = "gcc " __VERSION__;
#endif

/** Hardware threads, usable CPUs, compiler, build type, git revision,
 * and the steal time since `start` (cpuTicks()). */
json::Value
hostBlock(std::pair<double, double> start)
{
    ProcessResult git = runProcess({"git", "rev-parse", "HEAD"});
    auto [steal, total] = cpuTicks();
    steal -= start.first;
    total -= start.second;
    using V = json::Value;
    return object(
        {{"hardware_threads", V::number(std::thread::hardware_concurrency())},
         {"usable_cpus", V::number(WorkPool::defaultThreads())},
         {"compiler", V::str(kCompiler)},
         {"build_type", V::str(CALYX_BUILD_TYPE)},
         {"git_rev", V::str(git.ok() ? git.output.substr(0, 40) : "unknown")},
         {"steal_seconds", V::real(steal / ::sysconf(_SC_CLK_TCK))},
         {"steal_share", V::real(total > 0 ? steal / total : 0)}});
}

void
writeBench(const std::string &file, const json::Value &host)
{
    using V = json::Value;
    V rows = V::array(), list = V::array();
    for (const Row &r : table) {
        if (r.file != file)
            continue;
        V row = object({{"workload", V::str(r.workload)},
                        {"row", V::str(r.name)},
                        {"unit", V::str(r.unit)}});
        if (r.value) {
            row.set("value", V::real(*r.value));
        } else {
            row.set("median", V::real(r.median()));
            row.set("q1", V::real(r.quantile(0.25)));
            row.set("q3", V::real(r.quantile(0.75)));
            row.set("samples", V::number(r.seconds.size()));
        }
        if (r.paper)
            row.set("paper", V::real(*r.paper));
        rows.push(std::move(row));
    }
    for (const auto &[gateFile, g] : gates) {
        if (gateFile == file)
            list.push(g);
    }
    V doc = object({{"host", host}, {"rows", rows}, {"gates", list}});
    std::string path = "BENCH_" + file + ".json";
    std::ofstream out(path);
    doc.write(out);
    if (!(out << "\n").flush())
        fatal("cannot write ", path);
}

} // namespace

int
main(int argc, char **)
{
    if (argc > 1) {
        std::fprintf(stderr, "usage: bench_perf (takes no arguments)\n");
        return 2;
    }
    double start = nowSeconds();
    std::pair<double, double> ticks = cpuTicks();
    noCompiled = sim::compiledEngineUnavailableReason();
    try {
        simRows();
        compileRows();
        serviceRows();
        json::Value host = hostBlock(ticks);
        for (const char *file : {"sim", "compile", "service"})
            writeBench(file, host);
    } catch (const Error &e) {
        std::fprintf(stderr, "bench_perf: %s\n", e.what());
        return 1;
    }
    std::printf("bench_perf: %d gate(s) failed; %.1f s\n", failedGates,
                nowSeconds() - start);
    return failedGates ? 1 : 0;
}
