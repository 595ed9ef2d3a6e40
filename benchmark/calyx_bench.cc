/**
 * @file
 * calyx_bench: the repository benchmark (benchmark/README.md). One
 * process measures one workload with the compiler's default options:
 *
 *   setup     edit-to-ready: frontend, `-p all`, SimProgram, scalar
 *             compiled module loaded, each sample in a fresh, empty JIT
 *             cache so the host C++ build is included
 *   compile   frontend, `-p all`, `verilog` backend
 *   sim       one stimulus at a time, compiled engine, then levelized
 *   batch     a resident BatchRunner, batches of 64
 *   serve     a real `futil -p all --serve` child answering a closed-loop
 *             stream of run and compile requests over pipes
 *
 * Every output is checked: systolic results against a naive matmul,
 * PolyBench results against the Dahlia AST interpreter, compile
 * artifacts against a cold compile. With `--trace 1` the same phases
 * record spans at the layer boundaries and the run adds per-layer
 * diagnostics; its last line then carries the per-layer metrics.
 *
 * Usage:
 *   calyx_bench --workload W --seed N --seconds S --trace 0|1
 *               --futil PATH --work DIR --results DIR [--rev REV]
 *   calyx_bench --compare A B --spec BENCHMARK.json
 *
 * The last line of stdout is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}. The full results, with every raw sample and the
 * host block, go to DIR/<workload>-seed<N>-<plain|trace>-<pid>.result.json.
 * The exit code is 1 when any checked operation failed.
 */
#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "emit/backend.h"
#include "emit/cppsim.h"
#include "estimate/area.h"
#include "ir/fsm.h"
#include "ir/parser.h"
#include "passes/pipeline_spec.h"
#include "sim/batch.h"
#include "sim/compiled.h"
#include "sim/cycle_sim.h"
#include "sim/schedule.h"
#include "support/error.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/pool.h"
#include "support/time.h"

#include "serve_client.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace fs = std::filesystem;
using namespace calyx;
using namespace calyx::bench;

namespace {

constexpr const char *kPipeline = "all";

/** The passes of `all`, in pipeline order: one per-layer row each. */
const std::vector<std::string> kPasses = {
    "well-formed",   "collapse-control", "infer-latency",
    "resource-sharing", "register-sharing", "static",
    "go-insertion",  "compile-control",  "remove-groups",
    "dead-cell-removal"};

/** Seeded stimuli (with oracle outputs) per workload. */
constexpr size_t kCases = 4;
/** Set-up samples: at most this many, and none started once the
 * set-ups so far took kSetupBudget seconds (systolic-16's cold host
 * build alone takes longer, so it sets up once per run). */
constexpr int kSetupSamples = 3;
constexpr double kSetupBudget = 15;
/** Every time-sliced phase takes at least this many samples. */
constexpr size_t kMinSamples = 3;
/** Rounds the measured phases are interleaved in. */
constexpr int kRounds = 12;
constexpr size_t kBatch = 64;
/** No serve response may take longer than this. */
constexpr double kServeTimeout = 60;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 15;
    bool trace = false;
    std::string futil, work, results, rev = "unknown";
    std::string compareA, compareB, spec;
};

/** Checked operations: every compile, stimulus, lane and request. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors; ///< The first few failures.

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (errors.size() < 20)
            errors.push_back(what);
        std::fprintf(stderr, "calyx_bench: FAILED: %s\n", what.c_str());
    }
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
    std::vector<double> samples; ///< Raw samples; empty for one-shot values.
};

struct Report
{
    std::vector<Metric> metrics;

    void
    add(const std::string &name, const std::string &unit, double value,
        std::vector<double> samples = {})
    {
        metrics.push_back({name, unit, value, std::move(samples)});
    }

    const Metric &
    at(const std::string &name) const
    {
        for (const Metric &m : metrics)
            if (m.name == name)
                return m;
        fatal("no metric ", name);
    }

    /** A per-layer timing: the median of its samples. */
    void
    addSamples(const std::string &name, const std::string &unit,
               std::vector<double> samples)
    {
        double m = summarize(samples).median;
        add(name, unit, m, std::move(samples));
    }

    /** An end-to-end timing or rate: its best sample (see measure()). */
    void
    addBest(const std::string &name, const std::string &unit,
            std::vector<double> samples, bool lower_is_better)
    {
        auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
        double best = samples.empty() ? 0 : lower_is_better ? *lo : *hi;
        add(name, unit, best, std::move(samples));
    }
};

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

double
seconds(double t0)
{
    return nowSeconds() - t0;
}

double
median(const std::vector<double> &v)
{
    return summarize(v).median;
}

/** Write `s` into the program's memories, zero-filling the rest of each
 * named memory (unnamed memories keep their contents). */
void
poke(const sim::SimProgram &sp, const sim::Stimulus &s)
{
    for (const auto &[path, words] : s.mems) {
        std::vector<uint64_t> *mem = sp.findModel(Symbol(path))->memory();
        if (!mem)
            fatal(path, " is not a memory");
        std::fill(mem->begin(), mem->end(), 0);
        std::copy_n(words.begin(), std::min(words.size(), mem->size()),
                    mem->begin());
    }
}

/** "" when every expected image matches what `lookup` returns. */
template <typename Lookup>
std::string
mismatch(const std::vector<MemImage> &expect, Lookup lookup)
{
    for (const auto &[path, words] : expect) {
        const std::vector<uint64_t> *got = lookup(path);
        if (!got)
            return path + ": memory missing from the result";
        if (got->size() < words.size() ||
            !std::equal(words.begin(), words.end(), got->begin()))
            return path + ": contents differ from the oracle";
    }
    return "";
}

std::string
scalarMismatch(const sim::SimProgram &sp, const Case &c)
{
    return mismatch(c.expect, [&](const std::string &path) {
        return static_cast<const std::vector<uint64_t> *>(
            sp.findModel(Symbol(path))->memory());
    });
}

/** Batch of `n` stimuli cycling through the cases from `first`. */
std::vector<sim::Stimulus>
makeBatch(const Workload &w, size_t n, size_t first)
{
    std::vector<sim::Stimulus> batch;
    for (size_t i = 0; i < n; ++i)
        batch.push_back(w.cases[(first + i) % w.cases.size()].stimulus);
    return batch;
}

/** Run one batch, checking every lane; returns the seconds it took. */
double
timedBatch(sim::BatchRunner &runner, const Workload &w, size_t n,
           size_t first, Tally &tally)
{
    std::vector<sim::Stimulus> batch = makeBatch(w, n, first);
    double t0 = nowSeconds();
    std::vector<sim::LaneResult> lanes = runner.run(batch);
    double dt = seconds(t0);
    std::unordered_map<std::string, size_t> slot;
    for (size_t m = 0; m < runner.memPaths().size(); ++m)
        slot[runner.memPaths()[m]] = m;
    for (size_t i = 0; i < lanes.size(); ++i) {
        const Case &c = w.cases[(first + i) % w.cases.size()];
        std::string bad =
            mismatch(c.expect, [&](const std::string &path) {
                auto it = slot.find(path);
                return it == slot.end() ? nullptr
                                        : &lanes[i].mems[it->second];
            });
        tally.check(bad.empty(), "batch lane: " + bad);
    }
    tally.check(lanes.size() == n, "batch: lane count");
    return dt;
}

std::string
runPayload(const Workload &w, const std::vector<size_t> &cases)
{
    std::string p = "{\"type\": \"run\", \"batch\": [";
    for (size_t i = 0; i < cases.size(); ++i) {
        p += i ? ", {\"mems\": {" : "{\"mems\": {";
        const sim::Stimulus &s = w.cases[cases[i]].stimulus;
        for (size_t m = 0; m < s.mems.size(); ++m) {
            p += (m ? ", " : "") + quote(s.mems[m].first) + ": [";
            for (size_t k = 0; k < s.mems[m].second.size(); ++k)
                p += (k ? "," : "") + std::to_string(s.mems[m].second[k]);
            p += "]";
        }
        p += "}}";
    }
    return p + "]}";
}

std::string
compilePayload(const std::string &source)
{
    return "{\"type\": \"compile\", \"pipeline\": \"" +
           std::string(kPipeline) + "\", \"source\": " + quote(source) +
           "}";
}

/** "" when a run response holds the oracle's images for every lane. */
std::string
runResponseMismatch(const json::Value &res, const Workload &w,
                    const std::vector<size_t> &cases)
{
    const json::Value &lanes = res.at("result").at("lanes");
    if (lanes.items().size() != cases.size())
        return "lane count";
    for (size_t i = 0; i < cases.size(); ++i) {
        const json::Value &mems = lanes.items()[i].at("mems");
        std::vector<uint64_t> words;
        std::string bad =
            mismatch(w.cases[cases[i]].expect, [&](const std::string &path)
                         -> const std::vector<uint64_t> * {
                const json::Value *arr = mems.find(path);
                if (!arr)
                    return nullptr;
                words.clear();
                for (const json::Value &v : arr->items())
                    words.push_back(v.asNum());
                return &words;
            });
        if (!bad.empty())
            return bad;
    }
    return "";
}

/** Cold reference artifact: a fresh parse, `-p all`, calyx emit. */
Hash128
coldArtifact(const std::string &source)
{
    Context ctx = Parser::parseProgram(source);
    passes::runPipeline(ctx, kPipeline);
    return contentHash(
        emit::BackendRegistry::instance().create("calyx")->emitString(ctx));
}

/**
 * The serve phase: a seeded, closed-loop request stream answered by
 * `futil -p all --serve`. The stream is planned up front and replayed,
 * request for request, to two server sessions; a request's latency is
 * the lower of its two, each timed from frame write to the whole
 * response read. Both sessions see the same requests in the same order,
 * so they do the same work, and the lower time drops most of a shared
 * host's intermittent slowdowns (benchmark/README.md, "Noise"). The
 * stream's composition is fixed per workload (Workload::mix, run batch
 * sizes 1, 4 and 16 in equal shares); the seed chooses the order, the
 * stimuli, and which literal each fresh compile edits to what value.
 */
class ServeStream
{
  public:
    static constexpr int kSessions = 2;

    ServeStream(const Options &opt, const Workload &w, Tracer &tr,
                Tally &tally);
    ~ServeStream();

    size_t length() const { return plan.size(); }
    pid_t serverPid(int s) const { return sessions[s].client->processId(); }

    /** Send session `s` the stream's requests up to `upTo`. */
    void send(int s, size_t upTo);

    /** Stats, shutdown, the artifact checks, and the combined latencies
     * below. */
    void finish();

    double startup = 0; ///< Spawn to the first ping answer, session 0.
    std::vector<double> all, runMs, hitMs, missMs, serverMs, runBytes;
    uint64_t lanesEvaluated = 0, lanesPadded = 0;
    json::Value stats; ///< The `serve` object of session 0's stats.

  private:
    enum Kind { Run, Hit, Miss };

    struct Planned
    {
        Kind kind;
        std::vector<size_t> cases; ///< Run: the stimuli.
        size_t variant = 0;        ///< Compile: index into `variants`.
    };

    struct Session
    {
        std::unique_ptr<ServeClient> client;
        bool alive = false;
        size_t sent = 0;
        std::vector<double> ms;       ///< Per planned request.
        std::vector<double> serverMs; ///< Per planned compile request.
        std::vector<std::pair<size_t, Hash128>> artifacts; ///< (variant, hash)
    };

    size_t freshVariant();
    std::string payload(const Planned &p) const;
    const json::Value *request(Session &s, int64_t id,
                               const std::string &payload, double &ms);

    const Workload &w;
    Tracer &tr;
    Tally &tally;
    Rng rng;
    /// Variants are (literal, value) edits; variant 0 is the design.
    std::vector<std::string> variants;
    std::set<std::pair<size_t, uint64_t>> seen;
    std::vector<Planned> plan;
    Session sessions[kSessions];
    std::string file, response, error;
    json::Value parsed;
};

ServeStream::ServeStream(const Options &opt, const Workload &w, Tracer &tr,
                         Tally &tally)
    : w(w), tr(tr), tally(tally), rng(opt.seed, w.name + "/serve"),
      variants{w.source}
{
    // Run batch sizes 1, 4 and 16 in equal shares: like the request
    // kinds, a fixed composition keeps the percentiles on the same kind
    // of request from one seed to the next.
    static const uint32_t sizes[] = {1, 4, 16};
    for (int i = 0; i < w.mix.runs; ++i)
        plan.push_back({Run, std::vector<size_t>(sizes[i % 3]), 0});
    plan.insert(plan.end(), w.mix.hits, Planned{Hit, {}, 0});
    plan.insert(plan.end(), w.mix.misses, Planned{Miss, {}, 0});
    for (size_t i = plan.size(); i > 1; --i)
        std::swap(plan[i - 1], plan[rng.below(i)]);
    // Variant 1 is compiled in the warm-up, so the first revisit has
    // something to hit.
    freshVariant();
    const uint32_t tile = sim::BatchOptions{}.laneTile;
    for (Planned &p : plan) {
        if (p.kind == Run) {
            for (size_t &c : p.cases)
                c = rng.below(w.cases.size());
            uint64_t lanes = (p.cases.size() + tile - 1) / tile * tile;
            lanesEvaluated += lanes;
            lanesPadded += lanes - p.cases.size();
        } else {
            p.variant = p.kind == Hit ? 1 + rng.below(variants.size() - 1)
                                      : freshVariant();
        }
    }

    std::string stem = opt.work + "/serve-" + std::to_string(getpid());
    file = stem + ".futil";
    {
        std::ofstream out(file);
        out << w.source;
    }
    unsetenv("CALYX_COMPILE_CACHE"); // memory-only compile cache
    for (int s = 0; s < kSessions; ++s) {
        Session &ss = sessions[s];
        ss.ms.assign(plan.size(), std::numeric_limits<double>::infinity());
        ss.serverMs = ss.ms;
        double t0 = nowSeconds();
        ss.client = std::make_unique<ServeClient>(
            std::vector<std::string>{opt.futil, "-p", kPipeline, "--serve",
                                     file},
            stem + "-" + std::to_string(s) + ".log");
        ss.alive = ss.client->exchange("{\"type\": \"ping\"}", response,
                                       kServeTimeout, error);
        if (s == 0)
            startup = seconds(t0);
        tally.check(ss.alive, "serve: startup: " + error);

        // Untimed warm-up: the lane module, the design's compile, and
        // variant 1.
        double ignored;
        std::vector<size_t> one = {0};
        if (const json::Value *r = request(ss, -1, runPayload(w, one), ignored))
            tally.check(runResponseMismatch(*r, w, one).empty(),
                        "serve: warm-up run");
        for (size_t v : {0, 1}) {
            if (const json::Value *r =
                    request(ss, -1, compilePayload(variants[v]), ignored))
                ss.artifacts.emplace_back(
                    v, contentHash(r->at("result").at("artifact").asStr()));
        }
    }
}

ServeStream::~ServeStream()
{
    std::remove(file.c_str());
}

size_t
ServeStream::freshVariant()
{
    for (;;) {
        size_t li = rng.below(w.literals.size());
        const Literal &lit = w.literals[li];
        uint64_t range = lit.width >= 32 ? 1000 : (1ull << lit.width);
        uint64_t v = rng.below(range);
        if (v == lit.value || !seen.insert({li, v}).second)
            continue;
        variants.push_back(editLiteral(w.source, lit, v));
        return variants.size() - 1;
    }
}

std::string
ServeStream::payload(const Planned &p) const
{
    return p.kind == Run ? runPayload(w, p.cases)
                         : compilePayload(variants[p.variant]);
}

/** One closed-loop exchange, timed from frame write to the whole
 * response read. A failed request counts as +inf; once a server is gone
 * every later request to it fails. */
const json::Value *
ServeStream::request(Session &s, int64_t id, const std::string &payload,
                     double &ms)
{
    ms = std::numeric_limits<double>::infinity();
    std::string what = "serve: request " + std::to_string(id);
    if (!s.alive) {
        tally.check(false, what + ": the server is gone");
        return nullptr;
    }
    Span span(tr, "serve.request", id);
    double a = nowSeconds();
    s.alive = s.client->exchange(payload, response, kServeTimeout, error);
    double b = nowSeconds();
    if (!s.alive) {
        tally.check(false, what + ": " + error);
        return nullptr;
    }
    try {
        parsed = json::parse(response);
        if (parsed.at("ok").asBool()) {
            ms = (b - a) * 1e3;
            return &parsed;
        }
        error = parsed.at("error").asStr();
    } catch (const Error &e) {
        error = e.what();
    }
    tally.check(false, what + " rejected: " + error);
    return nullptr;
}

void
ServeStream::send(int s, size_t upTo)
{
    Session &ss = sessions[s];
    for (; ss.sent < std::min(upTo, plan.size()); ++ss.sent) {
        size_t id = ss.sent;
        const Planned &p = plan[id];
        const json::Value *r =
            request(ss, static_cast<int64_t>(id), payload(p), ss.ms[id]);
        if (!r)
            continue;
        if (p.kind == Run) {
            if (s == 0)
                runBytes.push_back(static_cast<double>(response.size()));
            std::string bad = runResponseMismatch(*r, w, p.cases);
            tally.check(bad.empty(), "serve: run: " + bad);
        } else {
            const json::Value &res = r->at("result");
            ss.artifacts.emplace_back(
                p.variant, contentHash(res.at("artifact").asStr()));
            ss.serverMs[id] = res.at("compile_ms").asReal();
        }
    }
}

void
ServeStream::finish()
{
    for (int s = 0; s < kSessions; ++s) {
        Session &ss = sessions[s];
        double ignored;
        if (const json::Value *r =
                request(ss, -1, "{\"type\": \"stats\"}", ignored);
            r && s == 0)
            stats = r->at("result").at("serve");
        request(ss, -1, "{\"type\": \"shutdown\"}", ignored);
        int code = ss.client->finish(kServeTimeout);
        tally.check(code == 0,
                    "serve: futil exited with " + std::to_string(code));
    }

    // Every artifact must equal a cold compile of its variant. The
    // references are independent compiles, so they run on every CPU.
    std::map<size_t, Hash128> cold;
    for (const Session &ss : sessions)
        for (const auto &a : ss.artifacts)
            cold[a.first] = Hash128{};
    std::vector<std::map<size_t, Hash128>::iterator> todo;
    for (auto it = cold.begin(); it != cold.end(); ++it)
        todo.push_back(it);
    WorkPool::global().parallelFor(
        todo.size(), WorkPool::defaultThreads(), [&](size_t i) {
            todo[i]->second = coldArtifact(variants[todo[i]->first]);
        });
    for (const Session &ss : sessions) {
        for (const auto &[v, h] : ss.artifacts) {
            tally.check(h == cold[v], "serve: compile artifact of variant " +
                                          std::to_string(v) +
                                          " differs from a cold compile");
        }
    }

    // The lower of the two sessions' times; +inf if either failed.
    const double inf = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < plan.size(); ++i) {
        double a = sessions[0].ms[i], b = sessions[1].ms[i];
        double ms = a == inf || b == inf ? inf : std::min(a, b);
        all.push_back(ms);
        if (plan[i].kind == Run) {
            runMs.push_back(ms);
            continue;
        }
        (plan[i].kind == Hit ? hitMs : missMs).push_back(ms);
        serverMs.push_back(
            std::min(sessions[0].serverMs[i], sessions[1].serverMs[i]));
    }
}

/**
 * Rotates the measured rounds over the CPUs the process may use. On a
 * shared host one virtual CPU can run much slower than the others for
 * seconds to minutes at a time; a thread the scheduler leaves on it
 * would report that CPU instead of the code. Pinning each round to the
 * next CPU in turn spreads every phase's samples over all of them, so a
 * slow CPU moves a minority of the samples and not the median.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&all);
        sched_getaffinity(0, sizeof all, &all);
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &all))
                cpus.push_back(c);
    }
    ~CpuRotation() { release(); }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin the calling thread, and process `other` when > 0, to the
     * CPU of round `round`. */
    void
    pin(int round, pid_t other)
    {
        if (cpus.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[static_cast<size_t>(round) % cpus.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
        if (other > 0)
            sched_setaffinity(other, sizeof one, &one);
        pinned = other;
    }

    /** Back to every CPU, for the calling thread and the last `other`. */
    void
    release()
    {
        sched_setaffinity(0, sizeof all, &all);
        if (pinned > 0)
            sched_setaffinity(pinned, sizeof all, &all);
        pinned = -1;
    }

  private:
    cpu_set_t all;
    std::vector<int> cpus;
    pid_t pinned = -1;
};

/**
 * The state shared by the phases of one run.
 */
struct Bench
{
    Options opt;
    Workload w;
    Tracer tr;
    Tally tally;
    Report e2e;   ///< End-to-end metrics (traced values in a traced run).
    Report layer; ///< Per-layer metrics (traced run only).
    std::vector<KernelQor> qor;
    std::string jitDir;

    /// The compiled design every simulation phase shares.
    std::unique_ptr<Context> design;
    std::unique_ptr<sim::SimProgram> sp;
    uint64_t designCycles = 0;
    Hash128 verilogHash;
    std::unique_ptr<emit::Backend> verilog;
    size_t nextCase = 1;

    // Per-layer samples gathered by the phases.
    std::vector<double> generateS, parseS, passesS, verilogS;
    std::map<std::string, std::vector<double>> passS;
    std::vector<double> programBuildS, scheduleBuildS, jitColdS, jitDiskS;
    size_t verilogBytes = 0;
    uint64_t moduleLoads = 0;
    double peakRssMb = 0;

    Bench(Options o)
        : opt(std::move(o)), tr(opt.trace, opt.workload),
          jitDir(opt.work + "/jit"),
          verilog(emit::BackendRegistry::instance().create("verilog"))
    {}

    void useJitDir(const std::string &dir)
    {
        fs::create_directories(dir);
        setenv("CALYX_CPPSIM_CACHE", dir.c_str(), 1);
    }

    /** Frontend, parse and `-p all`, recording one span per layer and
     * one per pass. */
    std::unique_ptr<Context> frontToPasses()
    {
        double t0 = nowSeconds();
        std::string src = generateSource(w.name);
        double t1 = nowSeconds();
        auto ctx = std::make_unique<Context>(Parser::parseProgram(src));
        double t2 = nowSeconds();
        tr.record("frontends.generate", t0, t1);
        tr.record("ir.parse", t1, t2);
        generateS.push_back(t1 - t0);
        parseS.push_back(t2 - t1);

        Span span(tr, "passes");
        std::vector<passes::PassRunInfo> infos =
            passes::runPipeline(*ctx, kPipeline);
        double t3 = nowSeconds();
        passesS.push_back(t3 - t2);
        double at = t2;
        for (const passes::PassRunInfo &info : infos) {
            tr.record("passes." + info.pass, at, at + info.seconds);
            at += info.seconds;
            passS[info.pass].push_back(info.seconds);
        }
        return ctx;
    }

    /** Run one case on `cs`, check it against the oracle, and return its
     * cycles; the run alone is added to `busy`. */
    uint64_t runCase(sim::CycleSim &cs, const Case &c, double &busy)
    {
        poke(*sp, c.stimulus);
        double t0 = nowSeconds();
        uint64_t cycles = cs.run();
        busy += seconds(t0);
        std::string bad = scalarMismatch(*sp, c);
        tally.check(bad.empty(),
                    std::string(sim::engineName(cs.state().engine())) +
                        " sim: " + bad);
        return cycles;
    }

    void setup();
    void prepareDesign();
    double compileSample();
    double simSample(sim::CycleSim &cs, int stimuli);
    void measure();
    void diagnostics(const ServeStream &serve);
    int finish();
};

void
Bench::setup()
{
    std::vector<double> samples;
    double spent = 0;
    int max = opt.trace ? 1 : kSetupSamples;
    for (int i = 0; i < max && spent < kSetupBudget; ++i) {
        std::string dir = opt.work + "/setup-" + std::to_string(getpid()) +
                          "-" + std::to_string(i);
        fs::remove_all(dir);
        useJitDir(dir);
        std::unique_ptr<Context> ctx;
        std::unique_ptr<sim::SimProgram> prog;
        double t0 = nowSeconds();
        {
            Span span(tr, "setup");
            ctx = frontToPasses();
            double a = nowSeconds();
            prog = std::make_unique<sim::SimProgram>(*ctx,
                                                     ctx->entrypoint());
            double b = nowSeconds();
            prog->schedule();
            double c = nowSeconds();
            prog->compiledModule();
            double d = nowSeconds();
            tr.record("sim.program_build", a, b);
            tr.record("sim.schedule_build", b, c);
            tr.record("sim.jit_cold", c, d);
            programBuildS.push_back(b - a);
            scheduleBuildS.push_back(c - b);
            jitColdS.push_back(d - c);
        }
        double dt = seconds(t0);
        samples.push_back(dt);
        spent += dt;

        // Untimed: the freshly built module must compute the right
        // answer.
        {
            sim::CycleSim cs(*prog, sim::Engine::Compiled);
            poke(*prog, w.cases[0].stimulus);
            cs.run();
            std::string bad = scalarMismatch(*prog, w.cases[0]);
            tally.check(bad.empty(), "setup: " + bad);
        }
        if (opt.trace) {
            // A fresh SimProgram over the same design: the module is
            // no longer resident, so the load comes from the disk cache.
            prog.reset();
            sim::SimProgram again(*ctx, ctx->entrypoint());
            double a = nowSeconds();
            auto mod = sim::CompiledModule::load(again);
            double b = nowSeconds();
            tr.record("sim.jit_disk_load", a, b);
            jitDiskS.push_back(b - a);
            tally.check(mod->fromCache(),
                        "setup: second load did not come from disk");
        }
        prog.reset();
        ctx.reset();
        fs::remove_all(dir);
    }
    e2e.addSamples("setup_s", "s", samples);
    useJitDir(jitDir);
    std::fprintf(stderr, "calyx_bench: setup %zu samples, median %.3f s\n",
                 samples.size(), median(samples));
}

/** Untimed: the reference compile, which is also the design every
 * simulation phase shares, and its QoR. */
void
Bench::prepareDesign()
{
    design = frontToPasses();
    std::string reference = verilog->emitString(*design);
    verilogHash = contentHash(reference);
    verilogBytes = reference.size();
    sp = std::make_unique<sim::SimProgram>(*design, design->entrypoint());
    generateS.clear();
    parseS.clear();
    passesS.clear();
    passS.clear();
    estimate::AreaEstimator est(*design);
    e2e.add("design_luts", "LUTs", est.estimateProgram().luts);
}

double
Bench::compileSample()
{
    double t0 = nowSeconds();
    std::string text;
    {
        Span span(tr, "compile");
        std::unique_ptr<Context> ctx = frontToPasses();
        double a = nowSeconds();
        text = verilog->emitString(*ctx);
        double b = nowSeconds();
        tr.record("emit.verilog", a, b);
        verilogS.push_back(b - a);
    }
    double dt = seconds(t0);
    tally.check(contentHash(text) == verilogHash,
                "compile: Verilog differs from the reference compile");
    return dt;
}

double
Bench::simSample(sim::CycleSim &cs, int stimuli)
{
    Span span(tr, cs.state().engine() == sim::Engine::Compiled
                      ? "sim.compiled_run"
                      : "sim.levelized_run");
    span.setCount(static_cast<uint64_t>(stimuli));
    double busy = 0;
    uint64_t cycles = 0;
    for (int k = 0; k < stimuli; ++k)
        cycles += runCase(cs, w.cases[nextCase++ % w.cases.size()], busy);
    return static_cast<double>(cycles) / busy;
}

/**
 * The measured phases, interleaved: kRounds rounds, each giving every
 * time-sliced phase samples until it has used its share of the round
 * (and at least one), then sending the next chunk of the serve stream.
 * Slow drift of a shared host then spreads over every metric instead of
 * landing on whichever phase happened to run during it, and each round
 * runs on the next CPU (CpuRotation).
 */
void
Bench::measure()
{
    ServeStream serve(opt, w, tr, tally);

    // Untimed warm-ups.
    sim::CycleSim compiledSim(*sp, sim::Engine::Compiled);
    sim::CycleSim levelizedSim(*sp, sim::Engine::Levelized);
    double ignored = 0;
    designCycles = runCase(compiledSim, w.cases[0], ignored);
    tally.check(runCase(levelizedSim, w.cases[0], ignored) == designCycles,
                "levelized cycle count differs from compiled");
    sim::BatchRunner runner(*sp, sim::BatchOptions{});
    timedBatch(runner, w, runner.options().laneTile, 0, tally);
    size_t nextBatch = 1;

    struct Phase
    {
        const char *metric;
        const char *unit;
        bool lowerIsBetter;
        std::function<double()> sample;
        /// Untimed, before each round's samples: a compiled sim sample
        /// is short enough for the caches the other phases evicted to
        /// show.
        std::function<void()> warm;
    };
    const std::vector<Phase> phases = {
        {"compile_s", "s", true, [&] { return compileSample(); }, nullptr},
        {"sim_cps", "cycles/s", false,
         [&] { return simSample(compiledSim, w.compiledStimuliPerSample); },
         [&] { runCase(compiledSim, w.cases[0], ignored); }},
        {"levelized_cps", "cycles/s", false,
         [&] { return simSample(levelizedSim, 1); }, nullptr},
        {"batch_sps", "stimuli/s", false,
         [&] {
             Span span(tr, "batch.run");
             span.setCount(kBatch);
             return static_cast<double>(kBatch) /
                    timedBatch(runner, w, kBatch, nextBatch++, tally);
         },
         nullptr},
    };
    std::vector<std::vector<double>> values(phases.size());
    std::vector<double> used(phases.size(), 0);
    const double share = opt.seconds / 8;
    CpuRotation rotation;
    // Serve session 0 gets the stream in the first half of the rounds,
    // session 1 the same stream in the second half.
    const int half = kRounds / 2;
    for (int r = 1; r <= kRounds; ++r) {
        int session = r <= half ? 0 : 1;
        rotation.pin(r - 1, serve.serverPid(session));
        for (size_t i = 0; i < phases.size(); ++i) {
            const Phase &p = phases[i];
            double target = share * r / kRounds;
            bool first = true;
            while (used[i] < target ||
                   (r == kRounds && values[i].size() < kMinSamples)) {
                double t0 = nowSeconds();
                if (first && p.warm)
                    p.warm();
                first = false;
                values[i].push_back(p.sample());
                used[i] += seconds(t0);
            }
        }
        serve.send(session, serve.length() *
                                static_cast<size_t>(r - session * half) /
                                static_cast<size_t>(half));
    }
    rotation.release();
    // Before the reference compiles serve.finish() runs in parallel.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    serve.finish();

    for (size_t i = 0; i < phases.size(); ++i) {
        const Phase &p = phases[i];
        std::fprintf(stderr, "calyx_bench: %s %zu samples, median %.6g %s\n",
                     p.metric, values[i].size(), median(values[i]), p.unit);
        e2e.addBest(p.metric, p.unit, std::move(values[i]), p.lowerIsBetter);
    }
    e2e.add("design_cycles", "cycles", static_cast<double>(designCycles));
    e2e.add("serve_p50_ms", "ms", percentile(serve.all, 50), serve.all);
    e2e.add("serve_p95_ms", "ms", percentile(serve.all, 95));
    std::fprintf(stderr, "calyx_bench: serve %zu requests, p50 %.2f ms, "
                         "p95 %.2f ms\n",
                 serve.all.size(), percentile(serve.all, 50),
                 percentile(serve.all, 95));
    moduleLoads = runner.moduleLoads();
    if (opt.trace)
        diagnostics(serve);
}

/** One run on `state` with the same loop as CycleSim::run, stopped after
 * `cap` seconds; per-call timing of comb() and clock() when `split`. */
struct LoopResult
{
    uint64_t cycles = 0;
    bool done = false;
    double seconds = 0, comb = 0, clock = 0;
    uint64_t evals = 0;
};

void
activateAll(sim::SimState &state, const sim::SimProgram::Instance &inst)
{
    state.activate(inst.continuous);
    for (const auto &sub : inst.subs)
        activateAll(state, *sub);
}

LoopResult
ownLoop(sim::SimState &state, double cap, bool split)
{
    const sim::SimProgram::Instance &top = state.program().root();
    LoopResult r;
    state.reset();
    double start = nowSeconds();
    double deadline = start + cap;
    while (!r.done) {
        ++r.cycles;
        state.beginCycle();
        state.force(top.goPort, 1);
        activateAll(state, top);
        if (split) {
            double a = nowSeconds();
            r.evals += static_cast<uint64_t>(state.comb());
            double b = nowSeconds();
            r.done = state.value(top.donePort) & 1;
            state.clock();
            double c = nowSeconds();
            r.comb += b - a;
            r.clock += c - b;
        } else {
            r.evals += static_cast<uint64_t>(state.comb());
            r.done = state.value(top.donePort) & 1;
            state.clock();
        }
        if ((r.cycles & 63) == 0 && nowSeconds() > deadline)
            break;
    }
    r.seconds = seconds(start);
    return r;
}

void
Bench::diagnostics(const ServeStream &serve)
{
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());

    // Codegen alone, without the host build.
    std::vector<double> cppsimS;
    size_t cppsimBytes = 0;
    for (int i = 0; i < 3; ++i) {
        std::ostringstream os;
        double a = nowSeconds();
        emit::emitCppSim(*sp, os);
        double b = nowSeconds();
        tr.record("emit.cppsim", a, b);
        cppsimS.push_back(b - a);
        cppsimBytes = os.str().size();
    }

    // Per-cycle costs, one stimulus per engine.
    struct PerCycle
    {
        double comb = 0, clock = 0, evals = 0;
    };
    std::map<sim::Engine, PerCycle> perCycle;
    for (sim::Engine e : {sim::Engine::Compiled, sim::Engine::Levelized}) {
        sim::SimState state(*sp, e);
        poke(*sp, w.cases[0].stimulus);
        Span span(tr, e == sim::Engine::Compiled ? "sim.compiled_cycles"
                                                 : "sim.levelized_cycles");
        LoopResult r = ownLoop(state, 5, true);
        span.setCount(r.cycles);
        double n = static_cast<double>(r.cycles);
        perCycle[e] = {r.comb / n * 1e9, r.clock / n * 1e9,
                       static_cast<double>(r.evals) / n};
        if (r.done) {
            std::string bad = scalarMismatch(*sp, w.cases[0]);
            tally.check(bad.empty(), "own loop: " + bad);
        }
    }

    // Threaded diagnostics: partitioned single-stimulus runs and
    // multi-threaded batches. Never more threads than the host has.
    std::map<std::string, double> threaded;
    for (unsigned t : {2u, 4u}) {
        unsigned th = std::min(t, hw);
        std::string suffix = "_t" + std::to_string(t);
        for (sim::Engine e : {sim::Engine::Compiled, sim::Engine::Levelized}) {
            sim::SimState state(*sp, e);
            state.setThreads(th);
            // Untimed: the partition plan and the partitioned module.
            ownLoop(state, 0.5, false);
            std::vector<double> cps;
            double until = nowSeconds() + 2;
            while (cps.size() < kMinSamples && nowSeconds() < until) {
                poke(*sp, w.cases[0].stimulus);
                Span span(tr, "sim.partitioned_run");
                LoopResult r = ownLoop(state, 2, false);
                span.setCount(r.cycles);
                cps.push_back(static_cast<double>(r.cycles) / r.seconds);
                if (r.done) {
                    std::string bad = scalarMismatch(*sp, w.cases[0]);
                    tally.check(bad.empty(), "partitioned: " + bad);
                }
            }
            threaded[std::string("sim.") + sim::engineName(e) + "_cps" +
                     suffix] = median(cps);
        }
        sim::BatchOptions bo;
        bo.threads = th;
        sim::BatchRunner runner(*sp, bo);
        // Warm up with a full batch: a single tile would move the
        // threads inside it and build a different module.
        timedBatch(runner, w, kBatch, 0, tally);
        std::vector<double> sps;
        for (size_t s = 1; s <= 2; ++s) {
            Span span(tr, "batch.threaded_run");
            sps.push_back(static_cast<double>(kBatch) /
                          timedBatch(runner, w, kBatch, s, tally));
        }
        threaded["batch.sps_b64" + suffix] = median(sps);
    }

    // Batch sizes on a default runner.
    std::map<size_t, double> sizes;
    {
        sim::BatchRunner runner(*sp, sim::BatchOptions{});
        timedBatch(runner, w, 1, 0, tally);
        for (size_t n : {1, 16, 256}) {
            std::vector<double> sps;
            for (int i = 0; i < (n == 256 ? 1 : 3); ++i) {
                Span span(tr, "batch.size_run");
                span.setCount(n);
                sps.push_back(static_cast<double>(n) /
                              timedBatch(runner, w, n, i, tally));
            }
            sizes[n] = median(sps);
        }
    }

    // Quality of results against the HLS model.
    qor = kernelQor(w.name, opt.seed, designCycles,
                    e2e.at("design_luts").value);
    double hlsCycles = 0, hlsLuts = 0;
    std::vector<double> slow, bigger;
    for (const KernelQor &k : qor) {
        hlsCycles += static_cast<double>(k.hlsCycles);
        hlsLuts += k.hlsLuts;
        slow.push_back(static_cast<double>(k.cycles) /
                       static_cast<double>(k.hlsCycles));
        bigger.push_back(k.luts / k.hlsLuts);
    }

    // The per-layer rows, in BENCHMARK.json order.
    layer.addSamples("frontends.generate_s", "s", generateS);
    layer.addSamples("ir.parse_s", "s", parseS);
    layer.add("ir.cells_after", "count",
              passes::gatherStats(*design).cells);
    for (const std::string &p : kPasses)
        layer.addSamples("passes." + p + "_s", "s", passS[p]);
    layer.addSamples("passes.total_s", "s", passesS);
    int states = 0, controlRegs = 0;
    int64_t transitions = 0;
    for (const auto &comp : design->components()) {
        FsmStats fs = fsmStats(*comp);
        states += fs.states;
        transitions += fs.transitions;
        controlRegs += fs.controlRegisters;
    }
    layer.add("lowering.fsm_states", "count", states);
    layer.add("lowering.fsm_transitions", "count",
              static_cast<double>(transitions));
    layer.add("lowering.control_registers", "count", controlRegs);
    layer.addSamples("emit.verilog_s", "s", verilogS);
    layer.add("emit.verilog_bytes", "bytes",
              static_cast<double>(verilogBytes));
    layer.addSamples("emit.cppsim_s", "s", cppsimS);
    layer.add("emit.cppsim_bytes", "bytes",
              static_cast<double>(cppsimBytes));
    layer.addSamples("sim.program_build_s", "s", programBuildS);
    layer.addSamples("sim.schedule_build_s", "s", scheduleBuildS);
    layer.addSamples("sim.jit_cold_s", "s", jitColdS);
    layer.addSamples("sim.jit_disk_load_s", "s", jitDiskS);
    layer.add("sim.jit_host_build_s", "s",
              std::max(0.0, median(jitColdS) - median(jitDiskS)));
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    layer.add("proc.children_max_rss_mb", "MiB",
              static_cast<double>(ru.ru_maxrss) / 1024.0);
    layer.add("sim.ports", "count", static_cast<double>(sp->numPorts()));
    layer.add("sim.schedule_nodes", "count",
              static_cast<double>(sp->schedule().nodes().size()));
    const PerCycle &pc = perCycle[sim::Engine::Compiled];
    const PerCycle &pl = perCycle[sim::Engine::Levelized];
    layer.add("sim.levelized_evals_per_cycle", "count", pl.evals);
    layer.add("sim.compiled_comb_ns_per_cycle", "ns", pc.comb);
    layer.add("sim.compiled_clock_ns_per_cycle", "ns", pc.clock);
    layer.add("sim.levelized_comb_ns_per_cycle", "ns", pl.comb);
    layer.add("sim.levelized_clock_ns_per_cycle", "ns", pl.clock);
    for (const char *name :
         {"sim.compiled_cps_t2", "sim.compiled_cps_t4",
          "sim.levelized_cps_t2", "sim.levelized_cps_t4"})
        layer.add(name, "cycles/s", threaded[name]);
    layer.add("batch.sps_b64_t2", "stimuli/s", threaded["batch.sps_b64_t2"]);
    layer.add("batch.sps_b64_t4", "stimuli/s", threaded["batch.sps_b64_t4"]);
    layer.add("batch.sps_b1", "stimuli/s", sizes[1]);
    layer.add("batch.sps_b16", "stimuli/s", sizes[16]);
    layer.add("batch.sps_b256", "stimuli/s", sizes[256]);
    layer.add("batch.dead_lane_frac", "ratio",
              serve.lanesEvaluated
                  ? static_cast<double>(serve.lanesPadded) /
                        static_cast<double>(serve.lanesEvaluated)
                  : 0);
    layer.add("batch.module_loads", "count",
              static_cast<double>(moduleLoads));

    auto counter = [&](const char *key) {
        const json::Value *c = serve.stats.isNull()
                                   ? nullptr
                                   : serve.stats.at("compile").find(key);
        return c ? static_cast<double>(c->asNum()) : 0.0;
    };
    double requests = counter("requests");
    double raw = counter("artifacts_from_raw_text");
    double cached = counter("artifacts_from_cache");
    double hits = counter("components_from_cache");
    double misses = counter("component_misses");
    layer.add("cache.raw_hits", "count", raw);
    layer.add("cache.artifact_hits", "count", cached - raw);
    layer.add("cache.component_hits", "count", hits);
    layer.add("cache.component_misses", "count", misses);
    layer.add("cache.hit_ratio", "ratio",
              requests > 0 ? cached / requests : 0);
    layer.add("cache.component_reuse_ratio", "ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0);

    layer.add("serve.startup_s", "s", serve.startup);
    layer.add("serve.run_ms_p50", "ms", percentile(serve.runMs, 50),
              serve.runMs);
    layer.add("serve.run_ms_p95", "ms", percentile(serve.runMs, 95));
    layer.add("serve.compile_hit_ms_p50", "ms",
              percentile(serve.hitMs, 50), serve.hitMs);
    layer.add("serve.compile_miss_ms_p50", "ms",
              percentile(serve.missMs, 50), serve.missMs);
    layer.add("serve.compile_miss_ms_p95", "ms",
              percentile(serve.missMs, 95));
    layer.add("serve.server_compile_ms_p50", "ms",
              percentile(serve.serverMs, 50), serve.serverMs);
    layer.add("serve.run_response_bytes_p50", "bytes",
              percentile(serve.runBytes, 50), serve.runBytes);

    estimate::AreaEstimator est(*design);
    estimate::Area area = est.estimateProgram();
    layer.add("qor.ffs", "count", area.ffs);
    layer.add("qor.registers", "count", area.registers);
    layer.add("qor.dsps", "count", area.dsps);
    layer.add("qor.hls_cycles", "cycles", hlsCycles);
    layer.add("qor.hls_luts", "LUTs", hlsLuts);
    layer.add("qor.cycle_slowdown_vs_hls", "ratio", geomean(slow));
    layer.add("qor.lut_increase_vs_hls", "ratio", geomean(bigger));
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    }
    return "unknown";
}

std::string
metricsJson(const Report &r)
{
    std::string s = "{";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        s += (i ? ", " : "") + quote(m.name) +
             ": {\"value\": " + fullDigits(m.value) +
             ", \"unit\": " + quote(m.unit) + "}";
    }
    return s + "}";
}

std::string
detailJson(const Report &r)
{
    std::string s = "{";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        Summary sum = summarize(m.samples);
        s += std::string(i ? ",\n    " : "\n    ") + quote(m.name) +
             ": {\"value\": " + fullDigits(m.value) +
             ", \"unit\": " + quote(m.unit);
        if (!m.samples.empty()) {
            s += ", \"median\": " + fullDigits(sum.median) +
                 ", \"q1\": " + fullDigits(sum.q1) +
                 ", \"q3\": " + fullDigits(sum.q3) +
                 ", \"n\": " + std::to_string(sum.n) + ", \"samples\": [";
            for (size_t k = 0; k < m.samples.size(); ++k)
                s += (k ? ", " : "") + fullDigits(m.samples[k]);
            s += "]";
        }
        s += "}";
    }
    return s + "}";
}

void
printTable(const char *title, const Report &r)
{
    std::printf("%s\n", title);
    for (const Metric &m : r.metrics) {
        if (m.samples.size() > 1) {
            Summary s = summarize(m.samples);
            std::printf("  %-34s %14.6g %-10s samples: median %.6g, "
                        "q1 %.6g, q3 %.6g, n=%zu\n",
                        m.name.c_str(), m.value, m.unit.c_str(), s.median,
                        s.q1, s.q3, s.n);
        } else {
            std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
    }
}

/** Results files (`*.result.json`) under `path` (a file or directory). */
std::vector<json::Value>
loadResults(const std::string &path)
{
    std::vector<std::string> files;
    if (fs::is_directory(path)) {
        for (const auto &e : fs::directory_iterator(path)) {
            std::string p = e.path().string();
            if (p.size() > 12 && p.substr(p.size() - 12) == ".result.json")
                files.push_back(p);
        }
        std::sort(files.begin(), files.end());
    } else {
        files.push_back(path);
    }
    std::vector<json::Value> out;
    for (const std::string &f : files) {
        std::ifstream in(f);
        std::stringstream ss;
        ss << in.rdbuf();
        try {
            out.push_back(json::parse(ss.str()));
        } catch (const Error &e) {
            std::fprintf(stderr, "calyx_bench: skipping %s: %s\n", f.c_str(),
                         e.what());
        }
    }
    return out;
}

/** workload -> metric -> values of every untraced run in `results`. */
std::map<std::string, std::map<std::string, std::vector<double>>>
byWorkload(const std::vector<json::Value> &results)
{
    std::map<std::string, std::map<std::string, std::vector<double>>> out;
    for (const json::Value &r : results) {
        if (r.at("trace").asBool())
            continue;
        auto &w = out[r.at("workload").asStr()];
        for (const auto &[name, m] : r.at("end_to_end").members())
            w[name].push_back(m.at("value").asReal());
    }
    return out;
}

void
printOverhead(const Bench &b)
{
    auto runs = byWorkload(loadResults(b.opt.results));
    auto it = runs.find(b.w.name);
    std::printf("tracing overhead (traced value vs the median of %zu "
                "untraced runs of %s in %s):\n",
                it == runs.end() ? size_t(0)
                                 : it->second.begin()->second.size(),
                b.w.name.c_str(), b.opt.results.c_str());
    for (const Metric &m : b.e2e.metrics) {
        if (it == runs.end() || !it->second.count(m.name)) {
            std::printf("  overhead %-16s traced %.6g %s (no untraced run "
                        "to compare)\n",
                        m.name.c_str(), m.value, m.unit.c_str());
            continue;
        }
        double base = median(it->second.at(m.name));
        std::printf("  overhead %-16s traced %.6g vs %.6g %s (%+.1f%%)\n",
                    m.name.c_str(), m.value, base, m.unit.c_str(),
                    base != 0 ? (m.value / base - 1) * 100 : 0.0);
    }
}

int
Bench::finish()
{
    e2e.add("peak_rss_mb", "MiB", peakRssMb);

    std::string stem = opt.results + "/" + w.name + "-seed" +
                       std::to_string(opt.seed) +
                       (opt.trace ? "-trace-" : "-plain-") +
                       std::to_string(getpid());
    fs::create_directories(opt.results);
    const char *cxx = std::getenv("CXX");
    std::ofstream out(stem + ".result.json");
    out << "{\"workload\": " << quote(w.name)
        << ", \"seed\": " << opt.seed
        << ", \"seconds\": " << fullDigits(opt.seconds)
        << ", \"trace\": " << (opt.trace ? "true" : "false")
        << ",\n  \"host\": {\"nproc\": "
        << std::thread::hardware_concurrency()
        << ", \"cpu\": " << quote(cpuModel())
        << ", \"compiler\": " << quote(CALYX_BENCH_CXX_ID)
        << ", \"cxx_env\": " << quote(cxx ? cxx : "")
        << ", \"build_type\": " << quote(CALYX_BENCH_BUILD_TYPE)
        << ", \"rev\": " << quote(opt.rev) << ", \"seed\": " << opt.seed
        << "},\n  \"correct\": " << (tally.failed ? "false" : "true")
        << ", \"attempted\": " << tally.attempted
        << ", \"failed\": " << tally.failed << ", \"errors\": [";
    for (size_t i = 0; i < tally.errors.size(); ++i)
        out << (i ? ", " : "") << quote(tally.errors[i]);
    out << "],\n  \"end_to_end\": " << detailJson(e2e)
        << ",\n  \"per_layer\": " << detailJson(layer) << ",\n  \"kernels\": [";
    for (size_t i = 0; i < qor.size(); ++i) {
        const KernelQor &k = qor[i];
        out << (i ? ", " : "") << "{\"name\": " << quote(k.name)
            << ", \"cycles\": " << k.cycles
            << ", \"luts\": " << fullDigits(k.luts)
            << ", \"hls_cycles\": " << k.hlsCycles
            << ", \"hls_luts\": " << fullDigits(k.hlsLuts) << "}";
    }
    out << "]}\n";
    out.close();

    std::printf("workload %s, seed %llu, %u hardware threads, %s build, "
                "rev %s\n",
                w.name.c_str(), static_cast<unsigned long long>(opt.seed),
                std::thread::hardware_concurrency(), CALYX_BENCH_BUILD_TYPE,
                opt.rev.c_str());
    printTable(opt.trace ? "end-to-end (traced run; not the metrics):"
                         : "end-to-end:",
               e2e);
    if (opt.trace) {
        printTable("per-layer:", layer);
        // The compile layers should account for the whole compile.
        double layers = layer.at("frontends.generate_s").value +
                        layer.at("passes.total_s").value +
                        layer.at("emit.verilog_s").value;
        double parse = layer.at("ir.parse_s").value;
        double whole = median(e2e.at("compile_s").samples);
        std::printf("compile coverage: generate + passes + verilog = %.6g s "
                    "(%.1f%% of the median compile sample, %.6g s); with "
                    "ir.parse %.1f%%\n",
                    layers, layers / whole * 100, whole,
                    (layers + parse) / whole * 100);
        std::printf("per-kernel quality of results:\n");
        for (const KernelQor &k : qor)
            std::printf("  qor.cycles.%-12s %8llu  qor.luts.%-12s %10.1f  "
                        "hls %llu cycles, %.1f LUTs\n",
                        k.name.c_str(),
                        static_cast<unsigned long long>(k.cycles),
                        k.name.c_str(), k.luts,
                        static_cast<unsigned long long>(k.hlsCycles),
                        k.hlsLuts);
        std::printf("span self time (seconds):\n");
        for (const Tracer::Totals &t : tr.totals())
            std::printf("  %-28s spans %6llu  total %10.4f  self %10.4f\n",
                        t.name.c_str(),
                        static_cast<unsigned long long>(t.spans), t.total,
                        t.self);
        printOverhead(*this);
        std::ofstream spans(stem + ".spans.json");
        tr.write(spans);
        std::printf("spans: %s.spans.json\n", stem.c_str());
    }
    std::printf("results: %s.result.json\n", stem.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                tally.failed ? "false" : "true",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                metricsJson(opt.trace ? layer : e2e).c_str());
    std::fflush(stdout);
    return tally.failed ? 1 : 0;
}

/** --compare: both medians, their difference and PASS/FAIL per
 * workload x end-to-end metric, against the bounds in the spec. */
int
compare(const Options &opt)
{
    std::ifstream in(opt.spec);
    if (!in)
        fatal("cannot read ", opt.spec);
    std::stringstream ss;
    ss << in.rdbuf();
    json::Value spec = json::parse(ss.str());
    auto a = byWorkload(loadResults(opt.compareA));
    auto b = byWorkload(loadResults(opt.compareB));
    int failures = 0;
    std::printf("%-22s %-15s %13s %13s %8s %7s %7s %6s  %s\n", "workload",
                "metric", "A median", "B median", "diff", "A IQR", "B IQR",
                "bound", "verdict");
    for (const auto &[workload, metricsA] : a) {
        auto wb = b.find(workload);
        if (wb == b.end())
            continue;
        for (const json::Value &m : spec.at("end_to_end").items()) {
            const std::string &name = m.at("name").asStr();
            auto va = metricsA.find(name);
            auto vb = wb->second.find(name);
            if (va == metricsA.end() || vb == wb->second.end())
                continue;
            Summary sa = summarize(va->second), sb = summarize(vb->second);
            double bound = m.at("bound").asReal();
            bool lower = m.at("better").asStr() == "lower";
            double diff =
                sa.median != 0 ? (sb.median - sa.median) / sa.median : 0;
            double worse = lower ? diff : -diff;
            bool pass = worse <= bound;
            failures += pass ? 0 : 1;
            std::printf("%-22s %-15s %13.6g %13.6g %+7.2f%% %6.2f%% "
                        "%6.2f%% %5.1f%%  %s\n",
                        workload.c_str(), name.c_str(), sa.median, sb.median,
                        diff * 100, sa.spread() * 100, sb.spread() * 100,
                        bound * 100, pass ? "PASS" : "FAIL");
        }
    }
    return failures ? 1 : 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: calyx_bench --workload W --seed N --seconds S "
                 "--trace 0|1 --futil PATH --work DIR --results DIR "
                 "[--rev REV]\n"
                 "       calyx_bench --compare A B --spec BENCHMARK.json\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    Options opt;
    std::vector<std::string> args(argv + 1, argv + argc);
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto next = [&]() -> const std::string & {
            static const std::string empty;
            return i + 1 < args.size() ? args[++i] : empty;
        };
        if (a == "--workload")
            opt.workload = next();
        else if (a == "--seed")
            opt.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::atof(next().c_str());
        else if (a == "--trace")
            opt.trace = next() == "1";
        else if (a == "--futil")
            opt.futil = next();
        else if (a == "--work")
            opt.work = next();
        else if (a == "--results")
            opt.results = next();
        else if (a == "--rev")
            opt.rev = next();
        else if (a == "--spec")
            opt.spec = next();
        else if (a == "--compare") {
            opt.compareA = next();
            opt.compareB = next();
        } else
            return usage();
    }
    try {
        if (!opt.compareA.empty())
            return compare(opt);
        const auto &names = workloadNames();
        if (std::find(names.begin(), names.end(), opt.workload) ==
                names.end() ||
            opt.futil.empty() || opt.work.empty() || opt.results.empty() ||
            !(opt.seconds > 0))
            return usage();
        fs::create_directories(opt.work);

        Bench b(opt);
        b.w = makeWorkload(opt.workload, opt.seed, kCases);
        b.setup();
        b.prepareDesign();
        b.measure();
        return b.finish();
    } catch (const Error &e) {
        std::fprintf(stderr, "calyx_bench: error: %s\n", e.what());
        return 1;
    }
}
