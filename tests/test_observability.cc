/**
 * Observability suite (ISSUE 7): the SimObserver probe interface, the
 * VCD trace writer, and the cycle-accurate activity profiler.
 *
 * The load-bearing property is engine independence: a VCD trace of the
 * same design must be byte-identical whether the cycle values came
 * from the jacobi oracle, the levelized scheduler, or the compiled
 * engine's generated module. Profiler counts are pinned
 * against hand-computed activity on the canonical counter programs,
 * and the gemm kernel checks the ISSUE acceptance bar of >= 95% cycle
 * attribution on a real workload. An observer attached mid-run leaves
 * the run it joins unchanged on every engine.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "frontends/dahlia/codegen.h"
#include "frontends/dahlia/parser.h"
#include "helpers.h"
#include "ir/parser.h"
#include "obs/profile.h"
#include "obs/report.h"
#include "obs/vcd.h"
#include "sim/compiled.h"
#include "sim/cycle_sim.h"
#include "sim/interp.h"
#include "support/error.h"
#include "support/json.h"
#include "workloads/harness.h"
#include "workloads/polybench.h"

namespace calyx {
namespace {

namespace fs = std::filesystem;

#define SKIP_WITHOUT_TOOLCHAIN()                                          \
    do {                                                                  \
        std::string reason = sim::compiledEngineUnavailableReason();      \
        if (!reason.empty())                                              \
            GTEST_SKIP() << reason;                                       \
    } while (0)

/** Point $CALYX_CPPSIM_CACHE at a fresh directory for one test. */
class ScopedCacheDir
{
  public:
    ScopedCacheDir()
    {
        const char *old = std::getenv("CALYX_CPPSIM_CACHE");
        hadOld = old != nullptr;
        if (hadOld)
            oldVal = old;
        dir = (fs::temp_directory_path() /
               ("calyx-obs-test-" + std::to_string(::getpid())))
                  .string();
        fs::remove_all(dir);
        ::setenv("CALYX_CPPSIM_CACHE", dir.c_str(), 1);
    }

    ~ScopedCacheDir()
    {
        if (hadOld)
            ::setenv("CALYX_CPPSIM_CACHE", oldVal.c_str(), 1);
        else
            ::unsetenv("CALYX_CPPSIM_CACHE");
        fs::remove_all(dir);
    }

  private:
    std::string dir, oldVal;
    bool hadOld = false;
};

std::string
readExample(const std::string &name)
{
    fs::path path = fs::path(CALYX_EXAMPLES_DIR) / name;
    std::ifstream in(path);
    EXPECT_TRUE(in) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Lowered counter example, freshly compiled per call. */
Context
loweredCounterExample()
{
    Context ctx = Parser::parseProgram(readExample("counter.futil"));
    passes::runPipeline(ctx, "all");
    return ctx;
}

/** Trace a lowered context under one engine into a string. */
std::string
traceWith(Context &ctx, sim::Engine engine,
          obs::VcdScope scope = obs::VcdScope::All)
{
    sim::SimProgram sp(ctx, "main");
    std::ostringstream os;
    obs::VcdWriter vcd(sp, os, scope);
    sim::CycleSim cs(sp, engine);
    cs.state().addObserver(&vcd);
    cs.run();
    return os.str();
}

// --- Cross-engine VCD identity ------------------------------------------

TEST(ObsVcd, ByteIdenticalAcrossInterpretedEngines)
{
    Context cj = loweredCounterExample();
    Context cl = loweredCounterExample();
    std::string jacobi = traceWith(cj, sim::Engine::Jacobi);
    std::string levelized = traceWith(cl, sim::Engine::Levelized);
    ASSERT_FALSE(jacobi.empty());
    EXPECT_NE(jacobi.find("$enddefinitions"), std::string::npos);
    EXPECT_EQ(jacobi, levelized);
}

TEST(ObsVcd, ByteIdenticalCompiledEngine)
{
    SKIP_WITHOUT_TOOLCHAIN();
    ScopedCacheDir cache;
    Context cl = loweredCounterExample();
    Context cc = loweredCounterExample();
    std::string levelized = traceWith(cl, sim::Engine::Levelized);
    std::string compiled = traceWith(cc, sim::Engine::Compiled);
    EXPECT_EQ(levelized, compiled);
}

TEST(ObsVcd, ScopesNest)
{
    Context c_all = loweredCounterExample();
    Context c_state = loweredCounterExample();
    Context c_top = loweredCounterExample();
    std::string all = traceWith(c_all, sim::Engine::Levelized,
                                obs::VcdScope::All);
    std::string state = traceWith(c_state, sim::Engine::Levelized,
                                  obs::VcdScope::State);
    std::string top = traceWith(c_top, sim::Engine::Levelized,
                                obs::VcdScope::Top);

    auto vars = [](const std::string &vcd) {
        size_t n = 0, pos = 0;
        while ((pos = vcd.find("$var ", pos)) != std::string::npos) {
            ++n;
            pos += 5;
        }
        return n;
    };
    EXPECT_GT(vars(all), vars(state));
    EXPECT_GT(vars(state), vars(top));
    EXPECT_GT(vars(top), 0u);
    // Top scope records only the signature; no primitive sub-scopes.
    EXPECT_EQ(top.find("$scope module r "), std::string::npos);
    EXPECT_NE(all.find("$scope module r "), std::string::npos);
}

TEST(ObsVcd, ScopeNameParsing)
{
    EXPECT_EQ(obs::parseVcdScope("top"), obs::VcdScope::Top);
    EXPECT_EQ(obs::parseVcdScope("state"), obs::VcdScope::State);
    EXPECT_EQ(obs::parseVcdScope("all"), obs::VcdScope::All);
    EXPECT_THROW(obs::parseVcdScope("everything"), Error);
    EXPECT_STREQ(obs::vcdScopeName(obs::VcdScope::State), "state");
}

// --- Profiler: lowered counter example ----------------------------------

/**
 * examples/counter.futil lowered through "all" static-schedules the
 * two back-to-back register writes: machine "static0" spends 2 cycles
 * in its "schedule" state and 1 in "done", 3 cycles total. The
 * "default" pipeline keeps the dynamic FSM ("control0"): one 2-cycle
 * write state per enable plus "done", 5 cycles total.
 */
TEST(ObsProfile, LoweredCounterStateOccupancy)
{
    Context ctx = loweredCounterExample();
    sim::SimProgram sp(ctx, "main");
    obs::Profiler prof(sp);
    sim::CycleSim cs(sp);
    cs.state().addObserver(&prof);
    uint64_t cycles = cs.run();

    EXPECT_EQ(cycles, 3u);
    EXPECT_EQ(prof.cycles(), 3u);
    EXPECT_EQ(prof.stateCycles("static0", "schedule"), 2u);
    EXPECT_EQ(prof.stateCycles("static0", "done"), 1u);
    EXPECT_DOUBLE_EQ(prof.attributedPct(), 100.0);
}

TEST(ObsProfile, DefaultPipelineCounterStateOccupancy)
{
    // The profiler decodes the state register under either encoding.
    for (const char *encoding : {"binary", "one-hot"}) {
        passes::PipelineSpec spec = passes::parsePipelineSpec("default");
        passes::applyPassOptions(
            spec, std::string("compile-control[encoding=") + encoding + "]");
        Context ctx = Parser::parseProgram(readExample("counter.futil"));
        passes::runPipeline(ctx, spec);
        const FsmMachine &fsm = *ctx.component("main").fsms()[0];
        ASSERT_STREQ(fsmEncodingName(fsm.encoding()), encoding);
        sim::SimProgram sp(ctx, "main");
        obs::Profiler prof(sp);
        sim::CycleSim cs(sp);
        cs.state().addObserver(&prof);
        uint64_t cycles = cs.run();

        EXPECT_EQ(cycles, 5u) << encoding;
        EXPECT_EQ(prof.stateCycles("control0", "write"), 2u) << encoding;
        EXPECT_EQ(prof.stateCycles("control0", "done"), 1u) << encoding;
        EXPECT_DOUBLE_EQ(prof.attributedPct(), 100.0) << encoding;
    }
}

/**
 * The same design, un-lowered, runs under the control interpreter in 4
 * cycles, all of them inside the "write" group (two 2-cycle register
 * writes back to back).
 */
TEST(ObsProfile, GroupModeCounterExample)
{
    Context ctx = Parser::parseProgram(readExample("counter.futil"));
    sim::SimProgram sp(ctx, "main");
    obs::Profiler prof(sp);
    sim::Interp interp(sp);
    interp.state().addObserver(&prof);
    uint64_t cycles = interp.run();

    EXPECT_EQ(cycles, 4u);
    EXPECT_EQ(prof.cycles(), 4u);
    EXPECT_EQ(prof.groupCycles("write"), 4u);
    EXPECT_DOUBLE_EQ(prof.attributedPct(), 100.0);
}

// --- Profiler: nested-control workload ----------------------------------

/**
 * counterProgram(3, 2) = init; while (i < 3) with comb cond { bump_x;
 * bump_i }. Under the control interpreter each register-write group
 * takes 2 cycles (write + done) and the combinational cond check takes
 * 1; the while condition is evaluated 4 times (i = 0..3):
 *
 *   init               2
 *   cond   4 checks    4
 *   bump_x 3 trips     6
 *   bump_i 3 trips     6
 *                     18 total, every cycle inside some group.
 */
TEST(ObsProfile, NestedControlGroupCycles)
{
    Context ctx = testing::counterProgram(3, 2);
    sim::SimProgram sp(ctx, "main");
    obs::Profiler prof(sp);
    sim::Interp interp(sp);
    interp.state().addObserver(&prof);
    uint64_t cycles = interp.run();

    EXPECT_EQ(cycles, 18u);
    EXPECT_EQ(prof.groupCycles("init"), 2u);
    EXPECT_EQ(prof.groupCycles("cond"), 4u);
    EXPECT_EQ(prof.groupCycles("bump_x"), 6u);
    EXPECT_EQ(prof.groupCycles("bump_i"), 6u);
    EXPECT_DOUBLE_EQ(prof.attributedPct(), 100.0);
}

/** Lowered, the same program's FSM occupancy covers every cycle. */
TEST(ObsProfile, NestedControlLoweredFullyAttributed)
{
    Context ctx = testing::counterProgram(3, 2);
    passes::runPipeline(ctx, "all");
    sim::SimProgram sp(ctx, "main");
    obs::Profiler prof(sp);
    sim::CycleSim cs(sp);
    cs.state().addObserver(&prof);
    uint64_t cycles = cs.run();

    EXPECT_GT(cycles, 0u);
    EXPECT_DOUBLE_EQ(prof.attributedPct(), 100.0);

    json::Value report = prof.report();
    EXPECT_EQ(report.at("cycles").asNum(), cycles);
    EXPECT_EQ(report.at("attributed_cycles").asNum(), cycles);
    // Occupancy of every machine sums to the cycles it was observed.
    for (const auto &m : report.at("machines").items()) {
        uint64_t sum = m.at("unattributed_cycles").asNum();
        for (const auto &s : m.at("states").items())
            sum += s.at("cycles").asNum();
        EXPECT_EQ(sum, cycles) << m.at("name").asStr();
    }
}

// --- Profiler: real workload attribution (ISSUE acceptance bar) ---------

TEST(ObsProfile, GemmAttributionAtLeast95Pct)
{
    const workloads::Kernel &k = workloads::kernel("gemm");
    dahlia::Program prog = dahlia::parse(k.source);
    workloads::MemState inputs = workloads::makeInputs(k.name, prog);

    // The profiler needs the SimProgram, which runOnHardware builds
    // internally — replicate its compile step, then attach.
    Context ctx = dahlia::compileDahlia(prog);
    passes::runPipeline(ctx, "all");
    sim::SimProgram sp(ctx, "main");
    obs::Profiler prof(sp);
    sim::CycleSim cs(sp);
    cs.state().addObserver(&prof);
    workloads::pokeInputs(sp, prog, inputs);
    uint64_t cycles = cs.run();

    EXPECT_GT(cycles, 0u);
    EXPECT_EQ(prof.cycles(), cycles);
    EXPECT_GE(prof.attributedPct(), 95.0) << "gemm attribution";

    // Memory traffic is observed: gemm reads A, B, and C.
    json::Value report = prof.report();
    bool saw_reads = false;
    for (const auto &m : report.at("memories").items())
        saw_reads |= m.at("read_cycles").asNum() > 0;
    EXPECT_TRUE(saw_reads);
}

// --- Profiler consistency across engines --------------------------------

TEST(ObsProfile, SameCountsUnderJacobiAndLevelized)
{
    auto profileJson = [](sim::Engine engine) {
        Context ctx = loweredCounterExample();
        sim::SimProgram sp(ctx, "main");
        obs::Profiler prof(sp);
        sim::CycleSim cs(sp, engine);
        cs.state().addObserver(&prof);
        cs.run();
        json::Value report = prof.report();
        // The engine-effort section legitimately differs per engine.
        std::ostringstream os;
        report.at("cycles").write(os);
        report.at("attributed_cycles").write(os);
        report.at("groups").write(os);
        report.at("machines").write(os);
        report.at("memories").write(os);
        return os.str();
    };
    EXPECT_EQ(profileJson(sim::Engine::Jacobi),
              profileJson(sim::Engine::Levelized));
}

TEST(ObsProfile, EngineBlockReportsGuardDagSize)
{
    Context ctx = loweredCounterExample();
    sim::SimProgram sp(ctx, "main");
    obs::Profiler prof(sp);
    sim::CycleSim cs(sp);
    cs.state().addObserver(&prof);
    cs.run();

    // The engine block carries the same schema obscheck walks.
    json::Value eng = prof.report().at("engine");
    eng.at("comb_evals_total").asNum();
    eng.at("comb_evals_max").asNum();
    eng.at("comb_evals_avg").asReal();
    uint64_t tree = eng.at("guard_tree_nodes").asNum();
    uint64_t dag = eng.at("guard_dag_nodes").asNum();
    EXPECT_EQ(tree, sp.guardDag().treeNodes);
    EXPECT_EQ(dag, sp.guardDag().nodes.size());
    // Lowering repeats each group's FSM condition on all its
    // assignments, so the DAG is strictly smaller than the trees.
    EXPECT_GT(dag, 0u);
    EXPECT_LT(dag, tree);

    std::ostringstream os;
    prof.printSummary(os);
    std::string line = "guards " + std::to_string(tree) + " tree -> " +
                       std::to_string(dag) + " dag nodes";
    EXPECT_NE(os.str().find(line), std::string::npos) << os.str();
}

// --- Attaching mid-run ----------------------------------------------------

/** Counts the cycles it sees settle, and nothing else. */
struct CountingObserver : obs::SimObserver
{
    uint64_t settled = 0;
    void cycleSettled(uint64_t, const uint64_t *) override { ++settled; }
};

/**
 * CycleSim::run's loop, with `observer` attached just before cycle
 * `attach` (1-based) settles. Returns the cycle count; `state` gets the
 * final architectural state.
 */
uint64_t
runAttachingAt(const sim::SimProgram &sp, sim::Engine engine,
               uint64_t attach, obs::SimObserver &observer,
               std::vector<std::vector<uint64_t>> &state)
{
    sim::SimState st(sp, engine);
    st.reset();
    const sim::SimProgram::Instance &top = sp.root();
    for (uint64_t cycle = 1; cycle <= 100; ++cycle) {
        st.beginCycle();
        st.force(top.goPort, 1);
        sim::activateContinuous(st, top);
        if (cycle == attach)
            st.addObserver(&observer);
        st.comb();
        bool done = st.value(top.donePort) & 1;
        st.clock();
        if (done) {
            state = sim::archState(sp);
            return cycle;
        }
    }
    ADD_FAILURE() << "no done within 100 cycles";
    return 0;
}

TEST(ObsAttach, MidRunAttachLeavesTheRunUnchanged)
{
    // Attaching an observer must not disturb the run it joins, on any
    // engine and at any cycle: same cycle count, same final state as an
    // unobserved Jacobi run.
    Context ctx = Parser::parseProgram(readExample("counter.futil"));
    passes::runPipeline(ctx, "default");
    sim::SimProgram ref(ctx, "main");
    sim::CycleSim oracle(ref, sim::Engine::Jacobi);
    uint64_t refCycles = oracle.run();
    std::vector<std::vector<uint64_t>> refState = sim::archState(ref);
    ASSERT_EQ(refCycles, 5u);
    ASSERT_EQ(*ref.findModel("r")->registerValue(), 10u);

    for (const sim::EngineInfo &info : sim::engineInfos()) {
        if (info.engine == sim::Engine::Compiled &&
            !sim::compiledEngineUnavailableReason().empty())
            continue;
        for (uint64_t attach = 1; attach <= refCycles; ++attach) {
            std::string label = std::string(info.name) + ", attached at " +
                                std::to_string(attach);
            sim::SimProgram sp(ctx, "main");
            CountingObserver seen;
            std::vector<std::vector<uint64_t>> state;
            uint64_t cycles =
                runAttachingAt(sp, info.engine, attach, seen, state);
            EXPECT_EQ(cycles, refCycles) << label;
            EXPECT_EQ(state, refState) << label;
            EXPECT_EQ(seen.settled, cycles - attach + 1) << label;
        }
    }
}

// --- Report envelope & JSON reals ---------------------------------------

TEST(ObsReport, EnvelopeShape)
{
    json::Value env = obs::reportEnvelope("foo.futil");
    EXPECT_EQ(env.at("version").asNum(), 1u);
    EXPECT_EQ(env.at("file").asStr(), "foo.futil");
}

TEST(JsonReal, WriteAlwaysReadsBackAsReal)
{
    json::Value v = json::Value::real(2.5);
    std::ostringstream os;
    v.write(os);
    EXPECT_EQ(os.str(), "2.5");

    // Whole-number reals keep a decimal marker so they round-trip as
    // Real, not Num.
    std::ostringstream os2;
    json::Value::real(100.0).write(os2);
    EXPECT_EQ(os2.str(), "100.0");

    json::Value parsed = json::parse(os2.str());
    EXPECT_EQ(parsed.kind(), json::Value::Kind::Real);
    EXPECT_DOUBLE_EQ(parsed.asReal(), 100.0);
}

TEST(JsonReal, ParsesSignsFractionsExponents)
{
    EXPECT_DOUBLE_EQ(json::parse("-3.25").asReal(), -3.25);
    EXPECT_DOUBLE_EQ(json::parse("1e3").asReal(), 1000.0);
    EXPECT_DOUBLE_EQ(json::parse("2.5e-1").asReal(), 0.25);
    // Plain unsigned integers still land as exact Num.
    json::Value n = json::parse("18446744073709551615");
    EXPECT_EQ(n.kind(), json::Value::Kind::Num);
    EXPECT_EQ(n.asNum(), 18446744073709551615ull);
    // asReal coerces Num for consumers that only care about magnitude.
    EXPECT_DOUBLE_EQ(json::parse("42").asReal(), 42.0);
}

} // namespace
} // namespace calyx
