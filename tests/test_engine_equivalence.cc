/**
 * Cross-engine equivalence suite (ISSUE 3, extended by ISSUE 6): every
 * registered evaluation engine must be observationally identical to the
 * Jacobi fixed-point oracle — same cycle counts, same final memory
 * contents, same register state — on every example program, PolyBench
 * kernels, and a systolic configuration; guarded combinational cycles
 * must settle to the same fixed point everywhere; and true
 * combinational loops must be rejected with the offending port names
 * instead of a convergence timeout.
 *
 * The engine list comes from sim::engineInfos(), so a new engine is
 * automatically swept. The compiled engine is skipped (not failed)
 * when the host has no C++ toolchain.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "emit/cppsim.h"
#include "frontends/dahlia/parser.h"
#include "frontends/systolic/systolic.h"
#include "helpers.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "sim/batch.h"
#include "sim/compiled.h"
#include "sim/cycle_sim.h"
#include "sim/interp.h"
#include "support/error.h"
#include "workloads/harness.h"
#include "workloads/polybench.h"

namespace calyx {
namespace {

/**
 * Engines to compare against the Jacobi oracle: every registered
 * non-Jacobi engine that can run in this environment. The compiled
 * engine drops out on hosts without a C++ toolchain.
 */
std::vector<sim::Engine>
comparisonEngines()
{
    std::vector<sim::Engine> out;
    for (const sim::EngineInfo &info : sim::engineInfos()) {
        if (info.engine == sim::Engine::Jacobi)
            continue;
        if (info.engine == sim::Engine::Compiled &&
            !sim::compiledEngineUnavailableReason().empty())
            continue;
        out.push_back(info.engine);
    }
    return out;
}

/**
 * Table loops (the rerolled statements of emit/cppsim.cc) in the
 * `cppsim_<stem>_chunk*` functions of generated source `src` whose
 * loop body starts with `body`.
 */
size_t
tableLoops(const std::string &src, const std::string &stem,
           const std::string &body)
{
    const std::string fn = "void cppsim_" + stem + "_chunk";
    const std::string head = "; ++i) {\n";
    size_t n = 0;
    for (size_t at = src.find(fn); at != std::string::npos;
         at = src.find(fn, at + 1)) {
        size_t end = src.find(emit::cppsimShardMarker, at);
        for (size_t loop = src.find(head, at); loop < end;
             loop = src.find(head, loop + 1)) {
            size_t text = src.find_first_not_of(' ', loop + head.size());
            n += src.compare(text, body.size(), body) == 0;
        }
    }
    return n;
}

/** Cycle-simulate a compiled context with one engine. */
uint64_t
simulate(const Context &ctx, sim::Engine engine,
         std::vector<std::vector<uint64_t>> *state)
{
    sim::SimProgram sp(ctx, ctx.entrypoint());
    sim::CycleSim cs(sp, engine);
    uint64_t cycles = cs.run();
    *state = sim::archState(sp);
    return cycles;
}

void
expectEnginesAgree(const Context &ctx, const std::string &label)
{
    std::vector<std::vector<uint64_t>> jacobi_state;
    uint64_t jacobi = simulate(ctx, sim::Engine::Jacobi, &jacobi_state);
    for (sim::Engine engine : comparisonEngines()) {
        std::vector<std::vector<uint64_t>> state;
        uint64_t cycles = simulate(ctx, engine, &state);
        EXPECT_EQ(jacobi, cycles)
            << label << ": cycle count mismatch ("
            << sim::engineName(engine) << " vs jacobi)";
        EXPECT_EQ(jacobi_state, state)
            << label << ": architectural state mismatch ("
            << sim::engineName(engine) << " vs jacobi)";
    }
}

TEST(EngineEquivalence, AllExamplePrograms)
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
        expectEnginesAgree(ctx, entry.path().filename().string());
    }
    EXPECT_GE(found, 2) << "expected at least two examples/*.futil";
}

TEST(EngineEquivalence, PolybenchKernels)
{
    for (const std::string &name : {"gemm", "atax"}) {
        const workloads::Kernel &k = workloads::kernel(name);
        dahlia::Program prog = dahlia::parse(k.source);
        workloads::MemState inputs = workloads::makeInputs(name, prog);
        passes::PipelineSpec spec = passes::parsePipelineSpec("all");

        workloads::MemState jacobi_mems;
        auto hj = workloads::runOnHardware(prog, spec, inputs,
                                           &jacobi_mems, {},
                                           sim::Engine::Jacobi);
        for (sim::Engine engine : comparisonEngines()) {
            workloads::MemState mems;
            auto h = workloads::runOnHardware(prog, spec, inputs, &mems,
                                              {}, engine);
            EXPECT_EQ(hj.cycles, h.cycles)
                << name << " (" << sim::engineName(engine) << ")";
            EXPECT_EQ(jacobi_mems, mems)
                << name << " (" << sim::engineName(engine) << ")";
        }
    }
}

TEST(EngineEquivalence, SystolicConfiguration)
{
    const int dim = 3;
    Context ctx;
    systolic::Config cfg;
    cfg.rows = cfg.cols = cfg.inner = dim;
    systolic::generate(ctx, cfg);
    passes::runPipeline(ctx, "all,-resource-sharing,-register-sharing");

    auto run = [&](sim::Engine engine, uint64_t *cycles) {
        sim::SimProgram sp(ctx, "main");
        for (int r = 0; r < dim; ++r) {
            auto *l = sp.findModel(systolic::leftMemName(r))->memory();
            auto *t = sp.findModel(systolic::topMemName(r))->memory();
            for (int k = 0; k < dim; ++k) {
                (*l)[k] = r + k + 1;
                (*t)[k] = 2 * r + k + 1;
            }
        }
        sim::CycleSim cs(sp, engine);
        *cycles = cs.run();
        return sim::archState(sp);
    };

    uint64_t jacobi_cycles;
    auto jacobi_state = run(sim::Engine::Jacobi, &jacobi_cycles);
    for (sim::Engine engine : comparisonEngines()) {
        uint64_t cycles;
        auto state = run(engine, &cycles);
        EXPECT_EQ(jacobi_cycles, cycles) << sim::engineName(engine);
        EXPECT_EQ(jacobi_state, state) << sim::engineName(engine);
    }

    // The runs above cover rerolled code: the scalar module runs the
    // out_mem select chains and the clock statements as table loops.
    // Lane modules are not rerolled.
    sim::SimProgram sp(ctx, "main");
    std::ostringstream scalar, lanes;
    emit::emitCppSim(sp, scalar);
    emit::CppSimOptions lane_opts;
    lane_opts.lanes = 4;
    emit::emitCppSim(sp, lanes, lane_opts);
    EXPECT_GE(tableLoops(scalar.str(), "eval", "v = "), 1u);
    EXPECT_GE(tableLoops(scalar.str(), "clk", ""), 1u);
    EXPECT_EQ(lanes.str().find("kTab"), std::string::npos);

    // One-lane compiled tiles (a batch of 3 is a short tail) run the
    // scalar module too, here on distinct stimuli, each held to a
    // Jacobi run of its own.
    if (!sim::compiledEngineUnavailableReason().empty())
        return;
    std::vector<sim::Stimulus> batch(3);
    for (size_t b = 0; b < batch.size(); ++b) {
        for (int r = 0; r < dim; ++r) {
            std::vector<uint64_t> left(dim), top(dim);
            for (int k = 0; k < dim; ++k) {
                left[k] = (b + 1) * (r + k + 1);
                top[k] = 7 * b + 2 * r + k + 1;
            }
            batch[b].mems.emplace_back(systolic::leftMemName(r), left);
            batch[b].mems.emplace_back(systolic::topMemName(r), top);
        }
    }
    sim::BatchOptions opts;
    opts.engine = sim::Engine::Compiled;
    sim::BatchRunner runner(sp, opts);
    auto results = runner.run(batch);
    EXPECT_EQ(runner.tileCounts().scalarTiles, batch.size());
    ASSERT_EQ(results.size(), batch.size());
    for (size_t b = 0; b < batch.size(); ++b) {
        sim::SimProgram ref(ctx, "main");
        for (const auto &[path, data] : batch[b].mems) {
            std::copy(data.begin(), data.end(),
                      ref.findModel(path)->memory()->begin());
        }
        sim::CycleSim cs(ref, sim::Engine::Jacobi);
        EXPECT_EQ(results[b].cycles, cs.run()) << "stimulus " << b;
        std::vector<uint64_t> regs;
        std::vector<std::vector<uint64_t>> mems;
        for (const auto &m : ref.models()) {
            if (auto rv = m->registerValue())
                regs.push_back(*rv);
            else if (const std::vector<uint64_t> *mm = m->memory())
                mems.push_back(*mm);
        }
        EXPECT_EQ(results[b].regs, regs) << "stimulus " << b;
        EXPECT_EQ(results[b].mems, mems) << "stimulus " << b;
    }
}

TEST(EngineEquivalence, RerolledPipeClocks)
{
    // Nine cells of each pipelined kind, so the compiled module clocks
    // each kind in one table loop (divisor 0 included). A counter feeds
    // them new operands every cycle; every output must match Jacobi's
    // on every cycle.
    Context ctx;
    Component &comp = ctx.addComponent("main");
    comp.addCell("c", "std_reg", {16}, ctx);
    comp.addCell("inc", "std_add", {16}, ctx);
    auto &as = comp.continuousAssignments();
    as.emplace_back(cellPort("inc", "left"), cellPort("c", "out"));
    as.emplace_back(cellPort("inc", "right"), constant(1, 16));
    as.emplace_back(cellPort("c", "in"), cellPort("inc", "out"));
    as.emplace_back(cellPort("c", "write_en"), constant(1, 1));
    std::vector<std::string> outs;
    for (int i = 0; i < 9; ++i) {
        std::string k = std::to_string(i);
        for (const char *type : {"std_mult_pipe", "std_div_pipe"}) {
            std::string cell = type[4] == 'm' ? "mul" + k : "div" + k;
            comp.addCell(cell, type, {16}, ctx);
            as.emplace_back(cellPort(cell, "left"), cellPort("c", "out"));
            as.emplace_back(cellPort(cell, "right"), constant(i, 16));
            as.emplace_back(cellPort(cell, "go"), constant(1, 1));
        }
        comp.addCell("sq" + k, "std_sqrt", {16}, ctx);
        as.emplace_back(cellPort("sq" + k, "in"), cellPort("c", "out"));
        as.emplace_back(cellPort("sq" + k, "go"), constant(1, 1));
        for (const char *port : {"mul%.out", "mul%.done", "div%.out_quotient",
                                 "div%.out_remainder", "div%.done",
                                 "sq%.out", "sq%.done"}) {
            std::string p = port;
            outs.push_back(p.replace(p.find('%'), 1, k));
        }
    }

    auto trace = [&](sim::Engine engine) {
        sim::SimProgram sp(ctx, "main");
        sim::SimState st(sp, engine);
        st.reset();
        std::vector<uint64_t> seen;
        for (int cycle = 0; cycle < 40; ++cycle) {
            st.beginCycle();
            st.activate(sp.root().continuous);
            st.comb();
            for (const std::string &p : outs)
                seen.push_back(st.value(p));
            st.clock();
        }
        return seen;
    };
    auto jacobi = trace(sim::Engine::Jacobi);
    for (sim::Engine engine : comparisonEngines())
        EXPECT_EQ(jacobi, trace(engine)) << sim::engineName(engine);

    sim::SimProgram sp(ctx, "main");
    std::ostringstream scalar;
    emit::emitCppSim(sp, scalar);
    EXPECT_EQ(tableLoops(scalar.str(), "clk", ""), 3u); // one per kind
}

TEST(EngineEquivalence, InterpreterCrossEngine)
{
    uint64_t cycles[2], regs[2];
    int i = 0;
    for (sim::Engine engine :
         {sim::Engine::Jacobi, sim::Engine::Levelized}) {
        Context ctx = testing::counterProgram(5, 3);
        sim::SimProgram sp(ctx, "main");
        sim::Interp interp(sp, engine);
        cycles[i] = interp.run();
        regs[i] = *sp.findModel("x")->registerValue();
        EXPECT_EQ(regs[i], 15u) << sim::engineName(engine);
        ++i;
    }
    // The ideal interpreter schedule is engine-independent.
    EXPECT_EQ(cycles[0], cycles[1]);
    EXPECT_EQ(regs[0], regs[1]);
}

TEST(EngineEquivalence, InterpreterRejectsCompiledEngine)
{
    // The control interpreter activates per-group sets and forces group
    // holes; the generated module hard-codes the continuous set, so the
    // combination is rejected up front regardless of toolchain.
    Context ctx = testing::counterProgram(2, 1);
    sim::SimProgram sp(ctx, "main");
    try {
        sim::Interp interp(sp, sim::Engine::Compiled);
        FAIL() << "interpreter accepted the compiled engine";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("compiled"),
                  std::string::npos)
            << e.what();
    }
}

TEST(EngineEquivalence, GuardedCycleSettlesEverywhere)
{
    // w1.in <- w2.out is guarded on sel.out (held at 0), w2.in <- w1.out
    // is unconditional, and a constant drives w1.in when the guard is
    // off: a structural combinational cycle that every engine must
    // accept and settle by fixed point rather than reject. The Jacobi
    // oracle iterates globally, the levelized engine runs the SCC's
    // local Gauss-Seidel loop, and the compiled module emits the SCC as
    // a bounded fixed-point loop — all must land on w2.out == 5.
    Context ctx;
    Component &comp = ctx.addComponent("main");
    comp.addCell("sel", "std_wire", {1}, ctx);
    comp.addCell("w1", "std_wire", {8}, ctx);
    comp.addCell("w2", "std_wire", {8}, ctx);
    auto &assigns = comp.continuousAssignments();
    assigns.emplace_back(cellPort("sel", "in"), constant(0, 1));
    GuardPtr on = Guard::fromPort(cellPort("sel", "out"));
    assigns.emplace_back(cellPort("w1", "in"), cellPort("w2", "out"), on);
    assigns.emplace_back(cellPort("w1", "in"), constant(5, 8),
                         Guard::negate(on));
    assigns.emplace_back(cellPort("w2", "in"), cellPort("w1", "out"));

    sim::SimProgram sp(ctx, "main");
    for (const sim::EngineInfo &info : sim::engineInfos()) {
        if (info.engine == sim::Engine::Compiled &&
            !sim::compiledEngineUnavailableReason().empty())
            continue;
        sim::SimState st(sp, info.engine);
        st.reset();
        st.beginCycle();
        st.activate(sp.root().continuous);
        st.comb();
        EXPECT_EQ(st.value(Symbol("w2.out")), 5u) << info.name;
        EXPECT_EQ(st.value(Symbol("w1.out")), 5u) << info.name;
    }
}

/**
 * A guarded SCC whose member guard S is shared with an acyclic reader
 * downstream, inside a loop whose groups change every cycle:
 *
 *   w1.in  = en.out ? i.out                   (feeds the SCC)
 *   w2.in  = !(z.out == 1) ? w1.out           (SCC edge z.out -> w2.in)
 *   z.in   = S ? 9, S = (w2.out >= 2) & en.out & T
 *                                             (SCC edge w2.out -> z.in)
 *   rv.in  = S ? 100                          (downstream reader of S)
 *
 * T is a conjunction of tautologies (i.out != k) | (i.out == k) that
 * widens S past cppsim's 64-tree-node inline limit: the compiled
 * engine pools S in a `gv[]` slot for rv.in, while z.in must
 * re-evaluate it on every sweep. `en` is driven only by the `bump`
 * group, so the SCC re-settles each time bump starts, and S moves
 * mid-fixed-point when z.in is visited before w2.out in the
 * Gauss-Seidel sweep. Member order comes from the SCC search, so a
 * second copy declares its wires in reverse order. bump accumulates
 * z + rv into acc0/acc1: four iterations (i = 2..5) with S true add
 * 4 * 109 = 436, so both end at 436 mod 256 = 180.
 */
Context
sharedGuardSccProgram()
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("i", 8);
    b.add("addi", 8);
    b.cell("lt", "std_lt", {8});
    b.cell("en", "std_wire", {1});
    b.cell("w1", "std_wire", {8});
    auto &assigns = b.component().continuousAssignments();
    GuardPtr en = Guard::fromPort(cellPort("en", "out"));
    assigns.emplace_back(cellPort("w1", "in"), cellPort("i", "out"), en);

    Group &bump = b.group("bump");
    bump.add(cellPort("en", "in"), constant(1, 1));
    for (int c = 0; c < 2; ++c) {
        std::string k = std::to_string(c);
        std::string w = "w2_" + k, z = "z_" + k, rv = "rv_" + k;
        std::vector<std::string> wires = {w, z, rv};
        if (c)
            std::reverse(wires.begin(), wires.end());
        for (const std::string &name : wires)
            b.cell(name, "std_wire", {8});
        b.reg("acc" + k, 8);
        b.add("sum" + k, 8);
        b.add("step" + k, 8);

        GuardPtr s = Guard::conj(Guard::cmp(Guard::CmpOp::Geq,
                                            cellPort(w, "out"),
                                            constant(2, 8)),
                                 en);
        for (uint64_t v = 0; v < 16; ++v) {
            s = Guard::conj(
                s, Guard::disj(Guard::cmp(Guard::CmpOp::Neq,
                                          cellPort("i", "out"),
                                          constant(v, 8)),
                               Guard::cmp(Guard::CmpOp::Eq,
                                          cellPort("i", "out"),
                                          constant(v, 8))));
        }
        assigns.emplace_back(
            cellPort(w, "in"), cellPort("w1", "out"),
            Guard::negate(Guard::cmp(Guard::CmpOp::Eq, cellPort(z, "out"),
                                     constant(1, 8))));
        assigns.emplace_back(cellPort(z, "in"), constant(9, 8), s);
        assigns.emplace_back(cellPort(rv, "in"), constant(100, 8), s);

        bump.add(cellPort("sum" + k, "left"), cellPort(z, "out"));
        bump.add(cellPort("sum" + k, "right"), cellPort(rv, "out"));
        bump.add(cellPort("step" + k, "left"), cellPort("acc" + k, "out"));
        bump.add(cellPort("step" + k, "right"), cellPort("sum" + k, "out"));
        bump.add(cellPort("acc" + k, "in"), cellPort("step" + k, "out"));
        bump.add(cellPort("acc" + k, "write_en"), constant(1, 1));
    }
    bump.add(bump.doneHole(), cellPort("acc0", "done"));

    Group &cond = b.group("cond");
    cond.add(cellPort("lt", "left"), cellPort("i", "out"));
    cond.add(cellPort("lt", "right"), constant(6, 8));
    cond.add(cond.doneHole(), constant(1, 1));

    Group &incr = b.group("incr");
    incr.add(cellPort("addi", "left"), cellPort("i", "out"));
    incr.add(cellPort("addi", "right"), constant(1, 8));
    incr.add(cellPort("i", "in"), cellPort("addi", "out"));
    incr.add(cellPort("i", "write_en"), constant(1, 1));
    incr.add(incr.doneHole(), cellPort("i", "done"));

    std::vector<ControlPtr> body;
    body.push_back(ComponentBuilder::enable("bump"));
    body.push_back(ComponentBuilder::enable("incr"));
    b.component().setControl(ComponentBuilder::whileStmt(
        cellPort("lt", "out"), "cond",
        ComponentBuilder::seq(std::move(body))));
    return ctx;
}

TEST(EngineEquivalence, GuardMemoMatchesJacobiAroundSharedGuardScc)
{
    // Control interpreter: a different activation set almost every
    // cycle, on the levelized dirty-cone walk.
    auto interpret = [](sim::Engine engine, uint64_t *cycles) {
        Context ctx = sharedGuardSccProgram();
        sim::SimProgram sp(ctx, "main");
        sim::Interp interp(sp, engine);
        *cycles = interp.run();
        return sim::archState(sp);
    };
    uint64_t jacobiCycles = 0;
    auto jacobi = interpret(sim::Engine::Jacobi, &jacobiCycles);
    // Registers i, acc0, acc1: S really turns on inside the loop.
    EXPECT_EQ(jacobi, (std::vector<std::vector<uint64_t>>{{6}, {180}, {180}}));
    uint64_t cycles = 0;
    auto state = interpret(sim::Engine::Levelized, &cycles);
    EXPECT_EQ(jacobiCycles, cycles) << "interpreter";
    EXPECT_EQ(jacobi, state) << "interpreter";

    // Lowered: the scalar walk and batch lane tiles on every fast
    // engine.
    Context ctx = sharedGuardSccProgram();
    passes::runPipeline(ctx, "all");
    auto run = [&](sim::Engine engine, uint64_t *cycles) {
        sim::SimProgram sp(ctx, "main");
        sim::CycleSim cs(sp, engine);
        *cycles = cs.run();
        EXPECT_EQ(*sp.findModel("acc0")->registerValue(), 180u);
        EXPECT_EQ(*sp.findModel("acc1")->registerValue(), 180u);
        return sim::archState(sp);
    };
    auto lowered = run(sim::Engine::Jacobi, &jacobiCycles);
    for (sim::Engine engine : comparisonEngines()) {
        state = run(engine, &cycles);
        EXPECT_EQ(jacobiCycles, cycles) << "lowered, "
                                        << sim::engineName(engine);
        EXPECT_EQ(lowered, state) << "lowered, " << sim::engineName(engine);
    }

    // No memories, so the flattened arch state is the register slots.
    std::vector<uint64_t> regs;
    for (const auto &slot : lowered)
        regs.push_back(slot.at(0));
    sim::SimProgram sp(ctx, "main");
    // S really is past the inline limit after lowering.
    const auto &cont = sp.root().continuous;
    auto zIn = std::find_if(cont.begin(), cont.end(), [&](const auto &a) {
        return a.dst == sp.portId("z_0.in");
    });
    ASSERT_NE(zIn, cont.end());
    EXPECT_GT(zIn->guard.nodes.size(), 64u);
    // Batch 3: three one-lane compiled tiles (with two threads,
    // concurrent, each with its own module instance), or one three-lane
    // levelized tile whose lanes share one walk of the SCC sweep.
    // Batch 16: one full 16-lane tile on either engine. Batch 17 with
    // two threads: that tile concurrent with a one-lane tile (the
    // scalar module, or a narrowed levelized tile), each with its own
    // memo planes or module instance.
    struct Shape
    {
        size_t batch;
        unsigned threads;
    };
    for (sim::Engine engine : comparisonEngines()) {
        for (Shape shape :
             {Shape{3, 1}, Shape{3, 2}, Shape{16, 1}, Shape{17, 2}}) {
            sim::BatchOptions opts;
            opts.engine = engine;
            opts.threads = shape.threads;
            std::string label = std::string("batch ") +
                                std::to_string(shape.batch) + ", " +
                                sim::engineName(engine) + " x" +
                                std::to_string(shape.threads);
            auto lanes = sim::BatchRunner(sp, opts).run(
                std::vector<sim::Stimulus>(shape.batch));
            ASSERT_EQ(lanes.size(), shape.batch) << label;
            for (const sim::LaneResult &r : lanes) {
                EXPECT_EQ(jacobiCycles, r.cycles) << label;
                EXPECT_EQ(regs, r.regs) << label;
            }
        }
    }
}

/** Engines that diagnose combinational loops by port name at
 * schedule-build time (the Jacobi oracle can only time out). */
std::vector<sim::Engine>
diagnosingEngines()
{
    return comparisonEngines();
}

TEST(EngineEquivalence, CombinationalLoopNamesPorts)
{
    // w1.in -> w1.out -> w2.in -> w2.out -> w1.in: an unconditional
    // combinational cycle. Both the levelized engine and the compiled
    // engine (whose codegen consumes the same schedule) must reject it
    // naming every port on the cycle.
    for (sim::Engine engine : diagnosingEngines()) {
        Context ctx;
        Component &comp = ctx.addComponent("main");
        comp.addCell("w1", "std_wire", {8}, ctx);
        comp.addCell("w2", "std_wire", {8}, ctx);
        comp.continuousAssignments().emplace_back(cellPort("w2", "in"),
                                                  cellPort("w1", "out"));
        comp.continuousAssignments().emplace_back(cellPort("w1", "in"),
                                                  cellPort("w2", "out"));
        sim::SimProgram sp(ctx, "main");
        sim::SimState st(sp, engine);
        st.reset();
        st.beginCycle();
        st.activate(sp.root().continuous);
        try {
            st.comb();
            FAIL() << "combinational loop was not rejected by "
                   << sim::engineName(engine);
        } catch (const Error &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find("combinational loop"), std::string::npos)
                << msg;
            for (const char *port : {"w1.in", "w1.out", "w2.in", "w2.out"})
                EXPECT_NE(msg.find(port), std::string::npos)
                    << sim::engineName(engine) << " diagnostic misses "
                    << port << ": " << msg;
        }
    }
}

TEST(EngineEquivalence, SelfLoopNamesPort)
{
    // n.in = n.out through an inverter: the classic ring oscillator.
    for (sim::Engine engine : diagnosingEngines()) {
        Context ctx;
        Component &comp = ctx.addComponent("main");
        comp.addCell("n", "std_not", {1}, ctx);
        comp.continuousAssignments().emplace_back(cellPort("n", "in"),
                                                  cellPort("n", "out"));
        sim::SimProgram sp(ctx, "main");
        sim::SimState st(sp, engine);
        st.reset();
        st.beginCycle();
        st.activate(sp.root().continuous);
        try {
            st.comb();
            FAIL() << "ring oscillator was not rejected by "
                   << sim::engineName(engine);
        } catch (const Error &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find("n.in"), std::string::npos) << msg;
            EXPECT_NE(msg.find("n.out"), std::string::npos) << msg;
        }
    }
}

} // namespace
} // namespace calyx
