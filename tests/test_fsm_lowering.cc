/**
 * @file
 * Unit tests for the FSM/schedule IR (ir/fsm.h) and the three control
 * lowering stages (src/lowering/): build, optimize, realize — plus the
 * ISSUE 5 acceptance criteria: a >=3-level nested seq lowers to
 * strictly fewer FSM registers than the seed's one-per-seq-node
 * expansion, the flat lowering never mints more control registers than
 * the seed overall, and par completion bits re-arm inside loops.
 */
#include <gtest/gtest.h>

#include <functional>
#include <utility>

#include "emit/dot.h"
#include "frontends/dahlia/codegen.h"
#include "frontends/dahlia/parser.h"
#include "frontends/systolic/systolic.h"
#include "helpers.h"
#include "ir/fsm.h"
#include "lowering/lower.h"
#include "support/error.h"
#include "workloads/polybench.h"

namespace calyx {
namespace {

using testing::compiledReg;
using testing::counterProgram;
using testing::interpReg;

// --- FSM IR basics ------------------------------------------------------

TEST(FsmIr, MachineBasics)
{
    FsmMachine m("m");
    uint32_t a = m.addState("a");
    uint32_t b = m.addState("b", 3);
    uint32_t fin = m.addState("done");
    m.state(fin).accepting = true;
    m.state(a).transitions.push_back({Guard::trueGuard(), b});
    m.state(b).transitions.push_back({Guard::trueGuard(), fin});
    m.setEntry(a);

    EXPECT_EQ(m.states().size(), 3u);
    EXPECT_EQ(m.totalCodes(), 5);
    EXPECT_EQ(m.transitionCount(), 2);
    EXPECT_EQ(m.counterStates(), 1);
    EXPECT_FALSE(m.realized());

    std::string text = m.str();
    EXPECT_NE(text.find("fsm m {"), std::string::npos);
    EXPECT_NE(text.find("entry"), std::string::npos);
    EXPECT_NE(text.find("accepting"), std::string::npos);
    EXPECT_NE(text.find("span=3"), std::string::npos);
}

/**
 * The code layout realization and the profiler share: the entry state
 * owns code 0 whatever its id, the others follow in id order, and a
 * one-hot word decodes back to its code.
 */
TEST(FsmIr, CodeLayoutPutsEntryFirst)
{
    FsmMachine m("m");
    m.addState("a");
    uint32_t b = m.addState("b", 3);
    m.addState("done");
    m.setEntry(b);

    EXPECT_EQ(m.codeBases(), (std::vector<int64_t>{3, 0, 4}));
    EXPECT_EQ(m.codeStates(), (std::vector<uint32_t>{1, 1, 1, 0, 2}));
    for (FsmEncoding e : {FsmEncoding::Binary, FsmEncoding::OneHot}) {
        for (int64_t code = 0; code < m.totalCodes(); ++code) {
            uint64_t word = FsmMachine::encodeCode(e, code);
            EXPECT_EQ(FsmMachine::decodeWord(e, word), code);
        }
    }
    EXPECT_EQ(FsmMachine::encodeCode(FsmEncoding::OneHot, 0), 0u);
    EXPECT_EQ(FsmMachine::encodeCode(FsmEncoding::OneHot, 3), 4u);
    EXPECT_EQ(FsmMachine::decodeWord(FsmEncoding::OneHot, 6), -1);
}

TEST(FsmIr, CompactRemapsTargetsAndEntry)
{
    FsmMachine m("m");
    uint32_t dead = m.addState("dead");
    uint32_t a = m.addState("a");
    uint32_t fin = m.addState("done");
    m.state(fin).accepting = true;
    m.state(a).transitions.push_back({Guard::trueGuard(), fin});
    m.state(dead).transitions.push_back({Guard::trueGuard(), dead});
    m.setEntry(a);

    m.compact({false, true, true});
    ASSERT_EQ(m.states().size(), 2u);
    EXPECT_EQ(m.entry(), 0u);
    EXPECT_EQ(m.state(0).transitions[0].target, 1u);
    EXPECT_TRUE(m.state(1).accepting);
}

// --- Optimize stage -----------------------------------------------------

TEST(FsmOptimize, SimplifyGuard)
{
    GuardPtr p = Guard::fromPort(cellPort("r", "out"));
    GuardPtr q = Guard::fromPort(cellPort("s", "out"));

    // a & a -> a
    EXPECT_TRUE(Guard::equal(
        lowering::simplifyGuard(Guard::conj(p, p)), p));
    // a | a -> a
    EXPECT_TRUE(Guard::equal(
        lowering::simplifyGuard(Guard::disj(p, p)), p));
    // a & !a -> false
    EXPECT_TRUE(lowering::isFalseGuard(
        lowering::simplifyGuard(Guard::conj(p, Guard::negate(p)))));
    // a | !a -> true
    EXPECT_TRUE(
        lowering::simplifyGuard(Guard::disj(p, Guard::negate(p)))
            ->isTrue());
    // false & q -> false, false | q -> q
    GuardPtr f = Guard::negate(Guard::trueGuard());
    EXPECT_TRUE(lowering::isFalseGuard(
        lowering::simplifyGuard(Guard::conj(f, q))));
    EXPECT_TRUE(
        Guard::equal(lowering::simplifyGuard(Guard::disj(f, q)), q));
    // Nested: (p & p) | (q & !q) -> p
    EXPECT_TRUE(Guard::equal(
        lowering::simplifyGuard(Guard::disj(
            Guard::conj(p, p), Guard::conj(q, Guard::negate(q)))),
        p));
}

TEST(FsmOptimize, RemovesUnreachableStates)
{
    FsmMachine m("m");
    GuardPtr done = Guard::fromPort(holePort("g", "done"));
    uint32_t a = m.addState("a");
    uint32_t fin = m.addState("done");
    uint32_t orphan = m.addState("orphan");
    m.state(fin).accepting = true;
    m.state(a).actions.push_back(
        {holePort("g", "go"), constant(1, 1), Guard::negate(done)});
    m.state(a).transitions.push_back({done, fin});
    m.state(orphan).transitions.push_back({Guard::trueGuard(), a});
    m.setEntry(a);

    lowering::OptimizeResult r = lowering::optimize(m);
    EXPECT_EQ(r.unreachableRemoved, 1);
    EXPECT_EQ(m.states().size(), 2u);
}

TEST(FsmOptimize, MergesDuplicateStates)
{
    // Two identical enable states targeting the same continuation.
    FsmMachine m("m");
    GuardPtr done = Guard::fromPort(holePort("g", "done"));
    uint32_t fin = m.addState("done");
    m.state(fin).accepting = true;
    uint32_t s1 = m.addState("g");
    uint32_t s2 = m.addState("g");
    for (uint32_t s : {s1, s2}) {
        m.state(s).actions.push_back(
            {holePort("g", "go"), constant(1, 1), Guard::negate(done)});
        m.state(s).transitions.push_back({done, fin});
    }
    uint32_t head = m.addState("if");
    GuardPtr p = Guard::fromPort(cellPort("c", "out"));
    m.state(head).transitions.push_back({p, s1});
    m.state(head).transitions.push_back({Guard::negate(p), s2});
    m.setEntry(head);

    lowering::OptimizeResult r = lowering::optimize(m);
    EXPECT_EQ(r.statesMerged, 1);
    EXPECT_EQ(m.states().size(), 3u);
    // Both branches now share one state.
    const FsmState &h = m.state(m.entry());
    ASSERT_EQ(h.transitions.size(), 2u);
    EXPECT_EQ(h.transitions[0].target, h.transitions[1].target);
}

TEST(FsmOptimize, ForwardsEmptyPassThroughStates)
{
    FsmMachine m("m");
    uint32_t fin = m.addState("done");
    m.state(fin).accepting = true;
    uint32_t hop = m.addState("hop"); // no actions, unconditional exit
    m.state(hop).transitions.push_back({Guard::trueGuard(), fin});
    uint32_t a = m.addState("a");
    GuardPtr done = Guard::fromPort(holePort("g", "done"));
    m.state(a).actions.push_back(
        {holePort("g", "go"), constant(1, 1), Guard::negate(done)});
    m.state(a).transitions.push_back({done, hop});
    m.setEntry(a);

    lowering::OptimizeResult r = lowering::optimize(m);
    EXPECT_EQ(r.statesForwarded, 1);
    EXPECT_EQ(m.states().size(), 2u);
    EXPECT_EQ(m.state(m.entry()).transitions[0].target,
              m.entry() == 0u ? 1u : 0u);
}

// --- Realize stage ------------------------------------------------------

/** seq { a; b; c } over three register writes. */
Context
seq3Program()
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("x", 8);
    b.reg("y", 8);
    b.reg("z", 8);
    b.regWriteGroup("wa", "x", constant(1, 8));
    b.regWriteGroup("wb", "y", constant(2, 8));
    b.regWriteGroup("wc", "z", constant(3, 8));
    std::vector<ControlPtr> s;
    s.push_back(ComponentBuilder::enable("wa"));
    s.push_back(ComponentBuilder::enable("wb"));
    s.push_back(ComponentBuilder::enable("wc"));
    b.component().setControl(ComponentBuilder::seq(std::move(s)));
    return ctx;
}

TEST(FsmRealize, MachineRecordedOnComponent)
{
    Context ctx = seq3Program();
    passes::runPipeline(ctx, "default");
    const Component &main = ctx.component("main");
    ASSERT_EQ(main.fsms().size(), 1u);
    const FsmMachine &m = *main.fsms()[0];
    EXPECT_TRUE(m.realized());
    EXPECT_EQ(m.encoding(), FsmEncoding::Binary);
    EXPECT_EQ(m.registerCell(), Symbol("fsm0"));
    EXPECT_EQ(m.states().size(), 4u); // wa, wb, wc, done
    FsmStats stats = fsmStats(main);
    EXPECT_EQ(stats.machines, 1);
    EXPECT_EQ(stats.registers, 1);
    EXPECT_EQ(stats.seedRegisters, 1);
    EXPECT_GT(stats.loweringSeconds, 0.0);
}

TEST(FsmRealize, OneHotMatchesBinary)
{
    auto run = [](const std::string &enc, uint64_t *cycles) {
        Context ctx = counterProgram(4, 3);
        return compiledReg(
            ctx, "x",
            "well-formed,collapse-control,infer-latency,go-insertion,"
            "compile-control[encoding=" + enc + "],remove-groups,"
            "dead-cell-removal",
            cycles);
    };
    uint64_t bin_cycles = 0, hot_cycles = 0;
    EXPECT_EQ(run("binary", &bin_cycles), 12u);
    EXPECT_EQ(run("one-hot", &hot_cycles), 12u);
    EXPECT_EQ(bin_cycles, hot_cycles);

    Context ctx = counterProgram(4, 3);
    passes::runPipeline(
        ctx, "well-formed,collapse-control,infer-latency,go-insertion,"
             "compile-control[encoding=one-hot]");
    ASSERT_EQ(ctx.component("main").fsms().size(), 1u);
    EXPECT_EQ(ctx.component("main").fsms()[0]->encoding(),
              FsmEncoding::OneHot);
}

TEST(FsmRealize, OneHotFallsBackToBinaryPastWidthLimit)
{
    // 70 states + accepting exceed the 64-slot one-hot budget.
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("x", 8);
    std::vector<ControlPtr> s;
    for (int k = 0; k < 70; ++k) {
        std::string name = "w" + std::to_string(k);
        b.regWriteGroup(name, "x", constant(k % 200, 8));
        s.push_back(ComponentBuilder::enable(name));
    }
    b.component().setControl(ComponentBuilder::seq(std::move(s)));
    passes::runPipeline(
        ctx, "well-formed,go-insertion,"
             "compile-control[encoding=one-hot],remove-groups");
    const Component &main = ctx.component("main");
    ASSERT_EQ(main.fsms().size(), 1u);
    EXPECT_EQ(main.fsms()[0]->encoding(), FsmEncoding::Binary);
    sim::SimProgram sp(ctx, "main");
    sim::CycleSim cs(sp);
    cs.run();
    EXPECT_EQ(*sp.findModel("x")->registerValue(), 69u);
}

// --- Acceptance: register counts ---------------------------------------

/** seq{ w0; seq{ w1; seq{ w2; w3 } } }: three levels of nesting. */
Context
nestedSeqProgram()
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("x", 8);
    for (int k = 0; k < 4; ++k)
        b.regWriteGroup("w" + std::to_string(k), "x",
                        constant(k + 1, 8));
    std::vector<ControlPtr> inner2;
    inner2.push_back(ComponentBuilder::enable("w2"));
    inner2.push_back(ComponentBuilder::enable("w3"));
    std::vector<ControlPtr> inner1;
    inner1.push_back(ComponentBuilder::enable("w1"));
    inner1.push_back(ComponentBuilder::seq(std::move(inner2)));
    std::vector<ControlPtr> top;
    top.push_back(ComponentBuilder::enable("w0"));
    top.push_back(ComponentBuilder::seq(std::move(inner1)));
    b.component().setControl(ComponentBuilder::seq(std::move(top)));
    return ctx;
}

TEST(FsmAcceptance, NestedSeqUsesStrictlyFewerFsmRegisters)
{
    // Keep the nesting (no collapse-control) so the seed comparison is
    // against one register per seq node.
    Context ctx = nestedSeqProgram();
    passes::runPipeline(ctx,
                        "well-formed,infer-latency,go-insertion,"
                        "compile-control,remove-groups");
    const Component &main = ctx.component("main");
    FsmStats stats = fsmStats(main);
    EXPECT_EQ(stats.seedRegisters, 3); // one per nested seq node
    EXPECT_EQ(stats.registers, 1);     // one flat machine
    EXPECT_LT(stats.registers, stats.seedRegisters);
    // Cross-check against the actual cells, not just the bookkeeping.
    int fsm_cells = 0;
    for (const auto &cell : main.cells()) {
        if (cell->type() == Symbol("std_reg") &&
            cell->name().str().rfind("fsm", 0) == 0)
            ++fsm_cells;
    }
    EXPECT_EQ(fsm_cells, 1);

    // And the flat machine still computes the same result.
    Context check = nestedSeqProgram();
    EXPECT_EQ(compiledReg(check, "x", "default"), 4u);
}

/**
 * Control-heavy design: `loops` while loops in sequence, each around a
 * nested seq, an if and a par over register writes. The shape the flat
 * FSM lowering exists for.
 */
Context
controlHeavyProgram(int loops)
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("x", 16);
    b.reg("y", 16);
    b.add("ax", 16);
    int groups = 0;
    auto write = [&](const std::string &dst) {
        std::string g = "w" + std::to_string(groups++);
        b.regWriteGroup(g, dst, constant(groups % 100, 16));
        return ComponentBuilder::enable(g);
    };
    std::vector<ControlPtr> top;
    for (int l = 0; l < loops; ++l) {
        std::string id = std::to_string(l);
        b.reg("i" + id, 8);
        b.add("ia" + id, 8);
        b.cell("lt" + id, "std_lt", {8});
        b.regWriteGroup("init" + id, "i" + id, constant(0, 8));
        Group &cond = b.group("cond" + id);
        cond.add(cellPort("lt" + id, "left"), cellPort("i" + id, "out"));
        cond.add(cellPort("lt" + id, "right"), constant(3, 8));
        cond.add(cond.doneHole(), constant(1, 1));
        Group &bump = b.group("bump" + id);
        bump.add(cellPort("ia" + id, "left"), cellPort("i" + id, "out"));
        bump.add(cellPort("ia" + id, "right"), constant(1, 8));
        bump.add(cellPort("i" + id, "in"), cellPort("ia" + id, "out"));
        bump.add(cellPort("i" + id, "write_en"), constant(1, 1));
        bump.add(bump.doneHole(), cellPort("i" + id, "done"));

        std::vector<ControlPtr> inner2;
        inner2.push_back(write("x"));
        inner2.push_back(write("x"));
        std::vector<ControlPtr> inner1;
        inner1.push_back(write("x"));
        inner1.push_back(ComponentBuilder::seq(std::move(inner2)));
        std::vector<ControlPtr> arms;
        arms.push_back(write("x"));
        arms.push_back(write("y"));
        std::vector<ControlPtr> body;
        body.push_back(ComponentBuilder::seq(std::move(inner1)));
        body.push_back(ComponentBuilder::ifStmt(cellPort("lt" + id, "out"),
                                                "cond" + id, write("x"),
                                                write("y")));
        body.push_back(ComponentBuilder::par(std::move(arms)));
        body.push_back(ComponentBuilder::enable("bump" + id));
        top.push_back(ComponentBuilder::enable("init" + id));
        top.push_back(ComponentBuilder::whileStmt(
            cellPort("lt" + id, "out"), "cond" + id,
            ComponentBuilder::seq(std::move(body))));
    }
    b.component().setControl(ComponentBuilder::seq(std::move(top)));
    return ctx;
}

TEST(FsmAcceptance, FlatNeverMintsMoreControlRegistersThanSeed)
{
    std::vector<std::pair<std::string, std::function<Context()>>> shapes = {
        {"counter", [] { return counterProgram(3, 2); }},
        {"seq3", [] { return seq3Program(); }},
        {"nested seq", [] { return nestedSeqProgram(); }},
    };
    // Under `all` also the designs bench_perf compiles, and a
    // control-heavy design that must lower to at least one machine.
    std::vector<std::pair<std::string, std::function<Context()>>> more = {
        {"control heavy", [] { return controlHeavyProgram(6); }},
        {"gemm", [] { return dahlia::compileDahlia(dahlia::parse(
                          workloads::kernel("gemm").source)); }},
        {"atax", [] { return dahlia::compileDahlia(dahlia::parse(
                          workloads::kernel("atax").source)); }},
    };
    for (int dim : {8, 16}) {
        more.emplace_back("systolic " + std::to_string(dim), [dim] {
            Context ctx;
            systolic::Config cfg;
            cfg.rows = cfg.cols = cfg.inner = dim;
            systolic::generate(ctx, cfg);
            return ctx;
        });
    }
    for (const auto &spec : {std::string("default"), std::string("all")}) {
        if (spec == "all")
            shapes.insert(shapes.end(), more.begin(), more.end());
        for (const auto &[name, build] : shapes) {
            Context ctx = build();
            passes::runPipeline(ctx, spec);
            int machines = 0;
            for (const auto &comp : ctx.components()) {
                FsmStats stats = fsmStats(*comp);
                EXPECT_LE(stats.controlRegisters, stats.seedRegisters)
                    << name << ": " << comp->name().str() << " with "
                    << spec;
                machines += stats.machines;
            }
            if (name == "control heavy") {
                EXPECT_GE(machines, 1) << "with " << spec;
            }
        }
    }
}

// --- Satellite: par completion-bit lifecycle ---------------------------

/**
 * while (i < 2) { par { slow mult; fast write }; i += 1 }
 * The completion bits must clear when the par exits so the second
 * iteration waits for both children again; a stale bit would let the
 * par complete instantly and skip the multiply.
 */
Context
parInWhileProgram()
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("x", 16);
    b.reg("y", 16);
    b.reg("i", 8);
    b.cell("lt", "std_lt", {8});
    b.cell("mul", "std_mult_pipe", {16});
    b.add("ax", 16);
    b.add("ai", 8);
    b.regWriteGroup("init", "i", constant(0, 8));
    Group &cond = b.group("cond");
    cond.add(cellPort("lt", "left"), cellPort("i", "out"));
    cond.add(cellPort("lt", "right"), constant(2, 8));
    cond.add(cond.doneHole(), constant(1, 1));
    Group &slow = b.group("slow");
    // y = 3 * i: observably different per iteration (i bumps after the
    // par), so a skipped second iteration leaves y at 3*0 = 0.
    b.cell("pad", "std_pad", {8, 16});
    slow.add(cellPort("pad", "in"), cellPort("i", "out"));
    slow.add(cellPort("mul", "left"), cellPort("pad", "out"));
    slow.add(cellPort("mul", "right"), constant(3, 16));
    slow.add(cellPort("mul", "go"), constant(1, 1),
             Guard::negate(Guard::fromPort(cellPort("mul", "done"))));
    slow.add(cellPort("y", "in"), cellPort("mul", "out"),
             Guard::fromPort(cellPort("mul", "done")));
    slow.add(cellPort("y", "write_en"), constant(1, 1),
             Guard::fromPort(cellPort("mul", "done")));
    slow.add(slow.doneHole(), cellPort("y", "done"));
    Group &fast = b.group("fast");
    fast.add(cellPort("ax", "left"), cellPort("x", "out"));
    fast.add(cellPort("ax", "right"), constant(5, 16));
    fast.add(cellPort("x", "in"), cellPort("ax", "out"));
    fast.add(cellPort("x", "write_en"), constant(1, 1));
    fast.add(fast.doneHole(), cellPort("x", "done"));
    Group &bump = b.group("bump");
    bump.add(cellPort("ai", "left"), cellPort("i", "out"));
    bump.add(cellPort("ai", "right"), constant(1, 8));
    bump.add(cellPort("i", "in"), cellPort("ai", "out"));
    bump.add(cellPort("i", "write_en"), constant(1, 1));
    bump.add(bump.doneHole(), cellPort("i", "done"));

    std::vector<ControlPtr> arms;
    arms.push_back(ComponentBuilder::enable("slow"));
    arms.push_back(ComponentBuilder::enable("fast"));
    std::vector<ControlPtr> body;
    body.push_back(ComponentBuilder::par(std::move(arms)));
    body.push_back(ComponentBuilder::enable("bump"));
    std::vector<ControlPtr> top;
    top.push_back(ComponentBuilder::enable("init"));
    top.push_back(ComponentBuilder::whileStmt(
        cellPort("lt", "out"), "cond",
        ComponentBuilder::seq(std::move(body))));
    b.component().setControl(ComponentBuilder::seq(std::move(top)));
    return ctx;
}

TEST(FsmParReset, ParInsideWhileRearmsOnSecondIteration)
{
    // Interpreter oracle.
    Context src = parInWhileProgram();
    sim::SimProgram sp(src, "main");
    sim::Interp interp(sp);
    interp.run();
    uint64_t want_x = *sp.findModel("x")->registerValue();
    uint64_t want_y = *sp.findModel("y")->registerValue();
    uint64_t want_i = *sp.findModel("i")->registerValue();
    EXPECT_EQ(want_x, 10u); // two iterations of +5
    EXPECT_EQ(want_y, 3u);  // second iteration's multiply: 3 * 1
    EXPECT_EQ(want_i, 2u);

    // Both engines on the compiled design (satellite: exactly this
    // shape, through both engines).
    for (sim::Engine engine :
         {sim::Engine::Jacobi, sim::Engine::Levelized}) {
        Context ctx = parInWhileProgram();
        passes::runPipeline(ctx, "default");
        sim::SimProgram spc(ctx, "main");
        sim::CycleSim cs(spc, engine);
        cs.run();
        EXPECT_EQ(*spc.findModel("x")->registerValue(), want_x);
        EXPECT_EQ(*spc.findModel("y")->registerValue(), want_y);
        EXPECT_EQ(*spc.findModel("i")->registerValue(), want_i);
    }
}

// --- dot FSM view -------------------------------------------------------

TEST(FsmDot, EmitsMachineClusters)
{
    Context ctx = seq3Program();
    passes::runPipeline(ctx, "default");
    std::string dot = emit::DotBackend().emitString(ctx);
    EXPECT_NE(dot.find("cluster_main/fsm_control0"), std::string::npos);
    EXPECT_NE(dot.find("doublecircle"), std::string::npos) // accepting
        << dot;
    EXPECT_NE(dot.find("label=\"wa\""), std::string::npos); // state name
    EXPECT_NE(dot.find("wa[done]"), std::string::npos); // transition guard
}

// --- fuse-static --------------------------------------------------------

TEST(FsmFuseStatic, FusesStaticSubtreesIntoCounterStates)
{
    auto run = [](const std::string &cc_opts, uint64_t *cycles,
                  Context *out) {
        Context ctx = counterProgram(5, 2);
        uint64_t x = compiledReg(
            ctx, "x",
            "well-formed,collapse-control,infer-latency,go-insertion,"
            "compile-control" + cc_opts + ",remove-groups",
            cycles);
        if (out)
            *out = std::move(ctx);
        return x;
    };
    uint64_t plain = 0, fused = 0;
    Context fused_ctx;
    EXPECT_EQ(run("", &plain, nullptr), 10u);
    EXPECT_EQ(run("[fuse-static=true]", &fused, &fused_ctx), 10u);
    EXPECT_LT(fused, plain);
    FsmStats stats = fsmStats(fused_ctx.component("main"));
    EXPECT_GT(stats.counterStates, 0)
        << "static body should fuse into a counter state";
}

TEST(FsmFuseStatic, CounterStateAtEndOfPowerOfTwoCodeSpace)
{
    // Regression: a fused counter state laid out at the end of the code
    // space needs its exclusive window bound (`fsm < base+span`) to fit
    // the register width. Shape: done(1) + if(1) + sqrt(1) + fused
    // seq of latency 5 -> 8 codes, window bound 8.
    auto build = [] {
        Context ctx;
        auto b = ComponentBuilder::create(ctx, "main");
        b.reg("f", 1);
        b.reg("x", 8);
        b.reg("r", 8);
        b.cell("sq", "std_sqrt", {8});
        b.regWriteGroup("w1", "x", constant(9, 8));
        Group &w4 = b.regWriteGroup("w4", "r", constant(25, 8));
        w4.attrs().set(Attributes::staticAttr, 4);
        Group &q = b.group("q");
        GuardPtr done = Guard::fromPort(cellPort("sq", "done"));
        q.add(cellPort("sq", "in"), cellPort("x", "out"));
        q.add(cellPort("sq", "go"), constant(1, 1), Guard::negate(done));
        q.add(cellPort("r", "in"), cellPort("sq", "out"), done);
        q.add(cellPort("r", "write_en"), constant(1, 1), done);
        q.add(q.doneHole(), cellPort("r", "done"));
        Group &cond = b.group("c");
        cond.add(cond.doneHole(), constant(1, 1));
        std::vector<ControlPtr> stat;
        stat.push_back(ComponentBuilder::enable("w1"));
        stat.push_back(ComponentBuilder::enable("w4"));
        b.component().setControl(ComponentBuilder::ifStmt(
            cellPort("f", "out"), "c", ComponentBuilder::enable("q"),
            ComponentBuilder::seq(std::move(stat))));
        return ctx;
    };
    // f resets to 0, so the fused static else-branch runs: r = 25.
    Context ctx = build();
    EXPECT_EQ(compiledReg(
                  ctx, "r",
                  "well-formed,infer-latency,go-insertion,"
                  "compile-control[fuse-static=true],remove-groups"),
              25u);
}

} // namespace
} // namespace calyx
