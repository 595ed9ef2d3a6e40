#include <gtest/gtest.h>

#include "helpers.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "sim/batch.h"
#include "sim/compiled.h"
#include "sim/env.h"
#include "support/error.h"

namespace calyx {
namespace {

TEST(SimEdge, DisjointGuardedDriversAreLegal)
{
    Context ctx;
    Component &comp = ctx.addComponent("main");
    comp.addCell("f", "std_reg", {1}, ctx);
    comp.addCell("x", "std_reg", {8}, ctx);
    GuardPtr f = Guard::fromPort(cellPort("f", "out"));
    comp.continuousAssignments().emplace_back(cellPort("x", "in"),
                                              constant(1, 8), f);
    comp.continuousAssignments().emplace_back(cellPort("x", "in"),
                                              constant(2, 8),
                                              Guard::negate(f));
    sim::SimProgram sp(ctx, "main");
    sim::SimState st(sp);
    st.reset();
    st.beginCycle();
    st.activate(sp.root().continuous);
    EXPECT_NO_THROW(st.comb());
    EXPECT_EQ(st.value("x.in"), 2u); // f resets to 0
}

TEST(SimEdge, UnknownCellPathSuggestsClosest)
{
    Context ctx = testing::counterProgram(3, 2);
    passes::runPipeline(ctx, "default");
    sim::SimProgram prog(ctx, "main");
    try {
        prog.findModel("xx"); // actual register is "x"
        FAIL() << "expected an unknown-cell-path error";
    } catch (const Error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown cell path"), std::string::npos) << msg;
        EXPECT_NE(msg.find("did you mean"), std::string::npos) << msg;
    }
}

TEST(SimEdge, UnknownPortPathSuggestsClosest)
{
    Context ctx = testing::counterProgram(3, 2);
    passes::runPipeline(ctx, "default");
    sim::SimProgram prog(ctx, "main");
    try {
        prog.portId("x.outt");
        FAIL() << "expected an unknown-port-path error";
    } catch (const Error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown port path"), std::string::npos) << msg;
        EXPECT_NE(msg.find("did you mean 'x.out'"), std::string::npos)
            << msg;
    }
}

TEST(SimEdge, OutOfBoundsReadReturnsZero)
{
    Context ctx;
    Component &comp = ctx.addComponent("main");
    comp.addCell("m", "std_mem_d1", {8, 5, 3}, ctx);
    sim::SimProgram sp(ctx, "main");
    sim::SimState st(sp);
    st.reset();
    (*sp.findModel("m")->memory())[4] = 77;
    st.beginCycle();
    st.force(sp.portId("m.addr0"), 7); // size is 5
    st.comb();
    EXPECT_EQ(st.value("m.read_data"), 0u);
}

TEST(SimEdge, OutOfBoundsWriteIsAnError)
{
    // Twelve equal memories, so the compiled module clocks them in one
    // table loop. All of them write, and only the seventh is out of
    // bounds: every engine names that cell, the address and the size,
    // and stops after the writes of the cells before it.
    const int n = 12, bad = 6;
    Context ctx;
    Component &comp = ctx.addComponent("main");
    for (int i = 0; i < n; ++i)
        comp.addCell("m" + std::to_string(i), "std_mem_d1", {8, 5, 3}, ctx);
    sim::SimProgram sp(ctx, "main");

    std::vector<sim::Engine> engines = {sim::Engine::Jacobi,
                                        sim::Engine::Levelized};
    if (sim::compiledEngineUnavailableReason().empty())
        engines.push_back(sim::Engine::Compiled);
    for (sim::Engine engine : engines) {
        for (int i = 0; i < n; ++i) {
            auto *mem = sp.findModel("m" + std::to_string(i))->memory();
            std::fill(mem->begin(), mem->end(), 0);
        }
        sim::SimState st(sp, engine);
        st.reset();
        st.beginCycle();
        st.activate(sp.root().continuous);
        for (int i = 0; i < n; ++i) {
            std::string m = "m" + std::to_string(i);
            st.force(sp.portId(m + ".addr0"), i == bad ? 6 : 4);
            st.force(sp.portId(m + ".write_en"), 1);
            st.force(sp.portId(m + ".write_data"), 100 + i);
        }
        st.comb();
        try {
            st.clock();
            ADD_FAILURE() << "no error from " << sim::engineName(engine);
        } catch (const Error &e) {
            EXPECT_EQ(std::string(e.what()),
                      "memory m6: write to out-of-bounds address 6 (size 5)")
                << sim::engineName(engine);
        }
        for (int i = 0; i < n; ++i) {
            auto *mem = sp.findModel("m" + std::to_string(i))->memory();
            EXPECT_EQ((*mem)[4], i < bad ? 100u + i : 0u)
                << sim::engineName(engine) << " m" << i;
        }
    }
}

TEST(SimEdge, DualReadPortsSeeSameContents)
{
    Context ctx;
    Component &comp = ctx.addComponent("main");
    comp.addCell("m", "std_mem_d1", {8, 4, 2}, ctx);
    sim::SimProgram sp(ctx, "main");
    sim::SimState st(sp);
    st.reset();
    auto *mem = sp.findModel("m")->memory();
    (*mem)[1] = 11;
    (*mem)[3] = 33;
    st.beginCycle();
    st.force(sp.portId("m.addr0"), 1);
    st.force(sp.portId("m.addr0_1"), 3);
    st.comb();
    EXPECT_EQ(st.value("m.read_data"), 11u);
    EXPECT_EQ(st.value("m.read_data_1"), 33u);
}

TEST(SimEdge, ThreeLevelHierarchy)
{
    // leaf sets a register; mid invokes leaf; main invokes mid.
    Context ctx;
    auto lb = ComponentBuilder::create(ctx, "leaf");
    lb.reg("r", 8);
    lb.regWriteGroup("w", "r", constant(9, 8));
    lb.component().setControl(ComponentBuilder::enable("w"));

    auto mb = ComponentBuilder::create(ctx, "mid");
    mb.cell("l", "leaf", {});
    Group &invoke_l = mb.group("invoke_l");
    invoke_l.add(cellPort("l", "go"), constant(1, 1));
    invoke_l.add(invoke_l.doneHole(), cellPort("l", "done"));
    mb.component().setControl(ComponentBuilder::enable("invoke_l"));

    auto tb = ComponentBuilder::create(ctx, "main");
    tb.cell("m", "mid", {});
    Group &invoke_m = tb.group("invoke_m");
    invoke_m.add(cellPort("m", "go"), constant(1, 1));
    invoke_m.add(invoke_m.doneHole(), cellPort("m", "done"));
    tb.component().setControl(ComponentBuilder::enable("invoke_m"));

    // Both engines agree on the deep register.
    {
        sim::SimProgram sp(ctx, "main");
        sim::Interp interp(sp);
        interp.run();
        EXPECT_EQ(*sp.findModel("m/l/r")->registerValue(), 9u);
    }
    passes::runPipeline(ctx, "default");
    sim::SimProgram sp(ctx, "main");
    sim::CycleSim cs(sp);
    cs.run();
    EXPECT_EQ(*sp.findModel("m/l/r")->registerValue(), 9u);
}

TEST(SimEdge, SubComponentReinvocationInLoop)
{
    // A sub-component invoked from inside a while loop must re-arm
    // between iterations (compilation-group reset, §4.3).
    Context ctx;
    auto pb = ComponentBuilder::create(ctx, "adder5");
    pb.reg("acc", 16);
    Group &bump = pb.group("bump");
    Component &pe = pb.component();
    pb.cell("a", "std_add", {16});
    bump.add(cellPort("a", "left"), cellPort("acc", "out"));
    bump.add(cellPort("a", "right"), constant(5, 16));
    bump.add(cellPort("acc", "in"), cellPort("a", "out"));
    bump.add(cellPort("acc", "write_en"), constant(1, 1));
    bump.add(bump.doneHole(), cellPort("acc", "done"));
    pe.setControl(ComponentBuilder::enable("bump"));

    Context loop_ctx = testing::counterProgram(4, 1);
    (void)loop_ctx; // structure reference only

    auto mb = ComponentBuilder::create(ctx, "main");
    mb.cell("p", "adder5", {});
    mb.reg("i", 8);
    mb.cell("lt", "std_lt", {8});
    mb.add("ai", 8);
    mb.regWriteGroup("init", "i", constant(0, 8));
    Group &cond = mb.group("cond");
    cond.add(cellPort("lt", "left"), cellPort("i", "out"));
    cond.add(cellPort("lt", "right"), constant(3, 8));
    cond.add(cond.doneHole(), constant(1, 1));
    Group &call = mb.group("call");
    call.add(cellPort("p", "go"), constant(1, 1));
    call.add(call.doneHole(), cellPort("p", "done"));
    Group &step = mb.group("step");
    step.add(cellPort("ai", "left"), cellPort("i", "out"));
    step.add(cellPort("ai", "right"), constant(1, 8));
    step.add(cellPort("i", "in"), cellPort("ai", "out"));
    step.add(cellPort("i", "write_en"), constant(1, 1));
    step.add(step.doneHole(), cellPort("i", "done"));
    std::vector<ControlPtr> body;
    body.push_back(ComponentBuilder::enable("call"));
    body.push_back(ComponentBuilder::enable("step"));
    std::vector<ControlPtr> top;
    top.push_back(ComponentBuilder::enable("init"));
    top.push_back(ComponentBuilder::whileStmt(
        cellPort("lt", "out"), "cond",
        ComponentBuilder::seq(std::move(body))));
    mb.component().setControl(ComponentBuilder::seq(std::move(top)));

    for (bool sensitive : {false, true}) {
        Context copy = Parser::parseProgram(Printer::toString(ctx));
        passes::runPipeline(
            copy, sensitive ? "all,-resource-sharing,-register-sharing"
                            : "default");
        sim::SimProgram sp(copy, "main");
        sim::CycleSim cs(sp);
        cs.run();
        EXPECT_EQ(*sp.findModel("p/acc")->registerValue(), 15u)
            << "sensitive=" << sensitive;
    }
}

TEST(SimEdge, ForcesBeatAssignments)
{
    // Interpreter-style forces take precedence over the zero default
    // but coexist with assignments to other ports.
    Context ctx;
    Component &comp = ctx.addComponent("main");
    comp.addCell("x", "std_reg", {8}, ctx);
    sim::SimProgram sp(ctx, "main");
    sim::SimState st(sp);
    st.reset();
    st.beginCycle();
    st.force(sp.portId("x.in"), 42);
    st.force(sp.portId("x.write_en"), 1);
    st.comb();
    st.clock();
    EXPECT_EQ(*sp.findModel("x")->registerValue(), 42u);
}

TEST(SimEdge, DeepGuardUsesHeapScratch)
{
    // A right-leaning conjunction deeper than the inline eval stack
    // (sexprInlineDepth) used to overflow a fixed 64-slot buffer with
    // no bound check; guards now carry their compile-time max depth and
    // fall back to heap scratch. The levelized engine evaluates the same
    // guard through the guard DAG's explicit stack on both its walks:
    // scalar and the batch lane tile. The compiled engine emits it
    // through block locals, from the same DAG, into one `gv[]` slot
    // that both acyclic readers share.
    Context ctx;
    Component &comp = ctx.addComponent("main");
    comp.addCell("f", "std_reg", {1}, ctx);
    comp.addCell("x", "std_reg", {8}, ctx);
    GuardPtr leaf = Guard::negate(Guard::fromPort(cellPort("f", "out")));
    GuardPtr chain = leaf;
    for (uint32_t i = 0; i < 2 * sim::sexprInlineDepth; ++i)
        chain = Guard::conj(leaf, chain);
    auto &assigns = comp.continuousAssignments();
    assigns.emplace_back(cellPort("x", "in"), constant(7, 8), chain);
    assigns.emplace_back(cellPort("x", "write_en"), constant(1, 1), chain);
    assigns.emplace_back(thisPort("done"), cellPort("x", "done"));

    sim::SimProgram sp(ctx, "main");
    std::vector<sim::Engine> fast = {sim::Engine::Levelized};
    if (sim::compiledEngineUnavailableReason().empty())
        fast.push_back(sim::Engine::Compiled);
    std::vector<sim::Engine> scalar = fast;
    scalar.insert(scalar.begin(), sim::Engine::Jacobi);
    for (sim::Engine engine : scalar) {
        sim::SimState st(sp, engine);
        st.reset();
        st.beginCycle();
        st.activate(sp.root().continuous);
        EXPECT_NO_THROW(st.comb());
        // f resets to 0, so every !f.out conjunct is true.
        EXPECT_EQ(st.value("x.in"), 7u) << sim::engineName(engine);
    }

    // Batch 3 runs as three one-lane compiled tiles or one three-lane
    // levelized tile; batch 17 as a 16-lane tile and a one-lane tile
    // (the scalar module, or a narrowed levelized tile). With two
    // threads the tiles run concurrently, each walking its own guard
    // memo planes or module instance.
    for (sim::Engine engine : fast) {
        for (size_t n : {3, 17}) {
            for (unsigned threads : {1u, 2u}) {
                sim::BatchOptions opts;
                opts.engine = engine;
                opts.threads = threads;
                auto results = sim::BatchRunner(sp, opts).run(
                    std::vector<sim::Stimulus>(n));
                ASSERT_EQ(results.size(), n);
                std::string label = std::string("batch ") +
                                    std::to_string(n) + ", " +
                                    sim::engineName(engine) + " x" +
                                    std::to_string(threads);
                for (const sim::LaneResult &r : results) {
                    // Cycle 1 writes x; x.done raises the top done in
                    // cycle 2.
                    EXPECT_EQ(r.cycles, 2u) << label;
                    EXPECT_EQ(r.regs, (std::vector<uint64_t>{0, 7}))
                        << label;
                }
            }
        }
    }
}

TEST(SimEdge, GuardDagSharesIdenticalSubterms)
{
    // Three guards over one `go & !done` subterm, the third built from
    // fresh Guard objects: hash-consing gives the subterm one node and
    // the structurally identical guard the same root.
    Context ctx;
    Component &comp = ctx.addComponent("main");
    comp.addCell("f", "std_reg", {1}, ctx);
    comp.addCell("h", "std_reg", {1}, ctx);
    for (const char *w : {"x", "y", "z", "u"})
        comp.addCell(w, "std_wire", {1}, ctx);
    auto goNotDone = [] {
        return Guard::conj(Guard::fromPort(thisPort("go")),
                           Guard::negate(Guard::fromPort(thisPort("done"))));
    };
    GuardPtr sub = goNotDone();
    GuardPtr f = Guard::fromPort(cellPort("f", "out"));
    GuardPtr h = Guard::fromPort(cellPort("h", "out"));
    auto &assigns = comp.continuousAssignments();
    assigns.emplace_back(cellPort("x", "in"), constant(1, 1),
                         Guard::conj(sub, f));
    assigns.emplace_back(cellPort("y", "in"), constant(1, 1),
                         Guard::disj(sub, h));
    assigns.emplace_back(cellPort("z", "in"), constant(1, 1), goNotDone());
    assigns.emplace_back(cellPort("u", "in"), constant(1, 1));

    sim::SimProgram sp(ctx, "main");
    const sim::GuardDag &dag = sp.guardDag();
    const auto &cont = sp.root().continuous;
    ASSERT_EQ(cont.size(), 4u);

    // Trees: 6 + 6 + 4 + 0 nodes. DAG: go, done, !done, go & !done,
    // f, (..) & f, h, (..) | h.
    EXPECT_EQ(dag.treeNodes, 16u);
    EXPECT_EQ(dag.nodes.size(), 8u);

    uint32_t subId = cont[2].guardRoot;
    ASSERT_LT(subId, dag.nodes.size());
    EXPECT_EQ(dag.nodes[subId].op, sim::SExpr::Op::And);
    EXPECT_EQ(dag.nodes[cont[0].guardRoot].a, subId);
    EXPECT_EQ(dag.nodes[cont[1].guardRoot].a, subId);
    EXPECT_EQ(cont[3].guardRoot, sim::GuardDag::alwaysTrue);

    // Postorder interning: every child precedes its parent.
    for (uint32_t id = 0; id < dag.nodes.size(); ++id) {
        const sim::SExpr::Node &n = dag.nodes[id];
        switch (n.op) {
          case sim::SExpr::Op::Not:
            EXPECT_LT(n.a, id);
            break;
          case sim::SExpr::Op::And:
          case sim::SExpr::Op::Or:
            EXPECT_LT(n.a, id);
            EXPECT_LT(n.b, id);
            break;
          default:
            break;
        }
    }
}

TEST(SimEdge, PortNameLookupErrors)
{
    Context ctx;
    ctx.addComponent("main");
    sim::SimProgram sp(ctx, "main");
    EXPECT_THROW(sp.portId("nonexistent.port"), Error);
    EXPECT_THROW(sp.findModel("ghost"), Error);
}

} // namespace
} // namespace calyx
