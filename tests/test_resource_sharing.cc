#include <gtest/gtest.h>

#include "helpers.h"
#include "passes/resource_sharing.h"

namespace calyx {
namespace {

using passes::ResourceSharing;
using testing::compiledReg;

/**
 * Figure 3's example: par{let_r0, let_r1} then incr_r0; incr_r1 with
 * separate adders a0/a1 that can be shared.
 */
Context
figure3Program()
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("r0", 8);
    b.reg("r1", 8);
    b.add("a0", 8);
    b.add("a1", 8);
    b.regWriteGroup("let_r0", "r0", constant(0, 8));
    b.regWriteGroup("let_r1", "r1", constant(0, 8));
    auto incr = [&b](const std::string &name, const std::string &reg,
                     const std::string &adder) {
        Group &g = b.group(name);
        g.add(cellPort(adder, "left"), cellPort(reg, "out"));
        g.add(cellPort(adder, "right"), constant(1, 8));
        g.add(cellPort(reg, "in"), cellPort(adder, "out"));
        g.add(cellPort(reg, "write_en"), constant(1, 1));
        g.add(g.doneHole(), cellPort(reg, "done"));
    };
    incr("incr_r0", "r0", "a0");
    incr("incr_r1", "r1", "a1");

    std::vector<ControlPtr> lets;
    lets.push_back(ComponentBuilder::enable("let_r0"));
    lets.push_back(ComponentBuilder::enable("let_r1"));
    std::vector<ControlPtr> top;
    top.push_back(ComponentBuilder::par(std::move(lets)));
    top.push_back(ComponentBuilder::enable("incr_r0"));
    top.push_back(ComponentBuilder::enable("incr_r1"));
    ctx.component("main").setControl(
        ComponentBuilder::seq(std::move(top)));
    return ctx;
}

TEST(ResourceSharing, SharesSequentialAdders)
{
    Context ctx = figure3Program();
    ResourceSharing pass;
    pass.runOnContext(ctx);
    EXPECT_EQ(pass.merged(), 1);

    // incr_r1 now uses a0 (the paper's mapping a1 -> a0).
    const Group &g = ctx.component("main").group("incr_r1");
    bool uses_a0 = false, uses_a1 = false;
    for (const auto &a : g.assignments()) {
        if (a.dst.parent == "a0")
            uses_a0 = true;
        if (a.dst.parent == "a1")
            uses_a1 = true;
    }
    EXPECT_TRUE(uses_a0);
    EXPECT_FALSE(uses_a1);
}

TEST(ResourceSharing, DoesNotShareParallelAdders)
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("r0", 8);
    b.reg("r1", 8);
    b.add("a0", 8);
    b.add("a1", 8);
    auto incr = [&b](const std::string &name, const std::string &reg,
                     const std::string &adder) {
        Group &g = b.group(name);
        g.add(cellPort(adder, "left"), cellPort(reg, "out"));
        g.add(cellPort(adder, "right"), constant(1, 8));
        g.add(cellPort(reg, "in"), cellPort(adder, "out"));
        g.add(cellPort(reg, "write_en"), constant(1, 1));
        g.add(g.doneHole(), cellPort(reg, "done"));
    };
    incr("incr_r0", "r0", "a0");
    incr("incr_r1", "r1", "a1");
    std::vector<ControlPtr> pars;
    pars.push_back(ComponentBuilder::enable("incr_r0"));
    pars.push_back(ComponentBuilder::enable("incr_r1"));
    ctx.component("main").setControl(
        ComponentBuilder::par(std::move(pars)));

    ResourceSharing pass;
    pass.runOnContext(ctx);
    EXPECT_EQ(pass.merged(), 0);
}

TEST(ResourceSharing, DifferentWidthsNeverMerge)
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("r0", 8);
    b.reg("r1", 16);
    b.add("a0", 8);
    b.add("a1", 16);
    auto incr = [&b](const std::string &name, const std::string &reg,
                     const std::string &adder, Width w) {
        Group &g = b.group(name);
        g.add(cellPort(adder, "left"), cellPort(reg, "out"));
        g.add(cellPort(adder, "right"), constant(1, w));
        g.add(cellPort(reg, "in"), cellPort(adder, "out"));
        g.add(cellPort(reg, "write_en"), constant(1, 1));
        g.add(g.doneHole(), cellPort(reg, "done"));
    };
    incr("g0", "r0", "a0", 8);
    incr("g1", "r1", "a1", 16);
    std::vector<ControlPtr> s;
    s.push_back(ComponentBuilder::enable("g0"));
    s.push_back(ComponentBuilder::enable("g1"));
    ctx.component("main").setControl(ComponentBuilder::seq(std::move(s)));

    ResourceSharing pass;
    pass.runOnContext(ctx);
    EXPECT_EQ(pass.merged(), 0);
}

TEST(ResourceSharing, StatefulCellsNeverShared)
{
    // Registers carry the "stateful" attribute; even in disjoint groups
    // they must not merge (that is RegisterSharing's job, with liveness).
    Context ctx = figure3Program();
    ResourceSharing pass;
    pass.runOnContext(ctx);
    const Component &main = ctx.component("main");
    EXPECT_NE(main.findCell("r0"), nullptr);
    EXPECT_NE(main.findCell("r1"), nullptr);
}

TEST(ResourceSharing, PreservesSemantics)
{
    // Figure 3 with sharing enabled must compute the same values.
    Context plain = figure3Program();
    EXPECT_EQ(compiledReg(plain, "r0"), 1u);

    Context shared = figure3Program();
    const std::string spec = "all,-register-sharing,-static";
    EXPECT_EQ(compiledReg(shared, "r0", spec), 1u);
    Context shared2 = figure3Program();
    EXPECT_EQ(compiledReg(shared2, "r1", spec), 1u);
}

TEST(ResourceSharing, CondComparatorRewrittenInControl)
{
    // The comparator read by a while's condition port is shareable; if
    // the pass merges it the control's port reference must follow.
    Context ctx = calyx::testing::counterProgram(3, 2);
    // Add a second comparator used sequentially before the loop.
    Component &main = ctx.component("main");
    main.addCell("lt2", "std_lt", {8}, ctx);
    Group &pre = main.addGroup("precheck");
    pre.add(cellPort("lt2", "left"), constant(1, 8));
    pre.add(cellPort("lt2", "right"), constant(2, 8));
    pre.add(pre.doneHole(), constant(1, 1));
    // Prepend to the existing seq control.
    auto seq = std::make_unique<Seq>();
    seq->add(ComponentBuilder::enable("precheck"));
    seq->add(main.takeControl());
    main.setControl(std::move(seq));

    const std::string spec = "all,-register-sharing,-static";
    EXPECT_EQ(compiledReg(ctx, "x", spec), 6u);
}

} // namespace
} // namespace calyx
