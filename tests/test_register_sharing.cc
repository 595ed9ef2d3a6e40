#include <gtest/gtest.h>

#include "helpers.h"
#include "passes/register_sharing.h"

namespace calyx {
namespace {

using passes::RegisterSharing;
using testing::compiledReg;

/**
 * t0 and t1 have disjoint live ranges: t0 is dead after feeding x,
 * so t1 can reuse its register.
 *   t0 = 5; x = t0 + 1; t1 = 7; y = t1 + 1
 */
Context
disjointLiveRanges()
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("t0", 8);
    b.reg("t1", 8);
    // Observed outputs: marked external so the environment can read
    // them after sharing (external registers are never merged away).
    b.reg("x", 8).attrs().set(Attributes::externalAttr, 1);
    b.reg("y", 8).attrs().set(Attributes::externalAttr, 1);
    b.add("ax", 8);
    b.add("ay", 8);
    b.regWriteGroup("w_t0", "t0", constant(5, 8));
    Group &wx = b.group("w_x");
    wx.add(cellPort("ax", "left"), cellPort("t0", "out"));
    wx.add(cellPort("ax", "right"), constant(1, 8));
    wx.add(cellPort("x", "in"), cellPort("ax", "out"));
    wx.add(cellPort("x", "write_en"), constant(1, 1));
    wx.add(wx.doneHole(), cellPort("x", "done"));
    b.regWriteGroup("w_t1", "t1", constant(7, 8));
    Group &wy = b.group("w_y");
    wy.add(cellPort("ay", "left"), cellPort("t1", "out"));
    wy.add(cellPort("ay", "right"), constant(1, 8));
    wy.add(cellPort("y", "in"), cellPort("ay", "out"));
    wy.add(cellPort("y", "write_en"), constant(1, 1));
    wy.add(wy.doneHole(), cellPort("y", "done"));

    std::vector<ControlPtr> s;
    s.push_back(ComponentBuilder::enable("w_t0"));
    s.push_back(ComponentBuilder::enable("w_x"));
    s.push_back(ComponentBuilder::enable("w_t1"));
    s.push_back(ComponentBuilder::enable("w_y"));
    ctx.component("main").setControl(
        ComponentBuilder::seq(std::move(s)));
    return ctx;
}

TEST(RegisterSharing, MergesDisjointLiveRanges)
{
    Context ctx = disjointLiveRanges();
    RegisterSharing pass;
    pass.runOnContext(ctx);
    EXPECT_GE(pass.merged(), 1);
}

TEST(RegisterSharing, PreservesSemantics)
{
    Context plain = disjointLiveRanges();
    EXPECT_EQ(compiledReg(plain, "x"), 6u);
    Context p2 = disjointLiveRanges();
    EXPECT_EQ(compiledReg(p2, "y"), 8u);

    const std::string spec = "all,-resource-sharing,-static";
    Context shared = disjointLiveRanges();
    EXPECT_EQ(compiledReg(shared, "x", spec), 6u);
    Context s2 = disjointLiveRanges();
    EXPECT_EQ(compiledReg(s2, "y", spec), 8u);
}

/**
 * Overlapping live ranges: both temps are read after both are written.
 */
Context
overlappingLiveRanges()
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("t0", 8);
    b.reg("t1", 8);
    b.reg("x", 8).attrs().set(Attributes::externalAttr, 1);
    b.add("a", 8);
    b.regWriteGroup("w_t0", "t0", constant(5, 8));
    b.regWriteGroup("w_t1", "t1", constant(7, 8));
    Group &sum = b.group("sum");
    sum.add(cellPort("a", "left"), cellPort("t0", "out"));
    sum.add(cellPort("a", "right"), cellPort("t1", "out"));
    sum.add(cellPort("x", "in"), cellPort("a", "out"));
    sum.add(cellPort("x", "write_en"), constant(1, 1));
    sum.add(sum.doneHole(), cellPort("x", "done"));
    std::vector<ControlPtr> s;
    s.push_back(ComponentBuilder::enable("w_t0"));
    s.push_back(ComponentBuilder::enable("w_t1"));
    s.push_back(ComponentBuilder::enable("sum"));
    ctx.component("main").setControl(
        ComponentBuilder::seq(std::move(s)));
    return ctx;
}

TEST(RegisterSharing, KeepsOverlappingLiveRangesApart)
{
    Context ctx = overlappingLiveRanges();
    RegisterSharing pass;
    pass.runOnContext(ctx);

    // t0 and t1 are simultaneously live; they must not merge. x may
    // merge with one of them (it is dead before... actually x is the
    // final output, live at exit via nothing - but x is written by the
    // last group, so def x live-out exit is empty; merging x with a
    // dead temp is legal). The critical property:
    const Component &main = ctx.component("main");
    // Count how many registers the 'sum' group reads: must still be 2
    // distinct cells.
    const Group &sum = main.group("sum");
    std::string left, right;
    for (const auto &a : sum.assignments()) {
        if (a.dst == cellPort("a", "left"))
            left = a.src.parent;
        if (a.dst == cellPort("a", "right"))
            right = a.src.parent;
    }
    EXPECT_NE(left, right);
}

TEST(RegisterSharing, OverlappingSemanticsPreserved)
{
    const std::string spec = "all,-resource-sharing,-static";
    Context ctx = overlappingLiveRanges();
    EXPECT_EQ(compiledReg(ctx, "x", spec), 12u);
}

TEST(RegisterSharing, LoopCarriedRegistersInterfere)
{
    // In counterProgram, i and x are both live across iterations: they
    // must never merge.
    Context ctx = calyx::testing::counterProgram(5, 3);
    RegisterSharing pass;
    pass.runOnContext(ctx);
    const Component &main = ctx.component("main");
    EXPECT_NE(main.findCell("x"), nullptr);
    EXPECT_NE(main.findCell("i"), nullptr);

    const std::string spec = "all,-resource-sharing,-static";
    Context ctx2 = calyx::testing::counterProgram(5, 3);
    EXPECT_EQ(compiledReg(ctx2, "x", spec), 15u);
}

TEST(RegisterSharing, ParallelWritesInterfere)
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("t0", 8);
    b.reg("t1", 8);
    b.reg("x", 8).attrs().set(Attributes::externalAttr, 1);
    b.add("a", 8);
    b.regWriteGroup("w_t0", "t0", constant(5, 8));
    b.regWriteGroup("w_t1", "t1", constant(7, 8));
    Group &sum = b.group("sum");
    sum.add(cellPort("a", "left"), cellPort("t0", "out"));
    sum.add(cellPort("a", "right"), cellPort("t1", "out"));
    sum.add(cellPort("x", "in"), cellPort("a", "out"));
    sum.add(cellPort("x", "write_en"), constant(1, 1));
    sum.add(sum.doneHole(), cellPort("x", "done"));
    std::vector<ControlPtr> pars;
    pars.push_back(ComponentBuilder::enable("w_t0"));
    pars.push_back(ComponentBuilder::enable("w_t1"));
    std::vector<ControlPtr> s;
    s.push_back(ComponentBuilder::par(std::move(pars)));
    s.push_back(ComponentBuilder::enable("sum"));
    ctx.component("main").setControl(
        ComponentBuilder::seq(std::move(s)));

    const std::string spec = "all,-resource-sharing,-static";
    EXPECT_EQ(compiledReg(ctx, "x", spec), 12u);
}

} // namespace
} // namespace calyx
