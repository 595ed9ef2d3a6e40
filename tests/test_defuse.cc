#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/defuse.h"

namespace calyx {
namespace {

Context
baseProgram()
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("r0", 8);
    b.reg("r1", 8);
    b.cell("add0", "std_add", {8});
    Group &g = b.group("upd");
    g.add(cellPort("add0", "left"), cellPort("r0", "out"));
    g.add(cellPort("add0", "right"), constant(1, 8));
    g.add(cellPort("r0", "in"), cellPort("add0", "out"));
    g.add(cellPort("r0", "write_en"), constant(1, 1));
    g.add(g.doneHole(), cellPort("r0", "done"));
    b.component().setControl(ComponentBuilder::enable("upd"));
    return ctx;
}

TEST(DefUse, ComputeFindsAssignGuardAndControlUses)
{
    Context ctx = baseProgram();
    DefUse du = DefUse::compute(ctx.main());

    const DefUse::Uses *r0 = du.find(Symbol("r0"));
    ASSERT_NE(r0, nullptr);
    EXPECT_TRUE(r0->anyAssign(DefUse::kSrcCell));
    EXPECT_TRUE(r0->anyAssign(DefUse::kDstCell));

    const DefUse::Uses *upd = du.find(Symbol("upd"));
    ASSERT_NE(upd, nullptr);
    // done-hole write + the Enable control node.
    EXPECT_TRUE(upd->anyAssign(DefUse::kDstHole));
    ASSERT_EQ(upd->control.size(), 1u);
    EXPECT_TRUE(upd->control[0].asGroup);

    EXPECT_EQ(du.find(Symbol("never_mentioned")), nullptr);
}

TEST(DefUse, GuardUsesAreTracked)
{
    Context ctx = baseProgram();
    Component &main = ctx.main();
    Group &g = main.group("upd");
    g.add(cellPort("r1", "in"), constant(7, 8),
          Guard::fromPort(cellPort("r0", "done")));
    DefUse du = DefUse::compute(main);
    const DefUse::Uses *r0 = du.find(Symbol("r0"));
    ASSERT_NE(r0, nullptr);
    EXPECT_TRUE(r0->anyAssign(DefUse::kGuardCell));
}

TEST(DefUse, ComputeSeesAddedSites)
{
    Context ctx = baseProgram();
    Component &main = ctx.main();
    EXPECT_EQ(DefUse::compute(main).find(Symbol("r1")), nullptr);

    Group &g = main.group("upd");
    g.add(cellPort("r1", "in"), cellPort("r0", "out"));
    main.addContinuous(
        Assignment(thisPort("done"), cellPort("r1", "done")));
    Group &g2 = main.addGroup("fresh");
    g2.add(cellPort("r1", "write_en"), constant(1, 1));
    g2.add(g2.doneHole(), cellPort("r1", "done"));

    DefUse du = DefUse::compute(main);
    const DefUse::Uses *r1 = du.find(Symbol("r1"));
    ASSERT_NE(r1, nullptr);
    ASSERT_EQ(r1->assigns.size(), 4u);
    auto has_site = [r1](Symbol group, uint32_t index, uint8_t roles) {
        for (const auto &site : r1->assigns) {
            if (site.group == group && site.index == index &&
                site.roles == roles)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(has_site(Symbol("upd"), 5, DefUse::kDstCell));
    EXPECT_TRUE(has_site(Symbol(), 0, DefUse::kSrcCell));
    EXPECT_TRUE(has_site(Symbol("fresh"), 0, DefUse::kDstCell));
    EXPECT_TRUE(has_site(Symbol("fresh"), 1, DefUse::kSrcCell));
    const DefUse::Uses *fresh = du.find(Symbol("fresh"));
    ASSERT_NE(fresh, nullptr);
    EXPECT_TRUE(fresh->anyAssign(DefUse::kDstHole));
    EXPECT_TRUE(fresh->control.empty()); // Defined, never enabled.
}

TEST(DefUse, RemoveGroupDropsItsSitesKeepsDanglingUses)
{
    Context ctx = baseProgram();
    Component &main = ctx.main();
    Group &g2 = main.addGroup("aux");
    g2.add(cellPort("r1", "in"), constant(3, 8));
    g2.add(cellPort("r1", "write_en"), constant(1, 1));
    g2.add(g2.doneHole(), cellPort("r1", "done"));
    EXPECT_NE(DefUse::compute(main).find(Symbol("r1")), nullptr);

    main.removeGroup("aux");
    // r1 was only referenced inside aux: no surviving uses.
    EXPECT_EQ(DefUse::compute(main).find(Symbol("r1")), nullptr);

    // Removing a group that is still enabled keeps the control use —
    // that is exactly what the WellFormed dangling check reports.
    main.removeGroup("upd");
    DefUse du = DefUse::compute(main);
    const DefUse::Uses *upd = du.find(Symbol("upd"));
    ASSERT_NE(upd, nullptr);
    EXPECT_TRUE(upd->assigns.empty());
    ASSERT_EQ(upd->control.size(), 1u);
    EXPECT_TRUE(upd->control[0].asGroup);
}

TEST(DefUse, RemovedAndRenamedCellsKeepTheirUses)
{
    Context ctx = baseProgram();
    Component &main = ctx.main();

    // r1 has no uses; removing it leaves every other use in place.
    main.removeCell("r1");
    EXPECT_NE(DefUse::compute(main).find(Symbol("r0")), nullptr);

    // renameCell moves the definition; uses keep naming the old symbol
    // until a pass rewrites them (and stay indexed under it).
    main.renameCell("add0", "adder");
    DefUse du = DefUse::compute(main);
    EXPECT_NE(du.find(Symbol("add0")), nullptr);
    EXPECT_EQ(du.find(Symbol("adder")), nullptr);
    EXPECT_EQ(main.findCell("add0"), nullptr);
    EXPECT_NE(main.findCell("adder"), nullptr);
    EXPECT_EQ(main.cell("adder").name(), "adder");
}

TEST(DefUse, DenseIdsTrackPositionsAcrossRemoval)
{
    Context ctx = baseProgram();
    Component &main = ctx.main();
    EXPECT_EQ(main.cell("r0").id(), 0u);
    EXPECT_EQ(main.cell("r1").id(), 1u);
    EXPECT_EQ(main.cell("add0").id(), 2u);
    main.removeCell("r1");
    EXPECT_EQ(main.cell("r0").id(), 0u);
    EXPECT_EQ(main.cell("add0").id(), 1u);
    ASSERT_EQ(main.cells().size(), 2u);
    for (uint32_t i = 0; i < main.cells().size(); ++i)
        EXPECT_EQ(main.cells()[i]->id(), i);
}

TEST(DefUse, UniqueNameStaysFreshAndCheap)
{
    Context ctx = baseProgram();
    Component &main = ctx.main();
    // Take a name the counter would otherwise mint.
    main.addCell("fsm0", "std_reg", {1}, ctx);
    std::set<Symbol> minted;
    for (int i = 0; i < 100; ++i) {
        Symbol fresh = main.uniqueName("fsm");
        EXPECT_TRUE(minted.insert(fresh).second) << fresh.str();
        EXPECT_EQ(main.findCell(fresh), nullptr);
        EXPECT_EQ(main.findGroup(fresh), nullptr);
        main.addCell(fresh, "std_reg", {1}, ctx);
    }
    EXPECT_FALSE(minted.count(Symbol("fsm0")));
}

TEST(DefUse, RegisterAccessMatchesDirectScan)
{
    // The batch path over the index must agree with first principles on
    // a mixed conditional/unconditional write pattern.
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("x", 8);
    b.reg("y", 8);
    b.reg("f", 1);
    Group &g = b.group("g");
    g.add(cellPort("x", "in"), constant(1, 8));
    g.add(cellPort("x", "write_en"), constant(1, 1));
    GuardPtr f = Guard::fromPort(cellPort("f", "out"));
    g.add(cellPort("y", "in"), constant(2, 8), f);
    g.add(cellPort("y", "write_en"), constant(1, 1), f);
    g.add(g.doneHole(), cellPort("x", "done"));

    auto access =
        analysis::registerAccess(ctx.main(), DefUse::compute(ctx.main()));
    const auto &acc = access.at(Symbol("g"));
    EXPECT_TRUE(acc.mustWrites.count(Symbol("x")));
    EXPECT_FALSE(acc.mustWrites.count(Symbol("y")));
    EXPECT_TRUE(acc.reads.count(Symbol("y")));
    EXPECT_TRUE(acc.reads.count(Symbol("f")));
    EXPECT_TRUE(acc.anyWrites.count(Symbol("y")));
}

} // namespace
} // namespace calyx
