#include <gtest/gtest.h>

#include "analysis/coloring.h"
#include "analysis/liveness.h"
#include "analysis/pcfg.h"
#include "ir/defuse.h"
#include "analysis/schedule.h"
#include "ir/builder.h"

namespace calyx {
namespace {

namespace an = analysis;

ControlPtr
en(const std::string &g)
{
    return std::make_unique<Enable>(g);
}

TEST(Schedule, GroupsInControlIncludesCondGroups)
{
    auto w = std::make_unique<While>(cellPort("lt", "out"), "cond",
                                     en("body"));
    auto groups = an::groupsInControl(*w);
    EXPECT_TRUE(groups.count("cond"));
    EXPECT_TRUE(groups.count("body"));
}

TEST(Schedule, ParallelConflictsAcrossParChildren)
{
    std::vector<ControlPtr> children;
    children.push_back(en("a"));
    {
        std::vector<ControlPtr> seq_items;
        seq_items.push_back(en("b"));
        seq_items.push_back(en("c"));
        children.push_back(
            std::make_unique<Seq>(std::move(seq_items)));
    }
    Par par(std::move(children));
    auto conflicts = an::parallelConflicts(par);
    EXPECT_TRUE(conflicts.count(an::makePair("a", "b")));
    EXPECT_TRUE(conflicts.count(an::makePair("a", "c")));
    // b and c are sequential within one child: no conflict.
    EXPECT_FALSE(conflicts.count(an::makePair("b", "c")));
}

TEST(Schedule, SequentialGroupsDoNotConflict)
{
    std::vector<ControlPtr> s;
    s.push_back(en("a"));
    s.push_back(en("b"));
    Seq seq(std::move(s));
    EXPECT_TRUE(an::parallelConflicts(seq).empty());
}

TEST(Pcfg, StraightLineShape)
{
    std::vector<ControlPtr> s;
    s.push_back(en("a"));
    s.push_back(en("b"));
    Seq seq(std::move(s));
    auto g = an::buildPcfg(seq);
    int group_nodes = 0;
    for (const auto &n : g->nodes) {
        if (n.kind == an::PcfgNode::Kind::Group)
            ++group_nodes;
    }
    EXPECT_EQ(group_nodes, 2);
    EXPECT_GE(g->entry, 0);
    EXPECT_GE(g->exit, 0);
}

TEST(Pcfg, WhileHasBackEdge)
{
    While w(cellPort("lt", "out"), "cond", en("body"));
    auto g = an::buildPcfg(w);
    // Find the cond node; the body's node must have an edge back to it.
    int cond = -1, body = -1;
    for (size_t i = 0; i < g->nodes.size(); ++i) {
        if (g->nodes[i].kind == an::PcfgNode::Kind::Group) {
            if (g->nodes[i].group == "cond")
                cond = static_cast<int>(i);
            if (g->nodes[i].group == "body")
                body = static_cast<int>(i);
        }
    }
    ASSERT_GE(cond, 0);
    ASSERT_GE(body, 0);
    bool back_edge = false;
    for (int s : g->nodes[body].succs) {
        if (s == cond)
            back_edge = true;
    }
    EXPECT_TRUE(back_edge);
}

TEST(Pcfg, ParBecomesPNode)
{
    std::vector<ControlPtr> children;
    children.push_back(en("a"));
    children.push_back(en("b"));
    Par par(std::move(children));
    auto g = an::buildPcfg(par);
    int pnodes = 0;
    for (const auto &n : g->nodes) {
        if (n.kind == an::PcfgNode::Kind::ParNode) {
            ++pnodes;
            EXPECT_EQ(n.children.size(), 2u);
        }
    }
    EXPECT_EQ(pnodes, 1);
}

TEST(ReadWriteSets, MustAndMayWrites)
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("x", 8);
    b.reg("y", 8);
    b.reg("f", 1);
    Group &g = b.group("g");
    // Unconditional write of x, conditional write of y, read of f.
    g.add(cellPort("x", "in"), constant(1, 8));
    g.add(cellPort("x", "write_en"), constant(1, 1));
    GuardPtr f = Guard::fromPort(cellPort("f", "out"));
    g.add(cellPort("y", "in"), constant(2, 8), f);
    g.add(cellPort("y", "write_en"), constant(1, 1), f);
    g.add(g.doneHole(), cellPort("x", "done"));

    const Component &main = ctx.component("main");
    auto access = an::registerAccess(main, DefUse::compute(main));
    const auto &acc = access.at("g");
    EXPECT_TRUE(acc.mustWrites.count("x"));
    EXPECT_FALSE(acc.mustWrites.count("y"));
    // Conditional writes keep the register live (treated as read).
    EXPECT_TRUE(acc.reads.count("y"));
    EXPECT_TRUE(acc.reads.count("f"));
    EXPECT_TRUE(acc.anyWrites.count("y"));
}

TEST(Liveness, DefAfterLastUseAllowsSharing)
{
    // Groups: w0 writes t0; rx reads t0 writes x; w1 writes t1;
    // ry reads t1 writes y. t0 dies before t1 is born.
    std::map<Symbol, an::RegAccess> access;
    access["w0"].mustWrites = {"t0"};
    access["w0"].anyWrites = {"t0"};
    access["rx"].reads = {"t0"};
    access["rx"].mustWrites = {"x"};
    access["rx"].anyWrites = {"x"};
    access["w1"].mustWrites = {"t1"};
    access["w1"].anyWrites = {"t1"};
    access["ry"].reads = {"t1"};
    access["ry"].mustWrites = {"y"};
    access["ry"].anyWrites = {"y"};

    std::vector<ControlPtr> s;
    s.push_back(en("w0"));
    s.push_back(en("rx"));
    s.push_back(en("w1"));
    s.push_back(en("ry"));
    Seq seq(std::move(s));
    auto g = an::buildPcfg(seq);
    an::Liveness liveness(*g, access, {});
    EXPECT_FALSE(liveness.interference().count({"t0", "t1"}));
}

TEST(Liveness, SimultaneouslyLiveInterfere)
{
    std::map<Symbol, an::RegAccess> access;
    access["w0"].mustWrites = {"t0"};
    access["w0"].anyWrites = {"t0"};
    access["w1"].mustWrites = {"t1"};
    access["w1"].anyWrites = {"t1"};
    access["sum"].reads = {"t0", "t1"};

    std::vector<ControlPtr> s;
    s.push_back(en("w0"));
    s.push_back(en("w1"));
    s.push_back(en("sum"));
    Seq seq(std::move(s));
    auto g = an::buildPcfg(seq);
    an::Liveness liveness(*g, access, {});
    EXPECT_TRUE(liveness.interference().count({"t0", "t1"}));
}

TEST(Liveness, ParChildrenSeeLiveOut)
{
    // par { write t0; write t1 } then read both: interference must be
    // discovered inside the p-node handling.
    std::map<Symbol, an::RegAccess> access;
    access["w0"].mustWrites = {"t0"};
    access["w0"].anyWrites = {"t0"};
    access["w1"].mustWrites = {"t1"};
    access["w1"].anyWrites = {"t1"};
    access["sum"].reads = {"t0", "t1"};

    std::vector<ControlPtr> children;
    children.push_back(en("w0"));
    children.push_back(en("w1"));
    std::vector<ControlPtr> s;
    s.push_back(std::make_unique<Par>(std::move(children)));
    s.push_back(en("sum"));
    Seq seq(std::move(s));
    auto g = an::buildPcfg(seq);
    an::Liveness liveness(*g, access, {});
    EXPECT_TRUE(liveness.interference().count({"t0", "t1"}));
}

TEST(Coloring, GreedyMergesIndependent)
{
    std::vector<Symbol> nodes = {"a", "b", "c"};
    std::set<std::pair<Symbol, Symbol>> conflicts = {
        {"a", "b"}};
    auto mapping = an::greedyColor(nodes, conflicts);
    EXPECT_EQ(mapping.at("a"), "a");
    EXPECT_NE(mapping.at("b"), "a");
    // c conflicts with nothing: merged onto the first color.
    EXPECT_EQ(mapping.at("c"), "a");
}

TEST(Coloring, CliqueNeedsDistinctColors)
{
    std::vector<Symbol> nodes = {"a", "b", "c"};
    std::set<std::pair<Symbol, Symbol>> conflicts = {
        {"a", "b"}, {"a", "c"}, {"b", "c"}};
    auto mapping = an::greedyColor(nodes, conflicts);
    EXPECT_EQ(mapping.at("a"), "a");
    EXPECT_EQ(mapping.at("b"), "b");
    EXPECT_EQ(mapping.at("c"), "c");
}

TEST(AlwaysLive, ControlAndContinuousUses)
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("flag", 1);
    b.reg("other", 8);
    b.reg("ext", 8).attrs().set(Attributes::externalAttr, 1);
    Component &main = ctx.component("main");
    main.continuousAssignments().emplace_back(
        thisPort("done"), cellPort("flag", "out"));
    b.regWriteGroup("body", "other", constant(1, 8));
    Group &cond = b.group("cond");
    cond.add(cond.doneHole(), constant(1, 1));
    main.setControl(ComponentBuilder::whileStmt(
        cellPort("flag", "out"), "cond",
        ComponentBuilder::enable("body")));

    auto always = an::alwaysLiveRegisters(main, DefUse::compute(main));
    EXPECT_TRUE(always.count("flag"));
    EXPECT_TRUE(always.count("ext"));
    EXPECT_FALSE(always.count("other"));
}

} // namespace
} // namespace calyx
