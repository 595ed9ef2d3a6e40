#include <gtest/gtest.h>

#include "estimate/area.h"
#include "helpers.h"
#include "passes/resource_sharing.h"

namespace calyx {
namespace {

using passes::ResourceSharing;

/** Resource sharing alone, leaving units narrower than `min_width`
 * unshared. */
passes::PipelineSpec
sharingAt(Width min_width)
{
    passes::PipelineSpec spec =
        passes::parsePipelineSpec("all,-register-sharing,-static");
    passes::applyPassOptions(spec, "resource-sharing[min-width=" +
                                       std::to_string(min_width) + "]");
    return spec;
}

/** Two sequential groups using separate adders of the given width. */
Context
twoAdderProgram(Width width)
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("r0", width);
    b.reg("r1", width);
    b.cell("a0", "std_add", {width});
    b.cell("a1", "std_add", {width});
    auto incr = [&](const std::string &name, const std::string &reg,
                    const std::string &adder) {
        Group &g = b.group(name);
        g.add(cellPort(adder, "left"), cellPort(reg, "out"));
        g.add(cellPort(adder, "right"), constant(1, width));
        g.add(cellPort(reg, "in"), cellPort(adder, "out"));
        g.add(cellPort(reg, "write_en"), constant(1, 1));
        g.add(g.doneHole(), cellPort(reg, "done"));
    };
    incr("g0", "r0", "a0");
    incr("g1", "r1", "a1");
    std::vector<ControlPtr> s;
    s.push_back(ComponentBuilder::enable("g0"));
    s.push_back(ComponentBuilder::enable("g1"));
    ctx.component("main").setControl(ComponentBuilder::seq(std::move(s)));
    return ctx;
}

TEST(ShareHeuristic, ZeroThresholdSharesEverything)
{
    Context ctx = twoAdderProgram(4);
    ResourceSharing pass(0);
    pass.runOnContext(ctx);
    EXPECT_EQ(pass.merged(), 1);
}

TEST(ShareHeuristic, ThresholdSkipsNarrowUnits)
{
    Context ctx = twoAdderProgram(4);
    ResourceSharing pass(16);
    pass.runOnContext(ctx);
    EXPECT_EQ(pass.merged(), 0);
}

TEST(ShareHeuristic, ThresholdStillSharesWideUnits)
{
    Context ctx = twoAdderProgram(32);
    ResourceSharing pass(16);
    pass.runOnContext(ctx);
    EXPECT_EQ(pass.merged(), 1);
}

TEST(ShareHeuristic, PipelineOptionPreservesSemantics)
{
    Context ctx = twoAdderProgram(8);
    passes::runPipeline(ctx, sharingAt(16));
    EXPECT_EQ(testing::simulatedReg(ctx, "r0", nullptr), 1u);
    Context ctx2 = twoAdderProgram(8);
    passes::runPipeline(ctx2, sharingAt(16));
    EXPECT_EQ(testing::simulatedReg(ctx2, "r1", nullptr), 1u);
}

TEST(ShareHeuristic, ThresholdNeverIncreasesLutsVsFullSharing)
{
    // The point of the heuristic: on a design full of narrow adders,
    // thresholded sharing should use no more LUTs than full sharing.
    auto luts = [](Width threshold) {
        Context ctx = twoAdderProgram(4);
        passes::runPipeline(ctx, sharingAt(threshold));
        estimate::AreaEstimator est(ctx);
        return est.estimateProgram().luts;
    };
    EXPECT_LE(luts(16), luts(0));
}

} // namespace
} // namespace calyx
