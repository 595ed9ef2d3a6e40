#ifndef CALYX_TESTS_HELPERS_H
#define CALYX_TESTS_HELPERS_H

#include <cstdint>
#include <string>
#include <vector>

#include "ir/builder.h"
#include "passes/pipeline_spec.h"
#include "sim/cycle_sim.h"
#include "sim/interp.h"

namespace calyx::testing {

/**
 * Canonical test program: while (i < trip) { x += delta; i += 1 }
 * with a combinational condition group. Final x = trip * delta.
 */
inline Context
counterProgram(uint64_t trip, uint64_t delta)
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("x", 32);
    b.reg("i", 8);
    b.cell("lt", "std_lt", {8});
    b.add("addx", 32);
    b.add("addi", 8);

    Group &init = b.regWriteGroup("init", "i", constant(0, 8));
    (void)init;

    Group &cond = b.group("cond");
    cond.add(cellPort("lt", "left"), cellPort("i", "out"));
    cond.add(cellPort("lt", "right"), constant(trip, 8));
    cond.add(cond.doneHole(), constant(1, 1));

    Group &bump_x = b.group("bump_x");
    bump_x.add(cellPort("addx", "left"), cellPort("x", "out"));
    bump_x.add(cellPort("addx", "right"), constant(delta, 32));
    bump_x.add(cellPort("x", "in"), cellPort("addx", "out"));
    bump_x.add(cellPort("x", "write_en"), constant(1, 1));
    bump_x.add(bump_x.doneHole(), cellPort("x", "done"));

    Group &bump_i = b.group("bump_i");
    bump_i.add(cellPort("addi", "left"), cellPort("i", "out"));
    bump_i.add(cellPort("addi", "right"), constant(1, 8));
    bump_i.add(cellPort("i", "in"), cellPort("addi", "out"));
    bump_i.add(cellPort("i", "write_en"), constant(1, 1));
    bump_i.add(bump_i.doneHole(), cellPort("i", "done"));

    std::vector<ControlPtr> body;
    body.push_back(ComponentBuilder::enable("bump_x"));
    body.push_back(ComponentBuilder::enable("bump_i"));
    std::vector<ControlPtr> top;
    top.push_back(ComponentBuilder::enable("init"));
    top.push_back(ComponentBuilder::whileStmt(
        cellPort("lt", "out"), "cond",
        ComponentBuilder::seq(std::move(body))));
    b.component().setControl(ComponentBuilder::seq(std::move(top)));
    return ctx;
}

/** Register values after interpreting a source program. */
inline uint64_t
interpReg(Context &ctx, const std::string &reg, uint64_t *cycles = nullptr)
{
    sim::SimProgram sp(ctx, "main");
    sim::Interp interp(sp);
    uint64_t c = interp.run();
    if (cycles)
        *cycles = c;
    return *sp.findModel(reg)->registerValue();
}

/** Register value after cycle-simulating an already-compiled program. */
inline uint64_t
simulatedReg(Context &ctx, const std::string &reg, uint64_t *cycles)
{
    sim::SimProgram sp(ctx, "main");
    sim::CycleSim cs(sp);
    uint64_t c = cs.run();
    if (cycles)
        *cycles = c;
    return *sp.findModel(reg)->registerValue();
}

/**
 * Register value after compiling a program through a pipeline-spec
 * string and cycle-simulating it.
 */
inline uint64_t
compiledReg(Context &ctx, const std::string &reg,
            const std::string &spec = "default",
            uint64_t *cycles = nullptr)
{
    passes::runPipeline(ctx, spec);
    return simulatedReg(ctx, reg, cycles);
}

} // namespace calyx::testing

#endif // CALYX_TESTS_HELPERS_H
