#include "sim/cycle_sim.h"

#include "support/error.h"

namespace calyx::sim {

CycleSim::CycleSim(const SimProgram &prog, Engine engine)
    : prog(&prog), stateVal(prog, engine)
{}

void
activateContinuous(SimState &state, const SimProgram::Instance &inst)
{
    if (inst.hasGroups()) {
        fatal("CycleSim requires a fully-compiled program, but component ",
              inst.comp->name(), " still has groups");
    }
    state.activate(inst.continuous);
    for (const auto &sub : inst.subs)
        activateContinuous(state, *sub);
}

uint64_t
CycleSim::run(uint64_t max_cycles)
{
    stateVal.reset();
    const SimProgram::Instance &top = prog->root();

    uint64_t cycles = 0;
    while (true) {
        if (++cycles > max_cycles)
            fatal("cycle simulation exceeded ", max_cycles, " cycles");
        stateVal.beginCycle();
        stateVal.force(top.goPort, 1);
        activateContinuous(stateVal, top);
        stateVal.comb();
        bool done = stateVal.value(top.donePort) & 1;
        stateVal.clock();
        if (done) {
            stateVal.finishObservers(cycles);
            return cycles;
        }
    }
}

} // namespace calyx::sim
