#ifndef CALYX_SIM_CYCLE_SIM_H
#define CALYX_SIM_CYCLE_SIM_H

#include <cstdint>

#include "sim/env.h"

namespace calyx::sim {

/**
 * Structural cycle simulator for fully-lowered Calyx programs (flat
 * guarded assignments, no groups or control). This is the repository's
 * substitute for Verilator: after RemoveGroups a Calyx program is the
 * RTL netlist modulo syntax, so clocking it with the primitive models
 * yields the cycle counts the paper measures (§7 evaluation setup).
 *
 * The combinational engine is selectable (docs/simulation.md): the
 * levelized event-driven engine is the default; the Jacobi fixed-point
 * engine remains available as the reference oracle.
 */
class CycleSim
{
  public:
    explicit CycleSim(const SimProgram &prog,
                      Engine engine = Engine::Levelized);

    /**
     * Drive `go` high and clock the design until `done` reads 1.
     * @return cycle count, inclusive of the cycle when done is observed.
     */
    uint64_t run(uint64_t max_cycles = kMaxCycles);

    SimState &state() { return stateVal; }
    const SimState &state() const { return stateVal; }

  private:
    const SimProgram *prog;
    SimState stateVal;
};

/**
 * Activate the continuous assignments of `inst` and every instance
 * below it: a fully-lowered program's whole active set, which every
 * cycle of a CycleSim run (and of a batch tile) activates. fatal() when
 * an instance still has groups.
 */
void activateContinuous(SimState &state, const SimProgram::Instance &inst);

} // namespace calyx::sim

#endif // CALYX_SIM_CYCLE_SIM_H
