#ifndef CALYX_SIM_INTERP_H
#define CALYX_SIM_INTERP_H

#include <cstdint>
#include <memory>

#include "sim/env.h"

namespace calyx::sim {

/**
 * Reference interpreter: executes a Calyx program directly from its
 * control program and groups, without compiling control to FSMs
 * (pre-GoInsertion IR). It is the semantic oracle used to validate the
 * compilation pipeline: the architectural state (registers, memories)
 * after interpretation must match the state after simulating the
 * compiled design.
 *
 * Timing model: ideal zero-overhead scheduling. A group occupies every
 * cycle from its activation until (and including) the cycle its done
 * hole reads 1; seq/par/if/while add no overhead cycles of their own.
 * Sub-component instances begin executing their control the cycle after
 * their go input is observed high and pulse done for one cycle after
 * their control completes.
 */
class Interp
{
  public:
    explicit Interp(const SimProgram &prog,
                    Engine engine = Engine::Levelized);
    ~Interp();

    /**
     * Run the top component's control program to completion.
     * @return the number of cycles executed.
     */
    uint64_t run(uint64_t max_cycles = kMaxCycles);

    SimState &state() { return stateVal; }
    const SimState &state() const { return stateVal; }

  private:
    struct ExecNode;
    struct InstanceExec;

    void collect(ExecNode &node);
    bool advance(ExecNode &node);
    uint32_t condPortId(const PortRef &ref,
                        const SimProgram::Instance &inst);
    std::unique_ptr<ExecNode> begin(const Control &ctrl,
                                    const SimProgram::Instance &inst);
    void gatherInstances(const SimProgram::Instance &inst);
    void activateContinuousRec(const SimProgram::Instance &inst);

    const SimProgram *prog;
    SimState stateVal;
    std::vector<std::unique_ptr<InstanceExec>> instances;
};

} // namespace calyx::sim

#endif // CALYX_SIM_INTERP_H
