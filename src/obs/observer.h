#ifndef CALYX_OBS_OBSERVER_H
#define CALYX_OBS_OBSERVER_H

#include <cstdint>

namespace calyx::obs {

/**
 * Simulation observer interface (docs/observability.md). Observers
 * attach to a scalar sim::SimState (SimState::addObserver), at any
 * cycle, and are fed by every combinational engine the same way:
 * SimState::comb() notifies them once the state's `vals` have settled,
 * whether the jacobi or levelized walk computed them or the compiled
 * engine's generated eval() wrote them. The compiled engine runs the
 * same module observed or not.
 *
 * All hooks observe the same dense `vals[]` port array the engines
 * share (ids from SimProgram::portId), so an observer written against
 * one engine behaves identically under the others — the property the
 * cross-engine VCD tests pin down byte-for-byte.
 *
 * Hooks fire once per simulated cycle, after the cycle's values have
 * settled and before the clock edge: register outputs still hold their
 * pre-edge values, and a memory/register write whose enable is high in
 * `vals` commits on the edge that follows the hook.
 */
class SimObserver
{
  public:
    virtual ~SimObserver();

    /**
     * The cycle's combinational network has settled. `cycle` counts
     * from 0; `vals` is the engine's port array, valid only for the
     * duration of the call.
     */
    virtual void cycleSettled(uint64_t cycle, const uint64_t *vals) = 0;

    /**
     * Engine statistics for the same cycle: the value comb() returns —
     * schedule-node evaluations (levelized), fixed-point passes
     * (jacobi), or 1 (compiled). Default: ignore.
     */
    virtual void combStats(uint64_t cycle, int evals);

    /** The run completed after `cycles` cycles. Default: ignore. */
    virtual void finish(uint64_t cycles);
};

} // namespace calyx::obs

#endif // CALYX_OBS_OBSERVER_H
