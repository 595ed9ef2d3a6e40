#ifndef CALYX_LOWERING_REALIZE_H
#define CALYX_LOWERING_REALIZE_H

#include "ir/component.h"
#include "ir/context.h"
#include "ir/fsm.h"

namespace calyx::lowering {

/** Configuration of the realize stage. */
struct RealizeOptions
{
    /**
     * State-register encoding. Binary packs states (and the cycles of
     * counter states) into consecutive codes of one ceil(log2(N))-bit
     * register, stepping counter spans with a shared incrementer.
     * One-hot gives every cycle-slot its own bit (the entry slot is the
     * all-zeros word so the register's reset value is the entry state):
     * next-state logic becomes constant loads instead of an adder, at
     * the cost of a wider register. Machines whose code space exceeds
     * 64 slots fall back to binary (the register value would overflow
     * the simulator's 64-bit words); the machine records the encoding
     * actually used.
     */
    FsmEncoding encoding = FsmEncoding::Binary;

    /**
     * Gate the realized group's assignments with its own go hole.
     * CompileControl runs after the GoInsertion pass and gates here;
     * the `static` pass runs before it and leaves gating to the pass.
     */
    bool gate = true;
};

/**
 * Realize stage of control lowering: materialize a machine as
 * structure on its component — one group whose assignments express the
 * state actions under state-decode guards, a state register (none for
 * single-state machines), transition writes, a done write in the
 * accepting state, and a continuous self-reset armed in the accepting
 * state so the machine re-runs inside loops (the parent deasserts go
 * during the done cycle, so a gated reset would never fire).
 *
 * Fills the machine's realization record (group, register cell,
 * encoding actually used) and returns the realizing group's name.
 */
Symbol realize(FsmMachine &m, Component &comp, Context &ctx,
               const RealizeOptions &opts = {});

} // namespace calyx::lowering

#endif // CALYX_LOWERING_REALIZE_H
