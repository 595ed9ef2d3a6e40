#ifndef CALYX_SIM_MODELS_H
#define CALYX_SIM_MODELS_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ir/cell.h"

namespace calyx::sim {

/**
 * Cycle-accurate model of one primitive cell instance. Outputs are
 * recomputed combinationally every evaluation pass; internal state
 * advances at clock edges.
 *
 * Timing convention shared by all sequential primitives: when `go` (or
 * `write_en`) is high during cycle t, the operation occupies cycles
 * t .. t+L-1 and the `done` port pulses high during cycle t+L, where L is
 * the primitive's latency. Data outputs hold their last computed value.
 */
/**
 * Static dependency metadata for one primitive model, used by the
 * levelized engine (sim/schedule.h) to build the port-level dependency
 * graph. `combEdges` lists which input ports combinationally feed which
 * output ports; inputs that are only sampled at clock edges (a
 * register's `in`/`write_en`, a memory's `write_data`) are deliberately
 * absent, which is what cuts the graph at sequential elements.
 */
struct ModelDeps
{
    /** Every port this model drives during evalComb(). */
    std::vector<uint32_t> outputs;

    /** (input port, output ports it combinationally affects). */
    std::vector<std::pair<uint32_t, std::vector<uint32_t>>> combEdges;

    /**
     * True when some output reads internal state that advances at clock
     * edges (registers, memories, pipes). The engine re-checks these
     * models' outputs after every clock() to seed the event queue.
     */
    bool stateful = false;
};

class PrimModel
{
  public:
    virtual ~PrimModel() = default;

    /** A copy of this model, state included. */
    virtual std::unique_ptr<PrimModel> clone() const = 0;

    /** Recompute outputs: read `in[]`, write `out[]` (Jacobi pass). */
    virtual void evalComb(const uint64_t *in, uint64_t *out) const = 0;

    /**
     * Dependency contract for schedule construction. Every primitive
     * must declare all of its outputs, the input->output combinational
     * edges, and whether outputs depend on clocked internal state.
     */
    virtual ModelDeps deps() const = 0;

    /** Advance internal state using the settled values of this cycle. */
    virtual void clock(const uint64_t * /*vals*/) {}

    /** Reset internal state to power-on values. */
    virtual void reset() {}

    /** Backing storage for memory primitives (null otherwise). */
    virtual std::vector<uint64_t> *memory() { return nullptr; }

    /** Current value for register primitives. */
    virtual std::optional<uint64_t> registerValue() const
    {
        return std::nullopt;
    }

    /** Overwrite a register's value (test/bench initialization). */
    virtual void setRegisterValue(uint64_t) {}

    /**
     * Direct pointer to a register primitive's value storage (null for
     * everything else). The compiled engine (sim/compiled.h) binds
     * generated clock code to this address so register state stays
     * shared with the model object — archState(), registerValue(), and
     * harness pokes keep working across engines.
     */
    virtual uint64_t *registerStorage() { return nullptr; }
};

/** Resolves a port name of the modeled cell to its flat port id. */
using PortResolver = std::function<uint32_t(const std::string &)>;

/**
 * Build the simulation model for a primitive cell. fatal() if the
 * primitive has no model (unknown extern without a registered model).
 */
std::unique_ptr<PrimModel> makeModel(const Cell &cell,
                                     const PortResolver &resolve);

/** Integer square root (for std_sqrt and reference computations). */
uint64_t isqrt(uint64_t v);

} // namespace calyx::sim

#endif // CALYX_SIM_MODELS_H
