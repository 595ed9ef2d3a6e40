#ifndef CALYX_IR_DEFUSE_H
#define CALYX_IR_DEFUSE_H

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "ir/group.h"
#include "support/symbol.h"

namespace calyx {

class Component;
class Control;

/**
 * Per-component def-use index: for every cell or group symbol, the
 * assignments, guards, and control nodes that reference it. This is the
 * substrate passes query instead of re-walking every assignment and
 * string-comparing names (the paper's "shared infrastructure" argument
 * applied to the compiler itself: one index, many passes).
 *
 * The index is a snapshot: `DefUse::compute` walks the component once,
 * and the caller owns the result. It does not follow later mutations;
 * a pass that changes the component and needs the index again computes
 * a new one. Control sites point into the component's control tree, so
 * the index must not outlive a setControl() or takeControl().
 *
 * A use records *where* (continuous block or group + assignment index,
 * or a control node) and *how* (dst/src/guard x cell-ref/hole-ref).
 */
class DefUse
{
  public:
    // Role bits: position in the assignment x reference kind.
    static constexpr uint8_t kDstCell = 1;
    static constexpr uint8_t kDstHole = 2;
    static constexpr uint8_t kSrcCell = 4;
    static constexpr uint8_t kSrcHole = 8;
    static constexpr uint8_t kGuardCell = 16;
    static constexpr uint8_t kGuardHole = 32;

    static constexpr uint8_t kAnyCell = kDstCell | kSrcCell | kGuardCell;
    static constexpr uint8_t kAnyHole = kDstHole | kSrcHole | kGuardHole;

    /** One assignment referencing the symbol. */
    struct AssignSite
    {
        Symbol group;       ///< Empty = continuous assignments.
        uint32_t index = 0; ///< Position in the owning vector.
        uint8_t roles = 0;  ///< Bitmask of the k* role constants.
    };

    /** One control node referencing the symbol. */
    struct ControlUse
    {
        const Control *node = nullptr;
        /** True when the node names the symbol as a group (Enable,
         * cond group, hole cond port); false for cell cond ports. */
        bool asGroup = false;

        bool operator==(const ControlUse &other) const = default;
    };

    struct Uses
    {
        std::vector<AssignSite> assigns;
        std::vector<ControlUse> control;

        /** Whether any assignment role matches `mask`. */
        bool anyAssign(uint8_t mask) const;
    };

    /** One walk over the component's wires and control. */
    static DefUse compute(const Component &comp);

    /** Uses of `s`, or nullptr when nothing references it. */
    const Uses *find(Symbol s) const;

    const std::unordered_map<Symbol, Uses> &entries() const
    {
        return map;
    }

  private:
    void addAssignment(Symbol group, uint32_t index, const Assignment &a);
    void addControlUse(Symbol s, const Control *node, bool as_group);
    void collectControl(const Control &ctrl);

    std::unordered_map<Symbol, Uses> map;
};

} // namespace calyx

namespace calyx::analysis {

/**
 * Conservative register access summary for one group (paper §5.2):
 * `reads` is the set of registers the group may read, `mustWrites` the
 * set it always writes. Guarded (conditional) register writes are
 * treated as both a read and a may-write, which keeps the register live
 * across the group.
 *
 * Sets are lexicographically ordered Symbol sets, so iteration order
 * matches the historical string-keyed implementation exactly.
 */
struct RegAccess
{
    std::set<Symbol> reads;
    std::set<Symbol> mustWrites;
    /** Every register with any (conditional or not) write in the group. */
    std::set<Symbol> anyWrites;
};

/**
 * Compute register read/write sets for every group of a component.
 * Only `std_reg` cells participate; memories and other stateful cells
 * are never shared by the register-sharing pass.
 *
 * This is the batch path over `du`, the component's DefUse index:
 * instead of scanning every assignment of every group, it visits only
 * the recorded use sites of register cells.
 */
std::map<Symbol, RegAccess> registerAccess(const Component &comp,
                                           const DefUse &du);

/** Names of all std_reg cells in the component. */
std::set<Symbol> registerCells(const Component &comp);

/**
 * Registers that must be treated as live everywhere: referenced by
 * continuous assignments, by control condition ports, or carrying the
 * "external" attribute. `du` is the component's DefUse index.
 */
std::set<Symbol> alwaysLiveRegisters(const Component &comp,
                                     const DefUse &du);

} // namespace calyx::analysis

#endif // CALYX_IR_DEFUSE_H
