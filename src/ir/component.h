#ifndef CALYX_IR_COMPONENT_H
#define CALYX_IR_COMPONENT_H

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/attributes.h"
#include "ir/cell.h"
#include "ir/control.h"
#include "ir/fsm.h"
#include "ir/group.h"
#include "ir/port.h"
#include "support/symbol.h"

namespace calyx {

class Context;

/**
 * A Calyx component (paper §3.1): a signature, a set of cells, wires
 * (continuous assignments and groups), and a control program.
 *
 * All names are interned Symbols. Cells and groups carry dense ids
 * (their positions in cells()/groups()); the name indices are
 * symbol-keyed hash maps, so lookup is O(1) instead of a string-keyed
 * tree walk.
 */
class Component
{
  public:
    explicit Component(Symbol name);

    Symbol name() const { return nameVal; }

    // --- Signature -------------------------------------------------------
    void addInput(Symbol name, Width width);
    void addOutput(Symbol name, Width width);
    const std::vector<PortDef> &signature() const { return sig; }
    bool hasPort(Symbol name) const;
    const PortDef &port(Symbol name) const;

    // --- Cells -----------------------------------------------------------
    /**
     * Instantiate `type` (primitive or component) with `params` as cell
     * `name`. Ports are resolved through `ctx`.
     */
    Cell &addCell(Symbol name, Symbol type,
                  const std::vector<uint64_t> &params, const Context &ctx);
    Cell *findCell(Symbol name);
    const Cell *findCell(Symbol name) const;
    Cell &cell(Symbol name);
    const Cell &cell(Symbol name) const;
    void removeCell(Symbol name);
    /**
     * Rename a cell, keeping the name index and the cell's dense id.
     * Port references to the old name are NOT rewritten; callers do
     * that themselves (and the dangling-reference check in WellFormed
     * reports any they miss).
     */
    void renameCell(Symbol old_name, Symbol new_name);
    const std::vector<std::unique_ptr<Cell>> &cells() const
    {
        return cellList;
    }

    // --- Groups ----------------------------------------------------------
    Group &addGroup(Symbol name);
    Group *findGroup(Symbol name);
    const Group *findGroup(Symbol name) const;
    Group &group(Symbol name);
    const Group &group(Symbol name) const;
    void removeGroup(Symbol name);
    const std::vector<std::unique_ptr<Group>> &groups() const
    {
        return groupList;
    }

    // --- Wires and control -----------------------------------------------
    std::vector<Assignment> &continuousAssignments() { return continuous; }
    const std::vector<Assignment> &continuousAssignments() const
    {
        return continuous;
    }
    /** Append a continuous assignment. */
    void addContinuous(Assignment a) { continuous.push_back(std::move(a)); }

    Control &control() { return *controlVal; }
    const Control &control() const { return *controlVal; }
    void setControl(ControlPtr c);
    ControlPtr takeControl();

    // --- FSM machines (control-lowering metadata) ------------------------
    /**
     * Machines built by the control-lowering layer (src/lowering/).
     * They persist after realization so --dump-fsm, the dot backend's
     * FSM view, and --emit-stats can inspect the compiled schedule.
     * Not serialized: the printer and parser ignore them.
     */
    const std::vector<FsmMachinePtr> &fsms() const { return fsmList; }
    FsmMachine &addFsm(FsmMachinePtr m);
    void clearFsms() { fsmList.clear(); }

    /** Accumulate control-lowering bookkeeping: how many FSM registers
     * the seed (one-per-seq-node) lowering would have minted for the
     * lowered control, and wall time spent in build/optimize/realize. */
    void noteFsmLowering(int seed_registers, double seconds);
    int fsmSeedRegisters() const { return fsmSeedRegs; }
    double fsmLoweringSeconds() const { return fsmSeconds; }

    // --- Utilities ---------------------------------------------------------
    /**
     * Fresh name with the given prefix, unused by cells/groups/ports.
     * O(1) amortized: a per-prefix counter survives across calls, so
     * minting the N-th `fsm` register does not rescan `fsm0..fsmN-1`.
     */
    Symbol uniqueName(Symbol prefix) const;

    /** Width of any port reference appearing in this component. */
    Width portWidth(const PortRef &ref) const;

    Attributes &attrs() { return attributes; }
    const Attributes &attrs() const { return attributes; }

    /** Latency attribute, if the component advertises one. */
    std::optional<int64_t> staticLatency() const
    {
        return attributes.find(Attributes::staticAttr);
    }

  private:
    /** Error path for cell(): fatal with a did-you-mean suggestion. */
    [[noreturn]] void noSuchCell(Symbol name) const;

    Symbol nameVal;
    std::vector<PortDef> sig;
    std::vector<std::unique_ptr<Cell>> cellList;
    std::unordered_map<Symbol, uint32_t> cellIndex; ///< name -> dense id
    std::vector<std::unique_ptr<Group>> groupList;
    std::unordered_map<Symbol, uint32_t> groupIndex; ///< name -> dense id
    std::vector<Assignment> continuous;
    ControlPtr controlVal;
    Attributes attributes;
    std::vector<FsmMachinePtr> fsmList;
    int fsmSeedRegs = 0;
    double fsmSeconds = 0;
    /** Next counter per uniqueName prefix (amortizes fresh names). */
    mutable std::unordered_map<Symbol, uint32_t> uniqueCounters;
};

} // namespace calyx

#endif // CALYX_IR_COMPONENT_H
