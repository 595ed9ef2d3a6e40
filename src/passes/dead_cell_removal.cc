#include "passes/dead_cell_removal.h"

#include "passes/registry.h"

#include <vector>

#include "ir/defuse.h"

namespace calyx::passes {

void
DeadCellRemoval::runOnComponent(Component &comp, Context &ctx)
{
    // The DefUse index already knows every assignment, guard, and
    // control site naming each cell; a cell is live iff it has any
    // cell-kind use (hole-kind uses belong to the group namespace).
    DefUse du = DefUse::compute(comp);
    auto used = [&du](Symbol cell) {
        const DefUse::Uses *uses = du.find(cell);
        if (!uses)
            return false;
        if (uses->anyAssign(DefUse::kAnyCell))
            return true;
        for (const auto &use : uses->control) {
            if (!use.asGroup) // if/while condition port
                return true;
        }
        return false;
    };

    std::vector<Symbol> dead;
    for (const auto &cell : comp.cells()) {
        if (used(cell->name()))
            continue;
        if (cell->attrs().has(Attributes::externalAttr))
            continue;
        if (cell->isPrimitive() &&
            ctx.primitives().get(cell->type()).isMemory) {
            continue;
        }
        dead.push_back(cell->name());
    }
    for (Symbol name : dead)
        comp.removeCell(name);
}

namespace {
PassRegistration<DeadCellRemoval> registration{
    "dead-cell-removal",
    "Remove cells no assignment or control statement references",
    {{"post-opt", 10}}};
} // namespace

} // namespace calyx::passes
