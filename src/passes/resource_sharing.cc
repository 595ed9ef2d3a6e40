#include "passes/resource_sharing.h"

#include "passes/registry.h"

#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "analysis/coloring.h"
#include "analysis/schedule.h"
#include "support/error.h"

namespace calyx::passes {

namespace {

/** Rename cell references in an assignment according to `mapping`. */
void
rewriteAssignment(Assignment &a,
                  const std::unordered_map<Symbol, Symbol> &mapping)
{
    auto rename = [&mapping](const PortRef &p) {
        if (p.isCell()) {
            auto it = mapping.find(p.parent);
            if (it != mapping.end()) {
                PortRef np = p;
                np.parent = it->second;
                return np;
            }
        }
        return p;
    };
    a.dst = rename(a.dst);
    a.src = rename(a.src);
    a.guard = Guard::rewritePorts(a.guard, rename);
}

void
rewriteControlPorts(Control &ctrl,
                    const std::unordered_map<Symbol, Symbol> &mapping)
{
    ctrl.walk([&mapping](Control &node) {
        PortRef *port = nullptr;
        if (node.kind() == Control::Kind::If)
            port = const_cast<PortRef *>(&cast<If>(node).condPort());
        else if (node.kind() == Control::Kind::While)
            port = const_cast<PortRef *>(&cast<While>(node).condPort());
        if (port && port->isCell()) {
            auto it = mapping.find(port->parent);
            if (it != mapping.end())
                port->parent = it->second;
        }
    });
}

} // namespace

void
ResourceSharing::runOnComponent(Component &comp, Context &ctx)
{
    mergedCount = 0;

    // Shareable cells, bucketed by signature.
    std::unordered_set<Symbol> shareable;
    std::map<Symbol, std::vector<Symbol>> buckets;
    for (const auto &cell : comp.cells()) {
        bool share = cell->attrs().has(Attributes::shareAttr) &&
                     !cell->attrs().has(Attributes::statefulAttr);
        if (!cell->isPrimitive())
            share = false;
        if (ctx.primitives().has(cell->type()) &&
            ctx.primitives().get(cell->type()).stateful()) {
            share = false;
        }
        // Cost-model heuristic (§9): skip units whose width is below
        // the profitability threshold.
        if (share && minWidth > 0 && !cell->params().empty() &&
            cell->params()[0] < minWidth) {
            share = false;
        }
        if (!share)
            continue;
        shareable.insert(cell->name());
        std::string sig = cell->type().str();
        for (uint64_t p : cell->params())
            sig += "_" + std::to_string(p);
        buckets[Symbol(sig)].push_back(cell->name());
    }
    if (shareable.empty())
        return;

    // Which groups use which shareable cells.
    std::unordered_map<Symbol, std::set<Symbol>> cells_of_group;
    std::set<Symbol> in_continuous;
    for (const auto &group : comp.groups()) {
        auto &used = cells_of_group[group->name()];
        for (const auto &a : group->assignments()) {
            auto mark = [&](const PortRef &p) {
                if (p.isCell() && shareable.count(p.parent))
                    used.insert(p.parent);
            };
            mark(a.dst);
            a.reads(mark);
        }
    }
    for (const auto &a : comp.continuousAssignments()) {
        auto mark = [&](const PortRef &p) {
            if (p.isCell() && shareable.count(p.parent))
                in_continuous.insert(p.parent);
        };
        mark(a.dst);
        a.reads(mark);
    }
    // Cells referenced by if/while condition ports behave like continuous
    // uses of the enclosing cond group; attribute them to that group.
    comp.control().walk([&](const Control &node) {
        const PortRef *port = nullptr;
        Symbol cond;
        if (node.kind() == Control::Kind::If) {
            port = &cast<If>(node).condPort();
            cond = cast<If>(node).condGroup();
        } else if (node.kind() == Control::Kind::While) {
            port = &cast<While>(node).condPort();
            cond = cast<While>(node).condGroup();
        }
        if (!port || !port->isCell() || !shareable.count(port->parent))
            return;
        if (cond.empty())
            in_continuous.insert(port->parent);
        else
            cells_of_group[cond].insert(port->parent);
    });

    // Step 1: group conflict graph from the execution schedule, as
    // hashed id-pair keys (O(1) insert/lookup).
    std::unordered_set<uint64_t> group_conflicts =
        analysis::parallelConflictKeys(comp.control());

    // Cell-level conflicts, same representation.
    std::unordered_set<uint64_t> cell_conflicts;
    auto add_conflict = [&cell_conflicts](Symbol a, Symbol b) {
        if (a != b)
            cell_conflicts.insert(analysis::symbolPairKey(a, b));
    };
    // Two cells used by one group are simultaneously busy.
    for (const auto &[g, used] : cells_of_group) {
        (void)g;
        for (Symbol a : used)
            for (Symbol b : used)
                add_conflict(a, b);
    }
    // Cells of groups that may run in parallel conflict. Iterate the
    // recorded pairs and cross the groups' cell sets.
    for (uint64_t key : group_conflicts) {
        Symbol g1 = Symbol::fromId(static_cast<uint32_t>(key >> 32));
        Symbol g2 = Symbol::fromId(static_cast<uint32_t>(key));
        auto it1 = cells_of_group.find(g1);
        auto it2 = cells_of_group.find(g2);
        if (it1 == cells_of_group.end() || it2 == cells_of_group.end())
            continue;
        for (Symbol a : it1->second)
            for (Symbol b : it2->second)
                add_conflict(a, b);
    }
    // Continuous uses are always live: conflict with everything.
    for (Symbol c : in_continuous)
        for (Symbol other : shareable)
            add_conflict(c, other);

    // Step 2: greedy coloring per signature bucket.
    auto conflict = [&cell_conflicts](Symbol a, Symbol b) {
        return cell_conflicts.count(analysis::symbolPairKey(a, b)) > 0;
    };
    std::unordered_map<Symbol, Symbol> mapping;
    for (const auto &[sig, cells] : buckets) {
        (void)sig;
        auto colored = analysis::greedyColor(cells, conflict);
        for (const auto &[from, to] : colored) {
            if (from != to) {
                mapping.emplace(from, to);
                ++mergedCount;
            }
        }
    }
    if (mapping.empty())
        return;

    // Step 3: rewrite groups, continuous assignments, and control.
    for (const auto &group : comp.groups())
        for (auto &a : group->assignments())
            rewriteAssignment(a, mapping);
    for (auto &a : comp.continuousAssignments())
        rewriteAssignment(a, mapping);
    rewriteControlPorts(comp.control(), mapping);
}

void
ResourceSharing::option(const std::string &key, const std::string &value)
{
    if (key == "min-width") {
        if (value.empty() ||
            value.find_first_not_of("0123456789") != std::string::npos)
            fatal("resource-sharing option min-width: expected a "
                  "non-negative integer, got '", value, "'");
        try {
            minWidth = static_cast<Width>(std::stoull(value));
        } catch (const std::out_of_range &) {
            fatal("resource-sharing option min-width: value '", value,
                  "' is out of range");
        }
        return;
    }
    Pass::option(key, value);
}

namespace {
PassRegistration<ResourceSharing> registration{
    "resource-sharing",
    "Share combinational functional units across non-parallel groups (§5.1)",
    {{"pre-opt", 30}}};
} // namespace

} // namespace calyx::passes
