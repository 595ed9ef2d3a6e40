#include "passes/register_sharing.h"

#include "passes/registry.h"

#include <map>
#include <unordered_map>
#include <vector>

#include "analysis/coloring.h"
#include "analysis/liveness.h"
#include "analysis/pcfg.h"
#include "ir/defuse.h"

namespace calyx::passes {

void
RegisterSharing::runOnComponent(Component &comp, Context &)
{
    mergedCount = 0;

    std::set<Symbol> regs = analysis::registerCells(comp);
    if (regs.size() < 2)
        return;
    DefUse du = DefUse::compute(comp);
    std::set<Symbol> always_live = analysis::alwaysLiveRegisters(comp, du);

    auto access = analysis::registerAccess(comp, du);
    auto pcfg = analysis::buildPcfg(comp.control());
    analysis::Liveness liveness(*pcfg, access, always_live);

    // Candidates: registers not live everywhere, bucketed by width.
    std::map<uint64_t, std::vector<Symbol>> buckets;
    for (const auto &cell : comp.cells()) {
        if (cell->type() != "std_reg")
            continue;
        if (always_live.count(cell->name()))
            continue;
        buckets[cell->params()[0]].push_back(cell->name());
    }

    auto conflict = [&liveness](Symbol a, Symbol b) {
        return liveness.conflict(a, b);
    };

    std::unordered_map<Symbol, Symbol> mapping;
    for (const auto &[width, cells] : buckets) {
        (void)width;
        if (cells.size() < 2)
            continue;
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
    for (const auto &group : comp.groups()) {
        for (auto &a : group->assignments()) {
            a.dst = rename(a.dst);
            a.src = rename(a.src);
            a.guard = Guard::rewritePorts(a.guard, rename);
        }
    }
    for (auto &a : comp.continuousAssignments()) {
        a.dst = rename(a.dst);
        a.src = rename(a.src);
        a.guard = Guard::rewritePorts(a.guard, rename);
    }
    comp.control().walk([&mapping](Control &node) {
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

namespace {
PassRegistration<RegisterSharing> registration{
    "register-sharing",
    "Merge registers with disjoint live ranges (§5.2)",
    {{"pre-opt", 40}}};
} // namespace

} // namespace calyx::passes
