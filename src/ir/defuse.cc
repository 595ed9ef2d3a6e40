#include "ir/defuse.h"

#include <algorithm>
#include <utility>

#include "ir/component.h"

namespace calyx {

namespace {

/** Role accumulator for one assignment: symbols appear a handful of
 * times per assignment, so a flat vector beats a map. */
struct RoleSet
{
    std::vector<std::pair<Symbol, uint8_t>> roles;

    void
    add(Symbol s, uint8_t role)
    {
        for (auto &[sym, mask] : roles) {
            if (sym == s) {
                mask |= role;
                return;
            }
        }
        roles.emplace_back(s, role);
    }

    void
    addRef(const PortRef &p, uint8_t cell_role, uint8_t hole_role)
    {
        if (p.isCell())
            add(p.parent, cell_role);
        else if (p.isHole())
            add(p.parent, hole_role);
    }
};

void
collectAssignment(const Assignment &a, RoleSet &out)
{
    out.addRef(a.dst, DefUse::kDstCell, DefUse::kDstHole);
    if (!a.src.isConst())
        out.addRef(a.src, DefUse::kSrcCell, DefUse::kSrcHole);
    a.guard->ports([&out](const PortRef &p) {
        out.addRef(p, DefUse::kGuardCell, DefUse::kGuardHole);
    });
}

} // namespace

bool
DefUse::Uses::anyAssign(uint8_t mask) const
{
    for (const auto &site : assigns) {
        if (site.roles & mask)
            return true;
    }
    return false;
}

void
DefUse::addAssignment(Symbol group, uint32_t index, const Assignment &a)
{
    RoleSet rs;
    collectAssignment(a, rs);
    for (const auto &[sym, roles] : rs.roles)
        map[sym].assigns.push_back(AssignSite{group, index, roles});
}

void
DefUse::addControlUse(Symbol s, const Control *node, bool as_group)
{
    auto &uses = map[s].control;
    // One node may reference the symbol twice (e.g. cond group == a
    // hole's group); keep sites unique per (node, kind).
    ControlUse use{node, as_group};
    if (std::find(uses.begin(), uses.end(), use) == uses.end())
        uses.push_back(use);
}

void
DefUse::collectControl(const Control &ctrl)
{
    ctrl.walk([this](const Control &node) {
        switch (node.kind()) {
          case Control::Kind::Enable:
            addControlUse(cast<Enable>(node).group(), &node, true);
            break;
          case Control::Kind::If: {
            const auto &i = cast<If>(node);
            if (!i.condGroup().empty())
                addControlUse(i.condGroup(), &node, true);
            if (i.condPort().isCell())
                addControlUse(i.condPort().parent, &node, false);
            else if (i.condPort().isHole())
                addControlUse(i.condPort().parent, &node, true);
            break;
          }
          case Control::Kind::While: {
            const auto &w = cast<While>(node);
            if (!w.condGroup().empty())
                addControlUse(w.condGroup(), &node, true);
            if (w.condPort().isCell())
                addControlUse(w.condPort().parent, &node, false);
            else if (w.condPort().isHole())
                addControlUse(w.condPort().parent, &node, true);
            break;
          }
          default:
            break;
        }
    });
}

DefUse
DefUse::compute(const Component &comp)
{
    DefUse du;
    const auto &continuous = comp.continuousAssignments();
    for (uint32_t i = 0; i < continuous.size(); ++i)
        du.addAssignment(Symbol(), i, continuous[i]);
    for (const auto &group : comp.groups()) {
        const auto &assigns = group->assignments();
        for (uint32_t i = 0; i < assigns.size(); ++i)
            du.addAssignment(group->name(), i, assigns[i]);
    }
    du.collectControl(comp.control());
    return du;
}

const DefUse::Uses *
DefUse::find(Symbol s) const
{
    auto it = map.find(s);
    return it == map.end() ? nullptr : &it->second;
}

} // namespace calyx

namespace calyx::analysis {

namespace {

Symbol
stdRegSymbol()
{
    static const Symbol s("std_reg");
    return s;
}

Symbol
outSymbol()
{
    static const Symbol s("out");
    return s;
}

Symbol
inSymbol()
{
    static const Symbol s("in");
    return s;
}

Symbol
writeEnSymbol()
{
    static const Symbol s("write_en");
    return s;
}

} // namespace

std::set<Symbol>
registerCells(const Component &comp)
{
    std::set<Symbol> regs;
    for (const auto &cell : comp.cells()) {
        if (cell->type() == stdRegSymbol())
            regs.insert(cell->name());
    }
    return regs;
}

std::map<Symbol, RegAccess>
registerAccess(const Component &comp, const DefUse &du)
{
    std::set<Symbol> regs = registerCells(comp);
    std::map<Symbol, RegAccess> out;
    // Every group gets an entry, even when it touches no register, so
    // callers can index unconditionally (historical contract).
    for (const auto &group : comp.groups())
        out[group->name()];

    // Per-(group, register) write classification bits.
    constexpr uint8_t kUncondEn = 1, kUncondIn = 2, kDoneBacked = 4;
    std::map<Symbol, std::map<Symbol, uint8_t>> writeFlags;

    for (Symbol reg : regs) {
        const DefUse::Uses *uses = du.find(reg);
        if (!uses)
            continue;
        for (const auto &site : uses->assigns) {
            if (site.group.empty())
                continue; // continuous: not a group access
            const Group &g = comp.group(site.group);
            const Assignment &a = g.assignments()[site.index];
            RegAccess &acc = out[site.group];

            // Data reads: only the value output counts; observing the
            // done pulse does not read the register.
            if (site.roles & (DefUse::kSrcCell | DefUse::kGuardCell)) {
                bool readsOut = a.src.isCell() && a.src.parent == reg &&
                                a.src.port == outSymbol();
                if (!readsOut) {
                    a.guard->ports([&](const PortRef &p) {
                        if (p.isCell() && p.parent == reg &&
                            p.port == outSymbol())
                            readsOut = true;
                    });
                }
                if (readsOut)
                    acc.reads.insert(reg);
            }
            // A register whose done pulse *is* the group's done signal
            // is always committed before the group can finish, even
            // when its write enable is guarded (the multi-cycle
            // operator idiom `r.write_en = f.done ? 1; g[done] =
            // r.done`).
            if (a.src.isCell() && a.src.parent == reg &&
                a.src.port == doneSymbol() && a.guard->isTrue() &&
                a.dst == g.doneHole()) {
                writeFlags[site.group][reg] |= kDoneBacked;
            }
            if ((site.roles & DefUse::kDstCell) && a.dst.isCell() &&
                a.dst.parent == reg) {
                acc.anyWrites.insert(reg);
                if (a.guard->isTrue()) {
                    if (a.dst.port == writeEnSymbol() && a.src.isConst() &&
                        a.src.value == 1)
                        writeFlags[site.group][reg] |= kUncondEn;
                    if (a.dst.port == inSymbol())
                        writeFlags[site.group][reg] |= kUncondIn;
                }
            }
        }
    }

    for (auto &[groupSym, acc] : out) {
        for (Symbol reg : acc.anyWrites) {
            uint8_t flags = writeFlags[groupSym][reg];
            if (((flags & kUncondEn) && (flags & kUncondIn)) ||
                (flags & kDoneBacked)) {
                acc.mustWrites.insert(reg);
            } else {
                // Conditional write: value may survive, keep it live.
                acc.reads.insert(reg);
            }
        }
    }
    return out;
}

std::set<Symbol>
alwaysLiveRegisters(const Component &comp, const DefUse &du)
{
    std::set<Symbol> regs = registerCells(comp);
    std::set<Symbol> out;

    for (Symbol reg : regs) {
        if (comp.cell(reg).attrs().has(Attributes::externalAttr)) {
            out.insert(reg);
            continue;
        }
        const DefUse::Uses *uses = du.find(reg);
        if (!uses)
            continue;
        bool live = false;
        for (const auto &site : uses->assigns) {
            if (site.group.empty() && (site.roles & DefUse::kAnyCell)) {
                live = true;
                break;
            }
        }
        if (!live) {
            for (const auto &use : uses->control) {
                if (!use.asGroup) { // condition port reads the register
                    live = true;
                    break;
                }
            }
        }
        if (live)
            out.insert(reg);
    }
    return out;
}

} // namespace calyx::analysis
