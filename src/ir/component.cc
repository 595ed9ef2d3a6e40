#include "ir/component.h"

#include "ir/context.h"
#include "support/error.h"
#include "support/text.h"

namespace calyx {

Component::Component(Symbol name)
    : nameVal(name), controlVal(std::make_unique<Empty>())
{
    // Every component implicitly participates in the go/done calling
    // convention (paper §4.1).
    sig.push_back(PortDef{goSymbol(), 1, Direction::Input});
    sig.push_back(PortDef{doneSymbol(), 1, Direction::Output});
}

void
Component::addInput(Symbol name, Width width)
{
    if (hasPort(name))
        fatal("component ", nameVal, ": duplicate port ", name);
    sig.push_back(PortDef{name, width, Direction::Input});
}

void
Component::addOutput(Symbol name, Width width)
{
    if (hasPort(name))
        fatal("component ", nameVal, ": duplicate port ", name);
    sig.push_back(PortDef{name, width, Direction::Output});
}

bool
Component::hasPort(Symbol name) const
{
    for (const auto &p : sig) {
        if (p.name == name)
            return true;
    }
    return false;
}

const PortDef &
Component::port(Symbol name) const
{
    for (const auto &p : sig) {
        if (p.name == name)
            return p;
    }
    std::vector<std::string> known;
    for (const auto &p : sig)
        known.push_back(p.name.str());
    std::string close = suggestClosest(name.str(), known);
    if (close.empty())
        fatal("component ", nameVal, " has no port ", name);
    fatal("component ", nameVal, " has no port ", name, " (did you mean '",
          close, "'?)");
}

Cell &
Component::addCell(Symbol name, Symbol type,
                   const std::vector<uint64_t> &params, const Context &ctx)
{
    if (cellIndex.count(name))
        fatal("component ", nameVal, ": duplicate cell ", name);
    auto cell = ctx.instantiate(name, type, params);
    Cell *raw = cell.get();
    raw->setId(static_cast<uint32_t>(cellList.size()));
    cellIndex.emplace(name, raw->id());
    cellList.push_back(std::move(cell));
    return *raw;
}

Cell *
Component::findCell(Symbol name)
{
    auto it = cellIndex.find(name);
    return it == cellIndex.end() ? nullptr : cellList[it->second].get();
}

const Cell *
Component::findCell(Symbol name) const
{
    auto it = cellIndex.find(name);
    return it == cellIndex.end() ? nullptr : cellList[it->second].get();
}

Cell &
Component::cell(Symbol name)
{
    Cell *c = findCell(name);
    if (!c)
        noSuchCell(name);
    return *c;
}

const Cell &
Component::cell(Symbol name) const
{
    const Cell *c = findCell(name);
    if (!c)
        noSuchCell(name);
    return *c;
}

void
Component::noSuchCell(Symbol name) const
{
    // Error path only: suggest the closest cell or group name, the UX
    // the pass/backend registries established for typos.
    std::vector<std::string> known;
    for (const auto &c : cellList)
        known.push_back(c->name().str());
    for (const auto &g : groupList)
        known.push_back(g->name().str());
    std::string close = suggestClosest(name.str(), known);
    if (close.empty())
        fatal("component ", nameVal, " has no cell ", name);
    fatal("component ", nameVal, " has no cell ", name, " (did you mean '",
          close, "'?)");
}

void
Component::removeCell(Symbol name)
{
    auto it = cellIndex.find(name);
    if (it == cellIndex.end())
        return;
    uint32_t id = it->second;
    cellIndex.erase(it);
    cellList.erase(cellList.begin() + id);
    // Dense ids are positions: everything after the removed cell
    // shifts down one slot.
    for (uint32_t i = id; i < cellList.size(); ++i) {
        cellList[i]->setId(i);
        cellIndex[cellList[i]->name()] = i;
    }
    // Uses of the removed name (if any remain) are now dangling; the
    // WellFormed dangling-reference check reports them with their
    // sites.
}

void
Component::renameCell(Symbol old_name, Symbol new_name)
{
    if (old_name == new_name)
        return;
    auto it = cellIndex.find(old_name);
    if (it == cellIndex.end())
        fatal("component ", nameVal, " has no cell ", old_name);
    if (cellIndex.count(new_name) || groupIndex.count(new_name))
        fatal("component ", nameVal, ": rename target ", new_name,
              " already exists");
    uint32_t id = it->second;
    cellIndex.erase(it);
    cellIndex.emplace(new_name, id);
    cellList[id]->rename(new_name);
}

Group &
Component::addGroup(Symbol name)
{
    if (groupIndex.count(name))
        fatal("component ", nameVal, ": duplicate group ", name);
    auto group = std::make_unique<Group>(name);
    Group *raw = group.get();
    raw->idVal = static_cast<uint32_t>(groupList.size());
    groupIndex.emplace(name, raw->idVal);
    groupList.push_back(std::move(group));
    return *raw;
}

Group *
Component::findGroup(Symbol name)
{
    auto it = groupIndex.find(name);
    return it == groupIndex.end() ? nullptr : groupList[it->second].get();
}

const Group *
Component::findGroup(Symbol name) const
{
    auto it = groupIndex.find(name);
    return it == groupIndex.end() ? nullptr : groupList[it->second].get();
}

Group &
Component::group(Symbol name)
{
    Group *g = findGroup(name);
    if (!g)
        fatal("component ", nameVal, " has no group ", name);
    return *g;
}

const Group &
Component::group(Symbol name) const
{
    const Group *g = findGroup(name);
    if (!g)
        fatal("component ", nameVal, " has no group ", name);
    return *g;
}

void
Component::removeGroup(Symbol name)
{
    auto it = groupIndex.find(name);
    if (it == groupIndex.end())
        return;
    uint32_t id = it->second;
    groupIndex.erase(it);
    groupList.erase(groupList.begin() + id);
    for (uint32_t i = id; i < groupList.size(); ++i) {
        groupList[i]->idVal = i;
        groupIndex[groupList[i]->name()] = i;
    }
    // Uses *of* the group elsewhere (holes, enables) stay: they are
    // now dangling and WellFormed reports them.
}

FsmMachine &
Component::addFsm(FsmMachinePtr m)
{
    fsmList.push_back(std::move(m));
    return *fsmList.back();
}

void
Component::noteFsmLowering(int seed_registers, double seconds)
{
    fsmSeedRegs += seed_registers;
    fsmSeconds += seconds;
}

void
Component::setControl(ControlPtr c)
{
    controlVal = std::move(c);
}

ControlPtr
Component::takeControl()
{
    ControlPtr out = std::move(controlVal);
    controlVal = std::make_unique<Empty>();
    return out;
}

Symbol
Component::uniqueName(Symbol prefix) const
{
    uint32_t &next = uniqueCounters[prefix];
    for (;;) {
        Symbol candidate(prefix.str() + std::to_string(next++));
        if (!cellIndex.count(candidate) && !groupIndex.count(candidate) &&
            !hasPort(candidate)) {
            return candidate;
        }
    }
}

Width
Component::portWidth(const PortRef &ref) const
{
    switch (ref.kind) {
      case PortRef::Kind::Const:
        return ref.width;
      case PortRef::Kind::This:
        return port(ref.port).width;
      case PortRef::Kind::Hole:
        if (!findGroup(ref.parent))
            fatal("component ", nameVal, ": hole for unknown group ",
                  ref.parent);
        return 1;
      case PortRef::Kind::Cell:
        return cell(ref.parent).portWidth(ref.port);
    }
    panic("bad PortRef kind");
}

} // namespace calyx
