#include "ir/fsm.h"

#include <sstream>

#include "ir/component.h"
#include "support/error.h"

namespace calyx {

const char *
fsmEncodingName(FsmEncoding e)
{
    switch (e) {
      case FsmEncoding::Binary:
        return "binary";
      case FsmEncoding::OneHot:
        return "one-hot";
    }
    panic("bad FsmEncoding");
}

uint32_t
FsmMachine::addState(Symbol name, int64_t span)
{
    if (span < 1)
        fatal("fsm ", nameVal, ": state ", name, " has span ", span);
    FsmState s;
    s.name = name;
    s.span = span;
    stateList.push_back(std::move(s));
    return static_cast<uint32_t>(stateList.size() - 1);
}

int64_t
FsmMachine::totalCodes() const
{
    int64_t total = 0;
    for (const auto &s : stateList)
        total += s.span;
    return total;
}

int64_t
FsmMachine::transitionCount() const
{
    int64_t total = 0;
    for (const auto &s : stateList)
        total += static_cast<int64_t>(s.transitions.size());
    return total;
}

int64_t
FsmMachine::counterStates() const
{
    int64_t total = 0;
    for (const auto &s : stateList)
        total += s.span > 1 ? 1 : 0;
    return total;
}

std::vector<int64_t>
FsmMachine::codeBases() const
{
    std::vector<int64_t> base(stateList.size(), 0);
    if (stateList.empty())
        return base;
    int64_t next = stateList[entryVal].span;
    for (uint32_t id = 0; id < stateList.size(); ++id) {
        if (id == entryVal)
            continue;
        base[id] = next;
        next += stateList[id].span;
    }
    return base;
}

std::vector<uint32_t>
FsmMachine::codeStates() const
{
    std::vector<int64_t> base = codeBases();
    std::vector<uint32_t> owner(static_cast<size_t>(totalCodes()), 0);
    for (uint32_t id = 0; id < stateList.size(); ++id) {
        for (int64_t c = base[id]; c < base[id] + stateList[id].span; ++c)
            owner[static_cast<size_t>(c)] = id;
    }
    return owner;
}

uint64_t
FsmMachine::encodeCode(FsmEncoding e, int64_t code)
{
    if (e == FsmEncoding::Binary || code == 0)
        return static_cast<uint64_t>(code);
    return uint64_t(1) << (code - 1);
}

int64_t
FsmMachine::decodeWord(FsmEncoding e, uint64_t word)
{
    if (e == FsmEncoding::Binary || word == 0)
        return static_cast<int64_t>(word);
    if (word & (word - 1))
        return -1;
    return __builtin_ctzll(word) + 1;
}

void
FsmMachine::compact(const std::vector<bool> &keep)
{
    constexpr uint32_t dropped = 0xFFFFFFFF;
    std::vector<uint32_t> remap(stateList.size(), dropped);
    std::vector<FsmState> kept;
    for (uint32_t id = 0; id < stateList.size(); ++id) {
        if (id < keep.size() && keep[id]) {
            remap[id] = static_cast<uint32_t>(kept.size());
            kept.push_back(std::move(stateList[id]));
        }
    }
    for (auto &s : kept) {
        for (auto &t : s.transitions) {
            if (remap[t.target] == dropped)
                panic("fsm compact: kept state targets a dropped state");
            t.target = remap[t.target];
        }
    }
    if (remap[entryVal] == dropped)
        panic("fsm compact: entry state dropped");
    entryVal = remap[entryVal];
    stateList = std::move(kept);
}

std::string
FsmMachine::str() const
{
    std::ostringstream os;
    os << "fsm " << nameVal.str() << " {";
    if (realized()) {
        os << " // group=" << groupVal.str() << " encoding="
           << fsmEncodingName(encodingVal);
        if (!registerVal.empty())
            os << " register=" << registerVal.str();
    }
    os << "\n";
    for (uint32_t id = 0; id < stateList.size(); ++id) {
        const FsmState &s = stateList[id];
        os << "  state " << id << " \"" << s.name.str() << "\"";
        if (s.span != 1)
            os << " span=" << s.span;
        if (id == entryVal)
            os << " entry";
        if (s.accepting)
            os << " accepting";
        os << " {\n";
        for (const auto &a : s.actions) {
            os << "    ";
            if (a.continuous)
                os << "continuous ";
            if (a.offset != 0 || a.length != FsmAction::kWholeSpan) {
                os << "@[" << a.offset << ", "
                   << (a.length == FsmAction::kWholeSpan
                           ? s.span - a.offset
                           : a.length)
                   << ") ";
            }
            os << a.dst.str() << " = ";
            if (!a.guard->isTrue())
                os << a.guard->str() << " ? ";
            os << a.src.str() << ";\n";
        }
        for (const auto &t : s.transitions) {
            os << "    ";
            if (!t.guard->isTrue())
                os << t.guard->str() << " ";
            os << "-> " << t.target << ";\n";
        }
        os << "  }\n";
    }
    os << "}\n";
    return os.str();
}

FsmStats
fsmStats(const Component &comp)
{
    FsmStats stats;
    for (const auto &m : comp.fsms()) {
        ++stats.machines;
        stats.states += static_cast<int>(m->states().size());
        stats.codes += m->totalCodes();
        stats.transitions += m->transitionCount();
        stats.counterStates += m->counterStates();
        if (!m->registerCell().empty())
            ++stats.registers;
        stats.helperRegisters +=
            static_cast<int>(m->helperRegisters().size());
    }
    stats.controlRegisters = stats.registers + stats.helperRegisters;
    stats.seedRegisters = comp.fsmSeedRegisters();
    stats.loweringSeconds = comp.fsmLoweringSeconds();
    return stats;
}

} // namespace calyx
