#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <unordered_map>

#include "ir/fsm.h"
#include "sim/env.h"
#include "support/error.h"

namespace calyx::obs {

using sim::SimProgram;

namespace {

constexpr uint32_t kNoGate = ~0u;

} // namespace

Profiler::Profiler(const SimProgram &prog) : prog(&prog)
{
    groupMode = prog.hasGroups();

    // Which memory (by index into `mems`) each read_data port belongs
    // to, for resolving read assignments below.
    std::unordered_map<uint32_t, uint32_t> read_port_mem;

    std::function<void(const SimProgram::Instance &)> walk =
        [&](const SimProgram::Instance &inst) {
            for (size_t g = 0; g < inst.groupNames.size(); ++g) {
                groups.push_back({inst.path + inst.groupNames[g].str(),
                                  inst.groupHoles[g].first, 0});
            }

            for (const auto &mp : inst.comp->fsms()) {
                const FsmMachine &fm = *mp;
                if (!fm.realized())
                    continue;
                MachineWatch w;
                w.name = inst.path + fm.name().str();
                w.root = inst.path.empty();
                w.encoding = fm.encoding();
                for (const FsmState &s : fm.states())
                    w.states.push_back({s.name.str(), 0});
                if (!fm.registerCell().empty()) {
                    w.registerCell = fm.registerCell().str();
                    w.regPort = prog.portId(
                        Symbol(inst.path + w.registerCell + ".out"));
                    w.codeToState = fm.codeStates();
                }
                machines.push_back(std::move(w));
            }

            for (const auto &cell : inst.comp->cells()) {
                if (!cell->isPrimitive())
                    continue;
                std::string path = inst.path + cell->name().str();
                sim::PrimModel *model = prog.findModel(Symbol(path));
                if (!model->memory())
                    continue;
                MemWatch mw;
                mw.name = path;
                mw.writeEn = prog.portId(Symbol(path + ".write_en"));
                for (const auto &p : cell->portDefs()) {
                    if (p.name.str().rfind("read_data", 0) == 0) {
                        read_port_mem[prog.portId(
                            Symbol(path + "." + p.name.str()))] =
                            static_cast<uint32_t>(mems.size());
                    }
                }
                mems.push_back(std::move(mw));
            }

            for (const auto &sub : inst.subs)
                walk(*sub);
        };
    walk(prog.root());

    // A memory read happens on a cycle where some assignment sourcing
    // one of its read_data ports is live: guard true, and — for group
    // assignments — the group's go hole high.
    auto scan = [&](const std::vector<sim::SAssign> &assigns,
                    uint32_t gate) {
        for (const sim::SAssign &a : assigns) {
            if (a.srcConst)
                continue;
            auto it = read_port_mem.find(a.srcPort);
            if (it == read_port_mem.end())
                continue;
            mems[it->second].readAssigns.push_back(
                static_cast<uint32_t>(reads.size()));
            reads.push_back({&a.guard, gate});
        }
    };
    std::function<void(const SimProgram::Instance &)> scanInst =
        [&](const SimProgram::Instance &inst) {
            scan(inst.continuous, kNoGate);
            for (size_t g = 0; g < inst.groupAssigns.size(); ++g)
                scan(inst.groupAssigns[g], inst.groupHoles[g].first);
            for (const auto &sub : inst.subs)
                scanInst(*sub);
        };
    scanInst(prog.root());
}

void
Profiler::cycleSettled(uint64_t cycle, const uint64_t *vals)
{
    (void)cycle;
    ++settled;
    bool attributed = false;
    bool any_watch = false;

    for (GroupWatch &g : groups) {
        any_watch = true;
        if (vals[g.goHole] & 1) {
            ++g.cycles;
            attributed = true;
        }
    }

    bool have_root = false;
    for (const MachineWatch &m : machines)
        have_root |= m.root && !m.codeToState.empty();
    for (MachineWatch &m : machines) {
        if (m.codeToState.empty())
            continue; // register-free: nothing to decode
        any_watch = true;
        int64_t code = FsmMachine::decodeWord(m.encoding, vals[m.regPort]);
        if (code < 0 ||
            code >= static_cast<int64_t>(m.codeToState.size())) {
            ++m.unattributed;
            continue;
        }
        ++m.states[m.codeToState[static_cast<size_t>(code)]].cycles;
        if (m.root || !have_root)
            attributed = true;
    }

    if (!any_watch || attributed)
        ++attributedCycles;

    for (MemWatch &mw : mems) {
        if (vals[mw.writeEn] & 1)
            ++mw.writeCycles;
        for (uint32_t ri : mw.readAssigns) {
            const ReadWatch &r = reads[ri];
            if (r.gateHole != kNoGate && !(vals[r.gateHole] & 1))
                continue;
            if (!r.guard->eval(vals))
                continue;
            ++mw.readCycles;
            break;
        }
    }
}

void
Profiler::combStats(uint64_t cycle, int evals)
{
    (void)cycle;
    evalsTotal += static_cast<uint64_t>(evals > 0 ? evals : 0);
    evalsMax = std::max(evalsMax, evals);
}

void
Profiler::finish(uint64_t cycles)
{
    totalCycles = cycles;
}

double
Profiler::attributedPct() const
{
    uint64_t denom = settled ? settled : 1;
    return 100.0 * static_cast<double>(attributedCycles) /
           static_cast<double>(denom);
}

uint64_t
Profiler::groupCycles(const std::string &path) const
{
    for (const GroupWatch &g : groups) {
        if (g.name == path)
            return g.cycles;
    }
    fatal("profiler: no group watch named '", path, "'");
}

uint64_t
Profiler::stateCycles(const std::string &machine_path,
                      const std::string &state) const
{
    for (const MachineWatch &m : machines) {
        if (m.name != machine_path)
            continue;
        for (const StateCount &s : m.states) {
            if (s.name == state)
                return s.cycles;
        }
        fatal("profiler: machine '", machine_path, "' has no state '",
              state, "'");
    }
    fatal("profiler: no machine watch named '", machine_path, "'");
}

json::Value
Profiler::report() const
{
    uint64_t cycles = totalCycles ? totalCycles : settled;
    json::Value p = json::Value::object();
    p.set("cycles", json::Value::number(cycles));
    p.set("attributed_cycles", json::Value::number(attributedCycles));
    p.set("attributed_pct", json::Value::real(attributedPct()));

    json::Value garr = json::Value::array();
    for (const GroupWatch &g : groups) {
        json::Value o = json::Value::object();
        o.set("name", json::Value::str(g.name));
        o.set("cycles", json::Value::number(g.cycles));
        garr.push(std::move(o));
    }
    p.set("groups", std::move(garr));

    json::Value marr = json::Value::array();
    for (const MachineWatch &m : machines) {
        json::Value o = json::Value::object();
        o.set("name", json::Value::str(m.name));
        o.set("register", json::Value::str(m.registerCell));
        o.set("encoding", json::Value::str(fsmEncodingName(m.encoding)));
        json::Value sarr = json::Value::array();
        for (const StateCount &s : m.states) {
            json::Value so = json::Value::object();
            so.set("name", json::Value::str(s.name));
            so.set("cycles", json::Value::number(s.cycles));
            sarr.push(std::move(so));
        }
        o.set("states", std::move(sarr));
        o.set("unattributed_cycles", json::Value::number(m.unattributed));
        marr.push(std::move(o));
    }
    p.set("machines", std::move(marr));

    json::Value mem = json::Value::array();
    for (const MemWatch &mw : mems) {
        json::Value o = json::Value::object();
        o.set("name", json::Value::str(mw.name));
        o.set("read_cycles", json::Value::number(mw.readCycles));
        o.set("write_cycles", json::Value::number(mw.writeCycles));
        mem.push(std::move(o));
    }
    p.set("memories", std::move(mem));

    json::Value eng = json::Value::object();
    eng.set("comb_evals_total", json::Value::number(evalsTotal));
    eng.set("comb_evals_max",
            json::Value::number(static_cast<uint64_t>(
                evalsMax > 0 ? evalsMax : 0)));
    eng.set("comb_evals_avg",
            json::Value::real(settled ? static_cast<double>(evalsTotal) /
                                            static_cast<double>(settled)
                                      : 0.0));
    // Static guard sizes: every assignment's SExpr tree against the
    // hash-consed DAG the levelized engine evaluates.
    eng.set("guard_tree_nodes",
            json::Value::number(prog->guardDag().treeNodes));
    eng.set("guard_dag_nodes",
            json::Value::number(prog->guardDag().nodes.size()));
    p.set("engine", std::move(eng));
    return p;
}

void
Profiler::printSummary(std::ostream &os) const
{
    uint64_t cycles = totalCycles ? totalCycles : settled;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "profile: %llu cycles, %.1f%% attributed\n",
                  static_cast<unsigned long long>(cycles),
                  attributedPct());
    os << buf;

    struct Row
    {
        std::string label;
        uint64_t cycles;
    };
    std::vector<Row> rows;
    for (const GroupWatch &g : groups)
        rows.push_back({"group " + g.name, g.cycles});
    for (const MachineWatch &m : machines) {
        for (const StateCount &s : m.states)
            rows.push_back({"state " + m.name + "/" + s.name, s.cycles});
        if (m.unattributed)
            rows.push_back({"state " + m.name + "/<unattributed>",
                            m.unattributed});
    }
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        if (a.cycles != b.cycles)
            return a.cycles > b.cycles;
        return a.label < b.label;
    });

    if (!rows.empty())
        os << "    cycles       %  location\n";
    for (const Row &r : rows) {
        double pct = cycles ? 100.0 * static_cast<double>(r.cycles) /
                                  static_cast<double>(cycles)
                            : 0.0;
        std::snprintf(buf, sizeof(buf), "  %8llu  %5.1f%%  %s\n",
                      static_cast<unsigned long long>(r.cycles), pct,
                      r.label.c_str());
        os << buf;
    }

    for (const MemWatch &mw : mems) {
        std::snprintf(
            buf, sizeof(buf),
            "  memory %s: %llu read cycles, %llu write cycles\n",
            mw.name.c_str(),
            static_cast<unsigned long long>(mw.readCycles),
            static_cast<unsigned long long>(mw.writeCycles));
        os << buf;
    }
    if (settled) {
        std::snprintf(buf, sizeof(buf),
                      "  engine: %llu comb evals (max %d/cycle, avg "
                      "%.1f/cycle), guards %llu tree -> %zu dag nodes\n",
                      static_cast<unsigned long long>(evalsTotal),
                      evalsMax,
                      static_cast<double>(evalsTotal) /
                          static_cast<double>(settled),
                      static_cast<unsigned long long>(
                          prog->guardDag().treeNodes),
                      prog->guardDag().nodes.size());
        os << buf;
    }
}

} // namespace calyx::obs
