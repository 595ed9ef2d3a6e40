#include "sim/schedule.h"

#include <algorithm>
#include <utility>

#include "sim/env.h"
#include "support/error.h"

namespace calyx::sim {

namespace {

using Edge = std::pair<uint32_t, uint32_t>; ///< pred -> succ

/** Compressed sparse row successor lists from an edge list. */
void
buildCsr(uint32_t n, const std::vector<Edge> &edges,
         std::vector<uint32_t> &offset, std::vector<uint32_t> &data)
{
    offset.assign(n + 1, 0);
    for (const Edge &e : edges)
        ++offset[e.first + 1];
    for (uint32_t i = 0; i < n; ++i)
        offset[i + 1] += offset[i];
    data.resize(edges.size());
    std::vector<uint32_t> cursor(offset.begin(), offset.end() - 1);
    for (const Edge &e : edges)
        data[cursor[e.first]++] = e.second;
}

/**
 * Iterative Tarjan SCC. Components are emitted successors-first (every
 * edge out of an emitted component targets an earlier component), so
 * reversing the emission order yields a topological evaluation order.
 */
std::vector<std::vector<uint32_t>>
tarjanScc(uint32_t n, const std::vector<uint32_t> &off,
          const std::vector<uint32_t> &dat)
{
    std::vector<std::vector<uint32_t>> comps;
    std::vector<uint32_t> index(n, 0), low(n, 0), stack;
    std::vector<uint8_t> onStack(n, 0);
    std::vector<uint32_t> dfsNode, dfsEdge;
    uint32_t counter = 0;

    for (uint32_t start = 0; start < n; ++start) {
        if (index[start])
            continue;
        index[start] = low[start] = ++counter;
        stack.push_back(start);
        onStack[start] = 1;
        dfsNode.push_back(start);
        dfsEdge.push_back(off[start]);
        while (!dfsNode.empty()) {
            uint32_t v = dfsNode.back();
            if (dfsEdge.back() < off[v + 1]) {
                uint32_t w = dat[dfsEdge.back()++];
                if (!index[w]) {
                    index[w] = low[w] = ++counter;
                    stack.push_back(w);
                    onStack[w] = 1;
                    dfsNode.push_back(w);
                    dfsEdge.push_back(off[w]);
                } else if (onStack[w]) {
                    low[v] = std::min(low[v], index[w]);
                }
            } else {
                dfsNode.pop_back();
                dfsEdge.pop_back();
                if (!dfsNode.empty()) {
                    uint32_t p = dfsNode.back();
                    low[p] = std::min(low[p], low[v]);
                }
                if (low[v] == index[v]) {
                    comps.emplace_back();
                    uint32_t w;
                    do {
                        w = stack.back();
                        stack.pop_back();
                        onStack[w] = 0;
                        comps.back().push_back(w);
                    } while (w != v);
                }
            }
        }
    }
    return comps;
}

std::string
portList(const SimProgram &prog, const std::vector<uint32_t> &ports)
{
    std::string out;
    for (uint32_t p : ports) {
        if (!out.empty())
            out += ", ";
        out += prog.portName(p);
    }
    return out;
}

} // namespace

SimSchedule::SimSchedule(const SimProgram &prog)
{
    const uint32_t n = static_cast<uint32_t>(prog.numPorts());
    portModel.assign(n, -1);
    portNode.assign(n, 0);

    std::vector<Edge> edges;
    /// Edges no runtime activation choice can remove: unguarded
    /// continuous assignments and model combinational dependencies.
    std::vector<Edge> uncondEdges;
    std::vector<uint8_t> selfLoop(n, 0);
    std::vector<uint32_t> guardPorts;

    prog.forEachAssignment([&](const SAssign &a, bool continuous) {
        bool uncond = continuous && a.guard.nodes.empty();
        if (!a.srcConst) {
            edges.push_back({a.srcPort, a.dst});
            if (a.srcPort == a.dst)
                selfLoop[a.dst] = 1;
            if (uncond)
                uncondEdges.push_back({a.srcPort, a.dst});
        }
        guardPorts.clear();
        a.guard.collectPorts(guardPorts);
        for (uint32_t g : guardPorts) {
            edges.push_back({g, a.dst});
            if (g == a.dst)
                selfLoop[a.dst] = 1;
        }
    });

    const auto &models = prog.models();
    for (uint32_t i = 0; i < models.size(); ++i) {
        ModelDeps d = models[i]->deps();
        for (uint32_t o : d.outputs)
            portModel[o] = static_cast<int32_t>(i);
        for (const auto &[in, outs] : d.combEdges) {
            for (uint32_t o : outs) {
                edges.push_back({in, o});
                if (in == o)
                    selfLoop[o] = 1;
                uncondEdges.push_back({in, o});
            }
        }
        if (d.stateful) {
            stateful.push_back(i);
            statefulOuts.push_back(d.outputs);
        }
    }

    // Reject unconditional combinational cycles up front: these cannot
    // settle under any activation, so diagnose them by name instead of
    // timing out at runtime.
    {
        std::vector<uint32_t> off, dat;
        buildCsr(n, uncondEdges, off, dat);
        std::vector<uint8_t> uncondSelf(n, 0);
        for (const Edge &e : uncondEdges) {
            if (e.first == e.second)
                uncondSelf[e.first] = 1;
        }
        for (const auto &comp : tarjanScc(n, off, dat)) {
            if (comp.size() > 1 || uncondSelf[comp[0]]) {
                fatal("combinational loop through ports: ",
                      portList(prog, comp));
            }
        }
    }

    // Condense the full potential-driver graph and order it.
    std::vector<uint32_t> off, dat;
    buildCsr(n, edges, off, dat);
    auto comps = tarjanScc(n, off, dat);

    nodeList.reserve(comps.size());
    members.reserve(n);
    for (auto it = comps.rbegin(); it != comps.rend(); ++it) {
        Node node;
        node.first = static_cast<uint32_t>(members.size());
        node.count = static_cast<uint32_t>(it->size());
        node.cyclic = it->size() > 1 || selfLoop[(*it)[0]];
        uint32_t id = static_cast<uint32_t>(nodeList.size());
        for (uint32_t p : *it) {
            members.push_back(p);
            portNode[p] = id;
        }
        nodeList.push_back(node);
    }

    // Dedup'd fanout lists for event propagation.
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    buildCsr(n, edges, fanoutOffset, fanoutData);
}

} // namespace calyx::sim
