#ifndef CALYX_SIM_SCHEDULE_H
#define CALYX_SIM_SCHEDULE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace calyx::sim {

class SimProgram;

/**
 * Static evaluation schedule for the levelized engine: the port-level
 * dependency graph over *all potential drivers* of a SimProgram,
 * condensed into strongly connected components and topologically
 * ordered.
 *
 * Edges (pred -> succ means succ's settled value reads pred):
 *  - assignment dst <- src port (when not a constant),
 *  - assignment dst <- every port its guard reads,
 *  - model output  <- every input the model declares as a combinational
 *    dependency (PrimModel::deps()); registers/memories declare none
 *    for their clocked inputs, which cuts the graph at state elements.
 *
 * Group assignments that are never simultaneously active still
 * contribute edges: the schedule is conservative, valid for any active
 * set the interpreter selects at runtime.
 *
 * Construction rejects *unconditional* combinational cycles — cycles
 * whose every edge is an unguarded continuous assignment or a model
 * combinational edge, i.e. cycles no runtime activation choice can
 * break — with a diagnostic naming the ports on the cycle. Conditional
 * cycles (through guards or group assignments) survive as non-trivial
 * SCC nodes and get a bounded local fixed point at evaluation time.
 */
class SimSchedule
{
  public:
    explicit SimSchedule(const SimProgram &prog);

    struct Node
    {
        uint32_t first = 0; ///< Range into memberPorts().
        uint32_t count = 0;
        bool cyclic = false; ///< Non-trivial SCC or self-loop.
    };

    /** Schedule nodes in evaluation (topological) order. */
    const std::vector<Node> &nodes() const { return nodeList; }

    /** Flattened SCC membership, indexed via Node::first/count. */
    const std::vector<uint32_t> &memberPorts() const { return members; }

    /** Schedule node evaluating `port`. */
    uint32_t nodeOf(uint32_t port) const { return portNode[port]; }

    /** Ports whose settled value reads `port` (dedup'd successors). */
    const uint32_t *fanoutBegin(uint32_t port) const
    {
        return fanoutData.data() + fanoutOffset[port];
    }
    const uint32_t *fanoutEnd(uint32_t port) const
    {
        return fanoutData.data() + fanoutOffset[port + 1];
    }

    /** SimProgram::models() index of the model driving `port`, or -1.
     * Indices, not pointers, so every lane's own model set (sim/env.h
     * SimState) and the codegen's cell list read the same table. */
    int32_t modelOf(uint32_t port) const { return portModel[port]; }

    /** models() indices of the models whose outputs can change at
     * clock edges. */
    const std::vector<uint32_t> &statefulModels() const { return stateful; }

    /** Output ports of the i-th stateful model. */
    const std::vector<uint32_t> &statefulOutputs(size_t i) const
    {
        return statefulOuts[i];
    }

  private:
    std::vector<Node> nodeList;
    std::vector<uint32_t> members;
    std::vector<uint32_t> portNode;
    std::vector<uint32_t> fanoutOffset, fanoutData; // CSR successor lists
    std::vector<int32_t> portModel;
    std::vector<uint32_t> stateful;
    std::vector<std::vector<uint32_t>> statefulOuts;
};

} // namespace calyx::sim

#endif // CALYX_SIM_SCHEDULE_H
