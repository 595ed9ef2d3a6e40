#ifndef CALYX_OBS_PROFILE_H
#define CALYX_OBS_PROFILE_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "ir/fsm.h"
#include "obs/observer.h"
#include "support/json.h"

namespace calyx::sim {
class SimProgram;
struct SExpr;
}

namespace calyx::obs {

/**
 * Cycle-accurate activity profiler (futil --profile). Attributes every
 * simulated cycle back to source-level control constructs, on both
 * sides of the lowering pipeline:
 *
 *  - Pre-lowering programs (groups still present, run under the control
 *    interpreter): per-group active cycles, counted from the group's
 *    go hole.
 *  - Lowered programs: per-FSM-state occupancy, decoded each cycle
 *    from the surviving FsmMachine realization records (ir/fsm.h) —
 *    the machine's state register value is mapped back through the
 *    realized code layout to the named state, so a profile reads
 *    "2140 cycles in state body of machine control", not "register
 *    fsm0 held 3".
 *
 * Also counts per-memory read/write cycles and accumulates the
 * engine's comb() effort statistics (schedule-node evaluations for
 * levelized, fixed-point passes for jacobi). Results render as a JSON
 * object (report(), schema in docs/observability.md) and a terminal
 * table sorted by cycles (printSummary()).
 */
class Profiler : public SimObserver
{
  public:
    explicit Profiler(const sim::SimProgram &prog);

    void cycleSettled(uint64_t cycle, const uint64_t *vals) override;
    void combStats(uint64_t cycle, int evals) override;
    void finish(uint64_t cycles) override;

    /** The `profile` JSON object (docs/observability.md schema). */
    json::Value report() const;

    /** Human table sorted by cycles, descending. */
    void printSummary(std::ostream &os) const;

    // --- Test accessors ---------------------------------------------
    uint64_t cycles() const { return totalCycles; }
    double attributedPct() const;
    /** Active cycles of group `path` (e.g. "write"); fatal() on miss. */
    uint64_t groupCycles(const std::string &path) const;
    /** Occupancy of `state` in machine `path`; fatal() on miss. */
    uint64_t stateCycles(const std::string &machine_path,
                         const std::string &state) const;

  private:
    struct GroupWatch
    {
        std::string name;   ///< Instance-path-qualified group name.
        uint32_t goHole = 0;
        uint64_t cycles = 0;
    };

    struct StateCount
    {
        std::string name;
        uint64_t cycles = 0;
    };

    struct MachineWatch
    {
        std::string name;     ///< Instance-path-qualified machine name.
        std::string registerCell; ///< "" for register-free machines.
        FsmEncoding encoding = FsmEncoding::Binary;
        bool root = false;    ///< Lives in the top instance.
        uint32_t regPort = 0; ///< State register's `out` port id.
        std::vector<StateCount> states;
        /// code -> index into `states` (FsmMachine::codeStates).
        std::vector<uint32_t> codeToState;
        uint64_t unattributed = 0;
    };

    struct MemWatch
    {
        std::string name;
        uint32_t writeEn = 0;
        uint64_t readCycles = 0, writeCycles = 0;
        /// Indices into `reads` of the assignments sourcing this
        /// memory's read_data ports.
        std::vector<uint32_t> readAssigns;
    };

    struct ReadWatch
    {
        const sim::SExpr *guard = nullptr;
        uint32_t gateHole = 0; ///< Group go hole, or ~0u (ungated).
    };

    const sim::SimProgram *prog;
    bool groupMode = false;
    std::vector<GroupWatch> groups;
    std::vector<MachineWatch> machines;
    std::vector<MemWatch> mems;
    std::vector<ReadWatch> reads;

    uint64_t totalCycles = 0;       ///< Set by finish().
    uint64_t settled = 0;           ///< cycleSettled() count.
    uint64_t attributedCycles = 0;
    uint64_t evalsTotal = 0;
    int evalsMax = 0;
};

} // namespace calyx::obs

#endif // CALYX_OBS_PROFILE_H
