#ifndef CALYX_WORKLOADS_HARNESS_H
#define CALYX_WORKLOADS_HARNESS_H

#include <string>
#include <vector>

#include "estimate/area.h"
#include "frontends/dahlia/ast.h"
#include "passes/pipeline_spec.h"
#include "sim/batch.h"
#include "sim/env.h"
#include "workloads/reference.h"

namespace calyx::obs {
class SimObserver;
}

namespace calyx::workloads {

/** Cycles and area of one compiled-and-simulated design. */
struct HardwareResult
{
    uint64_t cycles = 0;
    estimate::Area area;
};

/** Deterministic inputs for every memory a program declares. */
MemState makeInputs(const std::string &kernel_name,
                    const dahlia::Program &program);

/**
 * Scatter `inputs` into the simulation program's (possibly banked)
 * memory cells, translating the row-major layout of each declared
 * memory to the banked cells the pipeline created. Exposed so callers
 * that re-run one SimProgram (the engine benches) can re-seed
 * memories without recompiling the design.
 */
void pokeInputs(sim::SimProgram &sim, const dahlia::Program &program,
                const MemState &inputs);

/** Gather final memory contents back into the original layout. */
MemState readMemories(const sim::SimProgram &sim,
                      const dahlia::Program &program);

/**
 * Translate row-major `inputs` into a batched-simulation stimulus
 * (sim/batch.h): one image per banked memory cell, elements truncated
 * to the declared width — the same scatter pokeInputs performs on a
 * scalar SimProgram.
 */
sim::Stimulus makeStimulus(const dahlia::Program &program,
                           const MemState &inputs);

/** Execute on the AST reference interpreter. */
MemState runOnInterp(const dahlia::Program &program,
                     const MemState &inputs);

/**
 * Compile a Dahlia program through a Calyx pass pipeline, simulate it
 * with the given inputs, and report cycles and area. The final
 * memory state (translated back from banked cells to the original
 * layout) is stored in `final_state` when non-null.
 *
 * The pipeline is a parsed PipelineSpec or a spec string such as
 * `"all,-register-sharing"`.
 *
 * `observers` (obs/observer.h; not owned) are attached to the run's
 * SimState before the simulation starts, so a workload can be traced
 * or profiled through the same entry point the benches use.
 */
HardwareResult runOnHardware(const dahlia::Program &program,
                             const passes::PipelineSpec &spec,
                             const MemState &inputs,
                             MemState *final_state = nullptr,
                             const passes::RunOptions &run_options = {},
                             sim::Engine engine = sim::Engine::Levelized,
                             const std::vector<obs::SimObserver *>
                                 &observers = {});
HardwareResult runOnHardware(const dahlia::Program &program,
                             const std::string &spec,
                             const MemState &inputs,
                             MemState *final_state = nullptr);

/**
 * Compile a Dahlia program through a pass pipeline and emit it with a
 * registered backend (src/emit/backend.h): "verilog", "firrtl", "dot",
 * "json-netlist", or "calyx". Unknown backend names are a fatal error
 * with a did-you-mean suggestion.
 */
std::string emitDesign(const dahlia::Program &program,
                       const passes::PipelineSpec &spec,
                       const std::string &backend);
std::string emitDesign(const dahlia::Program &program,
                       const std::string &spec,
                       const std::string &backend);

} // namespace calyx::workloads

#endif // CALYX_WORKLOADS_HARNESS_H
