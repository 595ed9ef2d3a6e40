#ifndef CALYX_EMIT_CPPSIM_H
#define CALYX_EMIT_CPPSIM_H

#include <ostream>

#include "emit/backend.h"

namespace calyx::sim {
class SimProgram;
}

namespace calyx::emit {

/**
 * Compiled-simulation backend ("cppsim"): codegen the levelized
 * evaluation schedule of a fully-lowered program as one straight-line
 * C++ translation unit — the verilator-style technique. The emitted
 * module walks the Tarjan-condensed topological order of the port
 * dependency graph (sim/schedule.h): one statement per port over a
 * dense `uint64_t vals[]` array indexed by the existing dense port
 * ids, guards folded to branchless integer selects, primitive
 * semantics inlined per cell, and non-trivial SCCs emitted as bounded
 * Gauss–Seidel fixed-point loops that set the same port-naming
 * diagnostic the interpreter raises.
 *
 * The module exposes a tiny C ABI (`cppsim_*` symbols) consumed by the
 * JIT driver in sim/compiled.h: instance construction, storage binding
 * (register/memory state stays inside the interpreter's PrimModel
 * objects, so archState() and harness pokes work unchanged), reset,
 * eval, clock, and an error slot. Constant-only ports (std_const
 * outputs and unguarded constant assignments, propagated transitively)
 * are folded out of eval() and written once at reset.
 */
class CppSimBackend : public Backend
{
  public:
    void emit(const Context &ctx, std::ostream &os) const override;
};

/** Codegen knobs for emitCppSim. */
struct CppSimOptions
{
    /**
     * Emit the observability variant: the instance carries a probe
     * callback slot (installed via `cppsim_set_probe`), and eval()
     * ends by invoking it with the settled port array. Off by default
     * so the hot path stays branch-free; the JIT driver keeps probed
     * and plain modules as distinct cache entries (different source,
     * different digest). See docs/observability.md.
     */
    bool probe = false;

    /**
     * Number of stimulus lanes the module advances per eval()/clock()
     * call. 1 (the default) emits exactly the classic scalar module.
     * For lanes > 1 every port value becomes a dense SoA plane —
     * `vals[port * kLanes + lane]` — and every statement is wrapped in
     * (or fused into) a lane loop the host compiler can vectorize, so
     * one walk of the schedule advances `lanes` independent stimulus
     * sets. Per-lane primitive state lives behind the same bind()
     * pointers: each register slot points at a `uint64_t[kLanes]`
     * array and each memory slot at a lane-major
     * `uint64_t[kLanes * size]` block. Lane modules reject `probe`
     * (observers are inherently single-stimulus; see
     * docs/simulation.md "Batched & parallel execution").
     */
    uint32_t lanes = 1;

    /**
     * Macro-task partition target (sim/partition.h). 0 or 1 (the
     * default) emits the classic single-eval module, byte-identical to
     * before partitioning existed. For partitions > 1 the schedule is
     * cut by buildPartitionPlan() and eval is emitted as one function
     * group per macro-task plus embedded dependency/cost tables:
     * `cppsim_eval_partition(s, vals, i)` runs task i alone (callers
     * follow the plan tables, sim/partition.h's PartitionRunner), and
     * `cppsim_eval` is kept as the in-order loop over every task for
     * plan-free hosts — same values either way. Each partition owns a
     * private guard-pool slice and a private error slot (`perr[i]`),
     * so concurrent partition evals never write shared state. The
     * probed variant is rejected with partitions (observers are
     * notified host-side after the partitions join), and so is lanes >
     * 1 (batched runs spread their tiles over threads instead).
     */
    uint32_t partitions = 0;
};

/**
 * Emit the compiled-simulation C++ module for an already-flattened
 * program. fatal() when the program still has groups (the compiled
 * engine requires fully-lowered programs) or contains an unconditional
 * combinational cycle (the schedule build names the ports).
 */
void emitCppSim(const sim::SimProgram &prog, std::ostream &os,
                const CppSimOptions &opts = {});

/** Version of the generated C ABI; bumped on incompatible changes. */
constexpr uint32_t cppsimAbiVersion = 1;

/**
 * Shard seam marker in the generated source. The module is laid out as
 * a common prologue (declarations only), then marker-prefixed segments:
 * one per chunk function and a final tail holding single definitions
 * and the C ABI. The JIT driver (sim/compiled.cc) may split on these
 * lines, grouping contiguous segments into one [prologue + segments]
 * translation unit per hardware thread and compiling them in parallel;
 * the markers are comments, so the file also builds as one unit.
 */
constexpr const char *cppsimShardMarker = "//--cppsim-shard--";

/** Statements per generated chunk function. Bounds both the optimizer's
 * per-function cost on huge netlists and the shard granularity. */
constexpr size_t cppsimChunkStatements = 500;

/** Byte cap per chunk function body: statements vary from one line to
 * multi-KB mux blocks, and host-compiler passes are superlinear in
 * function size, so chunks are also split when they grow past this. */
constexpr size_t cppsimChunkBytes = 64 * 1024;

} // namespace calyx::emit

#endif // CALYX_EMIT_CPPSIM_H
