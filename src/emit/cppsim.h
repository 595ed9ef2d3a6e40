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
 * evaluation schedule of a fully-lowered program as one C++
 * translation unit — the verilator-style technique. The emitted
 * module walks the Tarjan-condensed topological order of the port
 * dependency graph (sim/schedule.h): one statement per port over a
 * dense `uint64_t vals[]` array indexed by the existing dense port
 * ids, guards read from SimProgram::guardDag() and folded to
 * branchless integer selects (big guards through per-DAG-node locals
 * and a module-wide pool of shared values), primitive semantics
 * inlined per cell, and non-trivial SCCs emitted as bounded
 * Gauss–Seidel fixed-point loops that set the same port-naming
 * diagnostic the interpreter raises. The code is straight-line except
 * for those loops and, in the scalar module, table loops: each group
 * of same-shape statements in a big select chain or among the clock
 * statements runs as one loop over a static table (like verilator's
 * V3Reloop), which keeps the host compile short.
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

/**
 * Codegen knobs for emitCppSim. Lane width is the only variant: the
 * scalar module (the default) and one lane module per width, each its
 * own source and so its own JIT cache entry. Observers need no variant
 * of their own: they read the scalar module's `vals` after eval().
 */
struct CppSimOptions
{
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
     * `uint64_t[kLanes * size]` block. Observers never see a lane
     * module (they follow one stimulus; see docs/simulation.md
     * "Batched & parallel execution").
     */
    uint32_t lanes = 1;
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
constexpr uint32_t cppsimAbiVersion = 2;

/**
 * Shard seam marker in the generated source. The module is laid out as
 * a common prologue (declarations only, a few KB whatever the design),
 * then marker-prefixed segments: one per chunk function and a final
 * tail holding single definitions and the C ABI. The JIT driver
 * (sim/compiled.cc) may split on these lines, grouping contiguous
 * segments into [prologue + segments] translation units, two per
 * usable core, and compiling them in parallel; the markers are
 * comments, so the file also builds as one unit.
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
