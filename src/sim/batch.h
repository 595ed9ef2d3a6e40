#ifndef CALYX_SIM_BATCH_H
#define CALYX_SIM_BATCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/env.h"

namespace calyx::sim {

class CompiledModule;
struct PartitionPlan;
class PartitionRunner;

/**
 * One independent stimulus set for a batched run: initial memory images
 * by hierarchical cell path (the same cells workloads::pokeInputs
 * seeds). Memories not named start zeroed; images shorter than the
 * memory pad with zeros. Registers always start at zero, exactly like
 * a scalar CycleSim::run() after reset().
 */
struct Stimulus
{
    std::vector<std::pair<std::string, std::vector<uint64_t>>> mems;
};

/** Final architectural state and cycle count of one retired lane. */
struct LaneResult
{
    uint64_t cycles = 0;
    /// Final register values, register-slot order (BatchRunner::regPaths).
    std::vector<uint64_t> regs;
    /// Final memory images, memory-slot order (BatchRunner::memPaths).
    std::vector<std::vector<uint64_t>> mems;
};

struct BatchOptions
{
    Engine engine = Engine::Compiled;
    /**
     * Worker threads (1 = run on the caller). Tiles are spread over
     * them, including the one-lane tiles of a short compiled batch.
     * The levelized engine, when a batch has a single tile (notably
     * batch size 1), moves the threads *inside* the tile instead,
     * running the macro-task partition plan (sim/partition.h). The two
     * levels never stack: inner partitioning engages only when the
     * outer tile loop is serial, so occupancy stays at `threads` either
     * way (see docs/simulation.md "Partitioned execution").
     */
    unsigned threads = 1;
    /**
     * Widest tile, in lanes. Each tile is one schedule walk (levelized)
     * or one module pass (compiled) and one work item for the pool.
     *
     * The compiled engine cuts a batch into full laneTile-wide tiles on
     * a module compiled for exactly laneTile lanes. A remainder of at
     * most laneTile/2 stimuli runs as one-lane tiles on the scalar
     * module; a longer one runs as one padded laneTile-wide tile whose
     * dead lanes are discarded. A resident runner therefore loads at
     * most two modules whatever the request shapes. Per stimulus, the
     * scalar module beats a 16-lane tile pass up to a remainder of 20
     * (systolic 16x16), 10 (eight PolyBench kernels) and 9 (the same,
     * unrolled): 4.0 ms scalar against 80 ms per tile, 36.8 against
     * 370, 44.6 against 405, on a 4-vCPU x86-64 host. laneTile/2 stays
     * below each. The levelized engine narrows the last tile to what is
     * left instead (its interpreter cost is linear in live lanes, so
     * padding only wastes work).
     */
    uint32_t laneTile = 16;
    uint64_t maxCycles = 50'000'000;
};

/**
 * Batched lane-parallel execution of one netlist over many independent
 * stimulus sets (the ROADMAP's traffic-scale throughput item).
 *
 * Port values become lane arrays: the compiled engine runs a lane
 * module whose generated statements loop over a dense SoA plane
 * (`vals[port * lanes + lane]`, emit/cppsim.h CppSimOptions::lanes);
 * the levelized engine walks one shared dirty-node schedule over
 * lane-major value slices, with a private PrimModel set per lane for
 * stateful storage. Either way one walk of the Tarjan-condensed
 * schedule advances every lane in the tile.
 *
 * Lane divergence is handled by done-mask retirement: each cycle every
 * live lane evaluates, lanes whose `done` settles high retire
 * independently — their cycle count and architectural state snapshot
 * at exactly the point a scalar CycleSim::run() would return — and
 * their `go` drops so the retired design idles while siblings run on.
 * Per-lane results are bit-identical to scalar runs by construction;
 * tests/test_batch_sim.cc holds every lane of a batch to that.
 *
 * Tiles own disjoint state, so they parallelize over the work-stealing
 * pool (support/pool.h) without locks.
 *
 * A BatchRunner is resident: construction resolves the schedule and the
 * driver tables once, run() loads each compiled module shape (scalar,
 * laneTile-wide) the first time a batch needs it, and every later batch
 * reuses them — the object `futil --serve` keeps alive across requests.
 * Construction fatal()s on programs with groups (batching needs
 * fully-lowered programs) and on Engine::Jacobi (the oracle stays
 * scalar); run() fatal()s on anything CompiledModule::load rejects.
 * Observers are rejected by design: batched runs have no probe hookup
 * (docs/simulation.md, docs/observability.md).
 */
class BatchRunner
{
  public:
    BatchRunner(const SimProgram &prog, const BatchOptions &opts);
    ~BatchRunner();

    BatchRunner(const BatchRunner &) = delete;
    BatchRunner &operator=(const BatchRunner &) = delete;

    /** Run every stimulus to completion; results in batch order. */
    std::vector<LaneResult> run(const std::vector<Stimulus> &batch);

    /** Cell path per LaneResult::regs slot. */
    const std::vector<std::string> &regPaths() const { return regPathList; }
    /** Cell path per LaneResult::mems slot. */
    const std::vector<std::string> &memPaths() const { return memPathList; }

    /** Flattened word count of memory slot `m`. */
    uint64_t memSize(size_t m) const { return memSizes[m]; }

    /** Times a JIT module was loaded (compiled engine; a resident
     * runner loads at most two: scalar and laneTile-wide). */
    uint64_t moduleLoads() const { return loads; }

    /** Tiles and lanes run so far, summed over every run(). */
    struct TileCounts
    {
        uint64_t scalarTiles = 0; ///< One-lane tiles.
        uint64_t laneTiles = 0;   ///< Tiles wider than one lane.
        /// Lanes evaluated without a stimulus (padded compiled tiles).
        uint64_t paddedLanes = 0;
    };
    const TileCounts &tileCounts() const { return tally; }

    /** True when every load so far was served from the on-disk object
     * cache without invoking the host compiler. */
    bool modulesFromCache() const { return allFromCache; }

    const BatchOptions &options() const { return opts; }

  private:
    struct LevelizedPlan;

    void runCompiledTile(const std::vector<Stimulus> &batch, size_t start,
                         size_t count, uint32_t lanes,
                         const CompiledModule &mod,
                         std::vector<LaneResult> &out);
    void runLevelizedTile(const std::vector<Stimulus> &batch, size_t start,
                          size_t count, PartitionRunner *runner,
                          std::vector<LaneResult> &out);
    std::shared_ptr<CompiledModule> moduleFor(uint32_t lanes);
    /// Add `tiles` tiles `lanes` wide holding `stimuli` stimuli in all.
    void countTiles(size_t tiles, uint32_t lanes, size_t stimuli);

    /// Per-memory-slot lane image for one stimulus (resolved indices).
    std::vector<std::vector<uint64_t>> seedImages(const Stimulus &s) const;

    const SimProgram *prog;
    BatchOptions opts;

    // Stateful-slot maps, model order (mirrors emit/cppsim.cc).
    std::vector<size_t> regModelIdx, memModelIdx;
    std::vector<std::string> regPathList, memPathList;
    std::vector<uint64_t> memSizes;
    std::map<std::string, size_t> memSlotByPath;

    /// JIT modules by lane count.
    std::map<uint32_t, std::shared_ptr<CompiledModule>> modules;
    uint64_t loads = 0;
    bool allFromCache = true;
    TileCounts tally;

    std::unique_ptr<LevelizedPlan> plan; ///< Levelized engine only.

    /// Intra-tile macro-task plan (levelized engine), built lazily the
    /// first time a run has a single tile and threads > 1 (see
    /// BatchOptions::threads).
    std::unique_ptr<PartitionPlan> innerPlan;
    std::unique_ptr<PartitionRunner> innerRunner;
};

/** One-shot convenience over a temporary BatchRunner. */
std::vector<LaneResult> runBatch(const SimProgram &prog,
                                 const std::vector<Stimulus> &batch,
                                 const BatchOptions &opts);

} // namespace calyx::sim

#endif // CALYX_SIM_BATCH_H
