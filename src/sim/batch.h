#ifndef CALYX_SIM_BATCH_H
#define CALYX_SIM_BATCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/env.h"
#include "support/pool.h"

namespace calyx::sim {

class CompiledModule;

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
     * Most threads a batch spreads its tiles over (1 = run on the
     * caller): by default the usable cores of the thread that builds
     * these options (WorkPool::defaultThreads(), the affinity mask).
     * It is a cap, which BatchRunner's grain gate lowers to 1 for a
     * batch too short to pay the pool's dispatch. Each tile is one
     * serial walk, so a batch with a single tile (notably batch size
     * 1) runs on one thread whatever this says.
     */
    unsigned threads = WorkPool::defaultThreads();
    /**
     * Widest tile, in lanes: a constant, not a setting. Each tile is
     * one schedule walk (levelized) or one module pass (compiled) and
     * one work item for the pool.
     *
     * The compiled engine cuts a batch into full laneTile-wide tiles on
     * a module compiled for exactly laneTile lanes. A remainder of at
     * most laneTile/2 stimuli runs as one-lane tiles on the scalar
     * module; a longer one runs as one padded laneTile-wide tile whose
     * dead lanes are discarded. A resident runner therefore loads at
     * most two modules whatever the request shapes. Per stimulus, the
     * scalar module beats a 16-lane tile pass up to a remainder of 17.7
     * (systolic 16x16), 8.9 (eight PolyBench kernels) and 11.9 (the
     * same, unrolled): 5.8 ms scalar against 103 ms per tile, 45.2
     * against 403, 46.5 against 552, on a 4-vCPU x86-64 host (Release,
     * one thread, batch 64). laneTile/2 stays below each.
     *
     * The levelized engine narrows the last tile to what is left
     * instead (its interpreter cost is linear in live lanes, so padding
     * only wastes work).
     */
    static constexpr uint32_t laneTile = 16;
};

/**
 * Batched lane-parallel execution of one netlist over many independent
 * stimulus sets (the ROADMAP's traffic-scale throughput item).
 *
 * Port values become lane arrays: the compiled engine runs a lane
 * module whose generated statements loop over a dense SoA plane
 * (`vals[port * lanes + lane]`, emit/cppsim.h CppSimOptions::lanes);
 * a levelized tile is one K-lane SimState (sim/env.h), the scalar
 * engine's own walk over lane-major value slices, one dirty-node queue
 * for all lanes, and a private PrimModel set per lane. Either way one
 * walk of the Tarjan-condensed schedule advances every lane in the
 * tile.
 *
 * Lane divergence is handled by done-mask retirement: each cycle every
 * live lane evaluates, lanes whose `done` settles high retire
 * independently — their cycle count and architectural state snapshot
 * at exactly the point a scalar CycleSim::run() would return — and
 * they leave the tile while siblings run on (a compiled tile drops
 * their `go`, a levelized tile retires them from its SimState).
 * Per-lane results are bit-identical to scalar runs by construction;
 * tests/test_batch_sim.cc holds every lane of a batch to a scalar run
 * of the Jacobi oracle.
 *
 * Tiles own disjoint state, so they parallelize over the work-stealing
 * pool (support/pool.h) without locks. Construction reserves the pool
 * workers `threads` needs, up to the usable cores, so they take the
 * constructing thread's affinity mask. A grain gate decides per batch
 * whether to spread: the runner times its tiles per shape (lane
 * count), and a batch spreads unless every one of its shapes has been
 * timed and its estimated serial time stays within 4 times the pool's
 * measured dispatch cost (WorkPool::dispatchSeconds()); then it runs
 * on the caller alone.
 *
 * A BatchRunner is resident: construction builds the schedule once, on
 * the caller, so tiles only read it; run() loads each compiled module
 * shape (scalar, laneTile-wide) the first time a batch needs it, and
 * every later batch reuses them — the object `futil --serve` keeps
 * alive across requests.
 * Construction fatal()s on programs with groups (batching needs
 * fully-lowered programs) and on Engine::Jacobi (the oracle stays
 * scalar); run() fatal()s on anything CompiledModule::load rejects.
 * Observers are rejected by design: they follow one stimulus
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

    /** Batches of >= 2 tiles that the grain gate ran on the caller
     * alone although `threads` allowed more. */
    uint64_t serialBatches() const { return gatedSerial; }

    /** Participants the last run() spread its tiles over. */
    unsigned lastParticipants() const { return lastWidth; }

    const BatchOptions &options() const { return opts; }

  private:
    /** `count` stimuli from `start` on one tile `lanes` wide. */
    struct Tile
    {
        size_t start, count;
        uint32_t lanes;
    };

    /// The grain gate: how many participants `tiles` spread over.
    unsigned participants(const std::vector<Tile> &tiles);

    void runCompiledTile(const std::vector<Stimulus> &batch, size_t start,
                         size_t count, uint32_t lanes,
                         const CompiledModule &mod,
                         std::vector<LaneResult> &out);
    void runLevelizedTile(const std::vector<Stimulus> &batch, size_t start,
                          size_t count, std::vector<LaneResult> &out);
    std::shared_ptr<CompiledModule> moduleFor(uint32_t lanes);

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

    /// Seconds per tile by lane count: the fastest tile of that shape
    /// in the last batch that ran it.
    std::map<uint32_t, double> tileSeconds;
    uint64_t gatedSerial = 0;
    unsigned lastWidth = 0;
};

} // namespace calyx::sim

#endif // CALYX_SIM_BATCH_H
