#include "sim/batch.h"

#include <algorithm>

#include "sim/compiled.h"
#include "sim/cycle_sim.h"
#include "sim/models.h"
#include "support/error.h"
#include "support/pool.h"
#include "support/time.h"

namespace calyx::sim {

namespace {

/** A batch spreads when its estimated serial time exceeds this many
 * times the pool's dispatch cost. */
constexpr double kSpreadMargin = 4;

} // namespace

BatchRunner::BatchRunner(const SimProgram &program, const BatchOptions &o)
    : prog(&program), opts(o)
{
    if (prog->hasGroups()) {
        fatal("batched simulation requires a fully-lowered program "
              "(run the default pipeline first)");
    }
    if (opts.engine == Engine::Jacobi) {
        fatal("batched simulation supports the levelized and compiled "
              "engines; the jacobi oracle stays scalar (use "
              "--sim-engine=levelized or compiled)");
    }
    if (opts.threads == 0)
        fatal("batched simulation: thread count must be >= 1");

    // Stateful slot maps in model order, which the compiled module's
    // register/memory slots follow too (emit/cppsim.cc).
    const auto &models = prog->models();
    for (size_t i = 0; i < models.size(); ++i) {
        const std::string &path = prog->modelCells()[i].path.str();
        if (models[i]->registerValue()) {
            regModelIdx.push_back(i);
            regPathList.push_back(path);
        } else if (const auto *mem = models[i]->memory()) {
            memSlotByPath[path] = memModelIdx.size();
            memModelIdx.push_back(i);
            memPathList.push_back(path);
            memSizes.push_back(mem->size());
        }
    }

    // Build the schedule now, on the caller: tiles run on pool threads
    // and must only ever read it.
    prog->schedule();
    // Spawn the workers here, where the thread count was chosen: a
    // caller that later pins itself to one CPU keeps them on every CPU.
    WorkPool::global().reserve(opts.threads);
}

BatchRunner::~BatchRunner() = default;

std::shared_ptr<CompiledModule>
BatchRunner::moduleFor(uint32_t lanes)
{
    auto it = modules.find(lanes);
    if (it != modules.end())
        return it->second;
    // One lane is the scalar module: the same digest, and so the same
    // cached object, as SimProgram::compiledModule().
    auto mod = CompiledModule::load(*prog, lanes);
    ++loads;
    allFromCache = allFromCache && mod->fromCache();
    modules.emplace(lanes, mod);
    return mod;
}

unsigned
BatchRunner::participants(const std::vector<Tile> &tiles)
{
    unsigned spread = static_cast<unsigned>(
        std::min<size_t>(opts.threads, tiles.size()));
    if (spread < 2)
        return 1;
    double serial = 0;
    for (const Tile &t : tiles) {
        auto it = tileSeconds.find(t.lanes);
        if (it == tileSeconds.end())
            return spread; // Not timed yet: spreading times it.
        serial += it->second;
    }
    double dispatch = WorkPool::global().dispatchSeconds();
    if (dispatch == 0 || serial > kSpreadMargin * dispatch)
        return spread;
    ++gatedSerial;
    return 1;
}

std::vector<std::vector<uint64_t>>
BatchRunner::seedImages(const Stimulus &s) const
{
    std::vector<std::vector<uint64_t>> imgs(memModelIdx.size());
    for (const auto &[path, data] : s.mems) {
        auto it = memSlotByPath.find(path);
        if (it == memSlotByPath.end()) {
            std::string known;
            for (const auto &kv : memSlotByPath) {
                if (!known.empty())
                    known += ", ";
                known += kv.first;
            }
            fatal("batched simulation: stimulus names unknown memory '",
                  path, "' (memories: ",
                  known.empty() ? "<none>" : known, ")");
        }
        size_t slot = it->second;
        if (data.size() > memSizes[slot]) {
            fatal("batched simulation: stimulus image for ", path, " has ",
                  data.size(), " words but the memory holds ",
                  memSizes[slot]);
        }
        imgs[slot].assign(memSizes[slot], 0);
        std::copy(data.begin(), data.end(), imgs[slot].begin());
    }
    return imgs;
}

void
BatchRunner::runCompiledTile(const std::vector<Stimulus> &batch,
                             size_t start, size_t count, uint32_t lanes,
                             const CompiledModule &mod,
                             std::vector<LaneResult> &out)
{
    const size_t np = prog->numPorts();
    const size_t numRegs = regModelIdx.size();
    const size_t numMems = memModelIdx.size();
    const uint64_t goBase = uint64_t(prog->root().goPort) * lanes;
    const uint64_t doneBase = uint64_t(prog->root().donePort) * lanes;

    std::vector<uint64_t> vals(np * lanes, 0);
    std::vector<uint64_t> regStore(numRegs * lanes, 0);
    std::vector<std::vector<uint64_t>> memStore(numMems);
    std::vector<uint64_t *> regPtrs(numRegs ? numRegs : 1, nullptr);
    std::vector<uint64_t *> memPtrs(numMems ? numMems : 1, nullptr);
    for (size_t r = 0; r < numRegs; ++r)
        regPtrs[r] = regStore.data() + r * lanes;
    for (size_t m = 0; m < numMems; ++m) {
        memStore[m].assign(memSizes[m] * lanes, 0);
        memPtrs[m] = memStore[m].data();
    }

    struct InstGuard
    {
        const CompiledModule &mod;
        void *inst;
        ~InstGuard() { mod.freeInstance(inst); }
    } inst{mod, mod.newInstance()};

    mod.bind(inst.inst, regPtrs.data(), memPtrs.data());
    mod.reset(inst.inst, vals.data());

    // Seed: a padded tail tile fills its spare lanes with copies of the
    // tile's first stimulus — a real, terminating input whose results
    // are dropped.
    for (uint32_t l = 0; l < lanes; ++l) {
        auto imgs = seedImages(batch[start + (l < count ? l : 0)]);
        for (size_t m = 0; m < numMems; ++m) {
            if (!imgs[m].empty()) {
                std::copy(imgs[m].begin(), imgs[m].end(),
                          memStore[m].begin() + size_t(l) * memSizes[m]);
            }
        }
        vals[goBase + l] = 1;
    }

    std::vector<char> alive(lanes, 1), doneFlag(lanes, 0);
    uint32_t liveCount = lanes;
    uint64_t cycles = 0;
    while (liveCount) {
        if (++cycles > kMaxCycles) {
            fatal("batched simulation exceeded ", kMaxCycles,
                  " cycles with ", liveCount, " of ", lanes,
                  " lanes unfinished");
        }
        mod.eval(inst.inst, vals.data());
        if (const char *e = mod.error(inst.inst))
            fatal("compiled engine: ", e);
        // done is sampled where CycleSim samples it: after the settle,
        // before the edge.
        for (uint32_t l = 0; l < lanes; ++l)
            doneFlag[l] = alive[l] && (vals[doneBase + l] & 1);
        mod.clock(inst.inst, vals.data());
        if (const char *e = mod.error(inst.inst))
            fatal("compiled engine: ", e);
        for (uint32_t l = 0; l < lanes; ++l) {
            if (!doneFlag[l])
                continue;
            // Retire: snapshot post-edge state (what a scalar run
            // returns), then drop go so the lane's design idles while
            // sibling lanes run on.
            alive[l] = 0;
            --liveCount;
            vals[goBase + l] = 0;
            if (l >= count)
                continue; // Padding lane.
            LaneResult &r = out[start + l];
            r.cycles = cycles;
            r.regs.resize(numRegs);
            for (size_t rr = 0; rr < numRegs; ++rr)
                r.regs[rr] = regStore[rr * lanes + l];
            r.mems.resize(numMems);
            for (size_t m = 0; m < numMems; ++m) {
                auto first = memStore[m].begin() + size_t(l) * memSizes[m];
                r.mems[m].assign(first, first + memSizes[m]);
            }
        }
    }
}

void
BatchRunner::runLevelizedTile(const std::vector<Stimulus> &batch,
                              size_t start, size_t count,
                              std::vector<LaneResult> &out)
{
    // One private model set per lane, seeded with its stimulus.
    std::vector<SimState::ModelSet> sets(count);
    for (size_t l = 0; l < count; ++l) {
        sets[l] = prog->newModelSet();
        auto imgs = seedImages(batch[start + l]);
        for (size_t m = 0; m < memModelIdx.size(); ++m) {
            if (!imgs[m].empty())
                *sets[l][memModelIdx[m]]->memory() = std::move(imgs[m]);
        }
    }
    SimState st(*prog, std::move(sets));

    // CycleSim::run's loop, with done sampled and acted on per lane.
    const SimProgram::Instance &top = prog->root();
    std::vector<uint32_t> done;
    size_t live = count;
    uint64_t cycles = 0;
    st.reset();
    while (live) {
        if (++cycles > kMaxCycles) {
            fatal("batched simulation exceeded ", kMaxCycles,
                  " cycles with ", live, " of ", count,
                  " lanes unfinished");
        }
        st.beginCycle();
        st.force(top.goPort, 1);
        activateContinuous(st, top);
        st.comb();
        done.clear();
        for (uint32_t l = 0; l < count; ++l) {
            if (st.laneLive(l) && (st.laneValue(l, top.donePort) & 1))
                done.push_back(l);
        }
        st.clock();
        for (uint32_t l : done) {
            // Retire with the post-edge state a scalar run returns.
            st.retire(l);
            --live;
            const SimState::ModelSet &models = st.laneModels(l);
            LaneResult &r = out[start + l];
            r.cycles = cycles;
            for (size_t idx : regModelIdx)
                r.regs.push_back(*models[idx]->registerValue());
            for (size_t idx : memModelIdx)
                r.mems.push_back(*models[idx]->memory());
        }
    }
}

std::vector<LaneResult>
BatchRunner::run(const std::vector<Stimulus> &batch)
{
    std::vector<LaneResult> out(batch.size());
    if (batch.empty())
        return out;
    const size_t B = batch.size();
    const bool compiled = opts.engine == Engine::Compiled;
    constexpr uint32_t L = BatchOptions::laneTile;

    std::vector<Tile> tiles;
    std::shared_ptr<CompiledModule> wide, scalar;
    if (compiled) {
        // Tile shape follows the batch (see BatchOptions::laneTile):
        // full L-wide tiles, then a remainder of at most half a tile as
        // one-lane tiles on the scalar module, or a longer one as a
        // single padded L-wide tile.
        size_t wideTiles = B / L, scalarTiles = B % L;
        if (scalarTiles > L / 2) {
            ++wideTiles;
            scalarTiles = 0;
        }
        for (size_t t = 0; t < wideTiles; ++t)
            tiles.push_back({t * L, std::min<size_t>(L, B - t * L), L});
        for (size_t s = B - scalarTiles; s < B; ++s)
            tiles.push_back({s, 1, 1});
        // Load only the shapes this batch runs.
        wide = wideTiles ? moduleFor(L) : nullptr;
        scalar = scalarTiles ? moduleFor(1) : nullptr;
    } else {
        // The last tile narrows to what is left: never padded.
        for (size_t s = 0; s < B; s += L) {
            size_t count = std::min<size_t>(L, B - s);
            tiles.push_back({s, count, static_cast<uint32_t>(count)});
        }
    }
    for (const Tile &t : tiles) {
        ++(t.lanes == 1 ? tally.scalarTiles : tally.laneTiles);
        tally.paddedLanes += t.lanes - t.count;
    }

    lastWidth = participants(tiles);
    std::vector<double> secs(tiles.size());
    WorkPool::global().parallelFor(tiles.size(), lastWidth, [&](size_t i) {
        const Tile &t = tiles[i];
        double t0 = nowSeconds();
        if (compiled) {
            runCompiledTile(batch, t.start, t.count, t.lanes,
                            t.lanes == L ? *wide : *scalar,
                            out);
        } else {
            runLevelizedTile(batch, t.start, t.count, out);
        }
        secs[i] = nowSeconds() - t0;
    });

    // A shape's estimate is its fastest tile in this batch. A worker's
    // tile also pays for what a serial batch on the caller does not (a
    // fresh or trimmed allocator arena, a CPU waking up), so the
    // caller's tile usually sets it; a shape that ran only on workers
    // still gets one. Tiles of one shape are adjacent.
    for (size_t i = 0; i < tiles.size(); ++i) {
        double &s = tileSeconds[tiles[i].lanes];
        s = i && tiles[i - 1].lanes == tiles[i].lanes ? std::min(s, secs[i])
                                                       : secs[i];
    }
    return out;
}

} // namespace calyx::sim
