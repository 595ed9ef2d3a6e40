#include "sim/batch.h"

#include <algorithm>

#include "sim/compiled.h"
#include "sim/cycle_sim.h"
#include "sim/models.h"
#include "support/error.h"
#include "support/pool.h"

namespace calyx::sim {

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
    if (opts.laneTile == 0)
        fatal("batched simulation: lane tile must be >= 1");
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

void
BatchRunner::countTiles(size_t tiles, uint32_t lanes, size_t stimuli)
{
    (lanes == 1 ? tally.scalarTiles : tally.laneTiles) += tiles;
    tally.paddedLanes += tiles * lanes - stimuli;
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
        if (++cycles > opts.maxCycles) {
            fatal("batched simulation exceeded ", opts.maxCycles,
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
        if (++cycles > opts.maxCycles) {
            fatal("batched simulation exceeded ", opts.maxCycles,
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

    if (opts.engine == Engine::Compiled) {
        // Tile shape follows the batch (see BatchOptions::laneTile):
        // full laneTile-wide tiles, then a remainder of at most half a
        // tile as one-lane tiles on the scalar module, or a longer one
        // as a single padded laneTile-wide tile.
        const uint32_t L = opts.laneTile;
        size_t wideTiles = B / L, scalarTiles = B % L;
        if (scalarTiles > L / 2) {
            ++wideTiles;
            scalarTiles = 0;
        }
        countTiles(wideTiles, L, B - scalarTiles);
        countTiles(scalarTiles, 1, scalarTiles);
        // Load only the shapes this batch runs.
        auto wide = wideTiles ? moduleFor(L) : nullptr;
        auto scalar = scalarTiles ? moduleFor(1) : nullptr;
        WorkPool::global().parallelFor(
            wideTiles + scalarTiles, opts.threads, [&](size_t t) {
                if (t < wideTiles) {
                    size_t startIdx = t * L;
                    size_t count = std::min<size_t>(L, B - startIdx);
                    runCompiledTile(batch, startIdx, count, L, *wide, out);
                } else {
                    runCompiledTile(batch, B - scalarTiles + (t - wideTiles),
                                    1, 1, *scalar, out);
                }
            });
    } else {
        const uint32_t L =
            static_cast<uint32_t>(std::min<size_t>(opts.laneTile, B));
        const size_t nTiles = (B + L - 1) / L;
        // The last tile narrows to what is left: never padded.
        countTiles(B / L, L, B / L * L);
        if (B % L)
            countTiles(1, B % L, B % L);
        WorkPool::global().parallelFor(
            nTiles, opts.threads, [&](size_t t) {
                size_t startIdx = t * L;
                size_t count = std::min<size_t>(L, B - startIdx);
                runLevelizedTile(batch, startIdx, count, out);
            });
    }
    return out;
}

std::vector<LaneResult>
runBatch(const SimProgram &prog, const std::vector<Stimulus> &batch,
         const BatchOptions &opts)
{
    BatchRunner runner(prog, opts);
    return runner.run(batch);
}

} // namespace calyx::sim
