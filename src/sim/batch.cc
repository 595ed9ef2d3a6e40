#include "sim/batch.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <unordered_map>

#include "sim/compiled.h"
#include "sim/models.h"
#include "sim/schedule.h"
#include "support/error.h"
#include "support/pool.h"

namespace calyx::sim {

/**
 * Everything the levelized lane engine resolves once per runner:
 * static driver lists (batched programs are fully lowered, so the
 * activation set is always the full continuous set — exactly what
 * CycleSim activates), the model index behind each port, and the
 * stateful models that seed the next cycle's event queue.
 */
struct BatchRunner::LevelizedPlan
{
    const SimSchedule *sched = nullptr;
    std::vector<std::vector<const SAssign *>> activeByPort;
    std::vector<int32_t> portModelIdx; ///< models() index or -1.
    std::vector<size_t> statefulIdx;   ///< models() index per stateful.
    uint32_t goPort = 0, donePort = 0, numPorts = 0;
};

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

    // Stateful slot maps in model order — the same walk order the
    // compiled module's register/memory slots use (emit/cppsim.cc).
    auto paths = prog->modelPaths();
    const auto &models = prog->models();
    for (size_t i = 0; i < models.size(); ++i) {
        if (models[i]->registerValue()) {
            regModelIdx.push_back(i);
            regPathList.push_back(paths[i].str());
        } else if (const auto *mem = models[i]->memory()) {
            memSlotByPath[paths[i].str()] = memModelIdx.size();
            memModelIdx.push_back(i);
            memPathList.push_back(paths[i].str());
            memSizes.push_back(mem->size());
        }
    }

    // Build the schedule now, on the caller: tiles run on pool threads
    // and must only ever read it.
    const SimSchedule &sched = prog->schedule();

    if (opts.engine == Engine::Levelized) {
        plan = std::make_unique<LevelizedPlan>();
        plan->sched = &sched;
        plan->numPorts = static_cast<uint32_t>(prog->numPorts());
        plan->goPort = prog->root().goPort;
        plan->donePort = prog->root().donePort;
        plan->activeByPort.resize(plan->numPorts);
        prog->forEachAssignment([&](const SAssign &a, bool continuous) {
            if (continuous)
                plan->activeByPort[a.dst].push_back(&a);
        });
        std::unordered_map<const PrimModel *, int32_t> idxOf;
        for (size_t i = 0; i < models.size(); ++i)
            idxOf[models[i].get()] = static_cast<int32_t>(i);
        plan->portModelIdx.assign(plan->numPorts, -1);
        for (uint32_t p = 0; p < plan->numPorts; ++p) {
            if (const PrimModel *m = sched.modelOf(p))
                plan->portModelIdx[p] = idxOf.at(m);
        }
        for (const PrimModel *m : sched.statefulModels())
            plan->statefulIdx.push_back(idxOf.at(m));
    }
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
    auto mod = CompiledModule::load(*prog, /*probe=*/false, lanes);
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
    const LevelizedPlan &P = *plan;
    const SimSchedule &sched = *P.sched;
    const uint32_t np = P.numPorts;
    const size_t K = count;

    // Lane-major value planes: lane l owns the contiguous slice
    // [l*np, (l+1)*np), so GuardDag::eval and PrimModel::evalComb run
    // verbatim on the lane's base pointer.
    std::vector<uint64_t> vals(size_t(np) * K, 0);
    std::vector<uint64_t> tmp(size_t(np) * K, 0);

    // Private model set per lane: stateful storage behind the ordinary
    // PrimModel interface, disjoint across lanes.
    std::vector<std::vector<std::unique_ptr<PrimModel>>> models(K);
    for (size_t l = 0; l < K; ++l) {
        models[l] = prog->newModelSet();
        for (auto &m : models[l])
            m->reset();
        auto imgs = seedImages(batch[start + l]);
        for (size_t mi = 0; mi < memModelIdx.size(); ++mi) {
            if (imgs[mi].empty())
                continue;
            std::vector<uint64_t> *dst =
                models[l][memModelIdx[mi]]->memory();
            std::copy(imgs[mi].begin(), imgs[mi].end(), dst->begin());
        }
    }

    std::vector<char> alive(K, 1), goVal(K, 1);
    size_t liveCount = K;

    // One dirty-node queue shared by every lane (the union of the
    // lanes' dirty cones). Re-evaluating a node whose inputs did not
    // change in some lane is idempotent there, so each lane still
    // follows its exact scalar trajectory.
    const size_t numNodes = sched.nodes().size();
    std::vector<char> inQueue(numNodes, 0);
    std::priority_queue<uint32_t, std::vector<uint32_t>,
                        std::greater<uint32_t>>
        queue;
    auto markDirty = [&](uint32_t port) {
        uint32_t n = sched.nodeOf(port);
        if (!inQueue[n]) {
            inQueue[n] = 1;
            queue.push(n);
        }
    };
    for (uint32_t n = 0; n < numNodes; ++n) {
        inQueue[n] = 1;
        queue.push(n);
    }

    // Guard memos, one per lane: lanes have their own values.
    const GuardDag &dag = prog->guardDag();
    std::vector<GuardMemo> memos(K, GuardMemo(dag.nodes.size()));

    // Driver priority mirrors SimState::evalPort: active assignment
    // beats the go force beats model output beats zero.
    auto evalPort = [&](size_t l, uint32_t p, bool check,
                        bool memoize) -> uint64_t {
        uint64_t *base = vals.data() + l * np;
        const SAssign *winner = nullptr;
        for (const SAssign *a : P.activeByPort[p]) {
            if (!dag.eval(a->guardRoot, base, memos[l], memoize))
                continue;
            if (winner && check) {
                fatal("multiple active drivers for port ",
                      prog->portName(p), ":\n  ",
                      prog->assignDesc(winner->id), "\n  ",
                      prog->assignDesc(a->id));
            }
            winner = a;
        }
        if (winner)
            return winner->srcConst ? winner->srcValue
                                    : base[winner->srcPort];
        if (p == P.goPort)
            return goVal[l] ? 1 : 0;
        int32_t mi = P.portModelIdx[p];
        if (mi >= 0) {
            uint64_t *tb = tmp.data() + l * np;
            models[l][mi]->evalComb(base, tb);
            return tb[p];
        }
        return 0;
    };

    std::vector<char> memChanged; // Per-SCC-member any-lane-changed.
    auto evalNode = [&](uint32_t ni) {
        const SimSchedule::Node &node = sched.nodes()[ni];
        const uint32_t *mem = sched.memberPorts().data() + node.first;
        if (!node.cyclic) {
            uint32_t p = mem[0];
            bool changed = false;
            for (size_t l = 0; l < K; ++l) {
                if (!alive[l])
                    continue;
                uint64_t *base = vals.data() + l * np;
                uint64_t nv = evalPort(l, p, true, true);
                if (nv != base[p]) {
                    base[p] = nv;
                    changed = true;
                }
            }
            if (changed) {
                for (const uint32_t *q = sched.fanoutBegin(p),
                                    *e = sched.fanoutEnd(p);
                     q != e; ++q)
                    markDirty(*q);
            }
            return;
        }

        // Non-trivial SCC: per-lane bounded Gauss-Seidel fixed point,
        // the exact sweep SimState::evalNode runs.
        memChanged.assign(node.count, 0);
        for (size_t l = 0; l < K; ++l) {
            if (!alive[l])
                continue;
            uint64_t *base = vals.data() + l * np;
            bool changed = true;
            int iter = 0;
            while (changed) {
                if (++iter > maxCombPasses) {
                    std::string ports;
                    for (uint32_t i = 0; i < node.count; ++i) {
                        if (!ports.empty())
                            ports += ", ";
                        ports += prog->portName(mem[i]);
                    }
                    fatal("combinational cycle did not settle after ",
                          maxCombPasses,
                          " iterations; ports on the cycle: ", ports);
                }
                changed = false;
                for (uint32_t i = 0; i < node.count; ++i) {
                    uint32_t p = mem[i];
                    uint64_t nv = evalPort(l, p, false, false);
                    if (nv != base[p]) {
                        base[p] = nv;
                        memChanged[i] = 1;
                        changed = true;
                    }
                }
            }
            for (uint32_t i = 0; i < node.count; ++i) {
                // Settled conflict re-check.
                evalPort(l, mem[i], true, false);
            }
        }
        for (uint32_t i = 0; i < node.count; ++i) {
            if (!memChanged[i])
                continue;
            uint32_t p = mem[i];
            for (const uint32_t *q = sched.fanoutBegin(p),
                                *e = sched.fanoutEnd(p);
                 q != e; ++q) {
                if (sched.nodeOf(*q) != ni)
                    markDirty(*q);
            }
        }
    };

    const auto &stateful = sched.statefulModels();
    uint64_t cycles = 0;
    while (liveCount) {
        if (++cycles > opts.maxCycles) {
            fatal("batched simulation exceeded ", opts.maxCycles,
                  " cycles with ", liveCount, " of ", K,
                  " lanes unfinished");
        }
        for (GuardMemo &m : memos)
            m.beginCycle();
        while (!queue.empty()) {
            uint32_t n = queue.top();
            queue.pop();
            inQueue[n] = 0;
            evalNode(n);
        }
        for (size_t l = 0; l < K; ++l) {
            if (!alive[l])
                continue;
            uint64_t *base = vals.data() + l * np;
            bool done = base[P.donePort] & 1;
            for (auto &m : models[l])
                m->clock(base);
            // Seed the next cycle's queue from stateful outputs that
            // moved at the edge (union over lanes).
            uint64_t *tb = tmp.data() + l * np;
            for (size_t i = 0; i < stateful.size(); ++i) {
                models[l][P.statefulIdx[i]]->evalComb(base, tb);
                for (uint32_t o : sched.statefulOutputs(i)) {
                    if (tb[o] != base[o])
                        markDirty(o);
                }
            }
            if (!done)
                continue;
            // Retire this lane; dead lanes are skipped everywhere, so
            // no propagation of the dropped go is needed.
            alive[l] = 0;
            goVal[l] = 0;
            --liveCount;
            LaneResult &r = out[start + l];
            r.cycles = cycles;
            r.regs.reserve(regModelIdx.size());
            for (size_t idx : regModelIdx)
                r.regs.push_back(*models[l][idx]->registerValue());
            r.mems.reserve(memModelIdx.size());
            for (size_t idx : memModelIdx)
                r.mems.push_back(*models[l][idx]->memory());
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
