#include "sim/env.h"

#include <algorithm>
#include <cstring>

#include "obs/observer.h"
#include "sim/compiled.h"
#include "sim/schedule.h"
#include "support/error.h"
#include "support/text.h"

namespace calyx::sim {

std::vector<std::vector<uint64_t>>
archState(const SimProgram &prog)
{
    std::vector<std::vector<uint64_t>> state;
    for (const auto &m : prog.models()) {
        if (auto rv = m->registerValue())
            state.push_back({*rv});
        else if (auto *mem = m->memory())
            state.push_back(*mem);
    }
    return state;
}

const std::vector<EngineInfo> &
engineInfos()
{
    static const std::vector<EngineInfo> infos = {
        {Engine::Jacobi, "jacobi",
         "reference fixed-point engine (the oracle)"},
        {Engine::Levelized, "levelized",
         "statically scheduled event-driven engine"},
        {Engine::Compiled, "compiled",
         "codegen the schedule to C++ and JIT-build it "
         "(needs a host compiler)"},
    };
    return infos;
}

std::vector<std::string>
engineNames()
{
    std::vector<std::string> names;
    names.reserve(engineInfos().size());
    for (const EngineInfo &info : engineInfos())
        names.push_back(info.name);
    return names;
}

const char *
engineName(Engine engine)
{
    for (const EngineInfo &info : engineInfos()) {
        if (info.engine == engine)
            return info.name;
    }
    panic("engineName: bad engine");
}

Engine
parseEngine(const std::string &name)
{
    std::string options;
    for (const EngineInfo &info : engineInfos()) {
        if (name == info.name)
            return info.engine;
        if (!options.empty())
            options += ", ";
        options += info.name;
    }
    std::string close = suggestClosest(name, engineNames());
    if (close.empty()) {
        fatal("unknown simulation engine '", name, "' (options: ", options,
              ")");
    }
    fatal("unknown simulation engine '", name, "' (did you mean '", close,
          "'? options: ", options, ")");
}

bool
SExpr::eval(const uint64_t *vals) const
{
    if (nodes.empty())
        return true;
    if (depth <= sexprInlineDepth) {
        uint64_t stack[sexprInlineDepth];
        return evalWith(vals, stack);
    }
    // Pathological guard: size heap scratch to the exact depth computed
    // at compile time instead of overflowing the inline buffer.
    std::vector<uint64_t> stack(depth);
    return evalWith(vals, stack.data());
}

bool
SExpr::evalWith(const uint64_t *vals, uint64_t *stack) const
{
    // Stack machine over the postorder array. Depth was bounded when the
    // guard was compiled, so no per-node overflow check is needed here.
    size_t sp = 0;
    for (const Node &n : nodes) {
        switch (n.op) {
          case Op::True:
            stack[sp++] = 1;
            break;
          case Op::Port:
            stack[sp++] = vals[n.a] & 1;
            break;
          case Op::Not:
            stack[sp - 1] = !stack[sp - 1];
            break;
          case Op::And:
            --sp;
            stack[sp - 1] = stack[sp - 1] && stack[sp];
            break;
          case Op::Or:
            --sp;
            stack[sp - 1] = stack[sp - 1] || stack[sp];
            break;
          default:
            stack[sp++] = compare(n, vals) ? 1 : 0;
            break;
        }
    }
    return stack[0] != 0;
}

bool
SExpr::compare(const Node &n, const uint64_t *vals)
{
    uint64_t a = n.aImm ? n.immA : vals[n.a];
    uint64_t b = n.bImm ? n.immB : vals[n.b];
    switch (n.op) {
      case Op::Eq:
        return a == b;
      case Op::Neq:
        return a != b;
      case Op::Lt:
        return a < b;
      case Op::Gt:
        return a > b;
      case Op::Leq:
        return a <= b;
      case Op::Geq:
        return a >= b;
      default:
        panic("bad SExpr op " + std::to_string(static_cast<int>(n.op)));
    }
}

bool
GuardDag::eval(uint32_t root, const uint64_t *vals, GuardMemo &memo,
               bool memoize) const
{
    using Op = SExpr::Op;
    if (root == alwaysTrue)
        return true;
    uint64_t *entry = memo.entry.data();
    const uint64_t s = memoize ? memo.cycle : ++memo.epoch;
    auto known = [&](uint32_t id) { return entry[id] >> 1 == s; };
    if (known(root))
        return entry[root] & 1;

    // Depth-first over the nodes not yet known under stamp `s`. The
    // stack holds one root-to-node path, so its depth is bounded by the
    // guard's height however deep the source tree was.
    std::vector<uint32_t> &stack = memo.stack;
    stack.clear();
    stack.push_back(root);
    while (!stack.empty()) {
        uint32_t id = stack.back();
        const SExpr::Node &n = nodes[id];
        bool v;
        switch (n.op) {
          case Op::True:
            v = true;
            break;
          case Op::Port:
            v = vals[n.a] & 1;
            break;
          case Op::Not:
            if (!known(n.a)) {
                stack.push_back(n.a);
                continue;
            }
            v = !(entry[n.a] & 1);
            break;
          case Op::And:
          case Op::Or: {
            if (!known(n.a)) {
                stack.push_back(n.a);
                continue;
            }
            v = entry[n.a] & 1;
            // Short circuit: false && _, true || _.
            if (v != (n.op == Op::And))
                break;
            if (!known(n.b)) {
                stack.push_back(n.b);
                continue;
            }
            v = entry[n.b] & 1;
            break;
          }
          default:
            v = SExpr::compare(n, vals);
            break;
        }
        entry[id] = s << 1 | (v ? 1 : 0);
        stack.pop_back();
    }
    return entry[root] & 1;
}

void
SExpr::computeDepth()
{
    uint32_t cur = 0;
    depth = 0;
    for (const Node &n : nodes) {
        switch (n.op) {
          case Op::Not:
            break; // pops one, pushes one
          case Op::And:
          case Op::Or:
            --cur; // pops two, pushes one
            break;
          default:
            ++cur; // True/Port/Cmp leaves push one
            break;
        }
        depth = std::max(depth, cur);
    }
}

void
SExpr::collectPorts(std::vector<uint32_t> &ports) const
{
    for (const Node &n : nodes) {
        switch (n.op) {
          case Op::Port:
            ports.push_back(n.a);
            break;
          case Op::Eq:
          case Op::Neq:
          case Op::Lt:
          case Op::Gt:
          case Op::Leq:
          case Op::Geq:
            if (!n.aImm)
                ports.push_back(n.a);
            if (!n.bImm)
                ports.push_back(n.b);
            break;
          default:
            break;
        }
    }
}

uint32_t
SimProgram::Instance::groupId(Symbol name) const
{
    auto it = groupIndex.find(name);
    if (it == groupIndex.end()) {
        fatal("simulator: unknown group ", name, " in component ",
              comp->name());
    }
    return it->second;
}

SimProgram::SimProgram(const Context &ctx, Symbol top)
    : ctx(&ctx)
{
    rootInst = std::make_unique<Instance>();
    rootInst->path = "";
    buildInstance(*rootInst, ctx.component(top));
    for (const ModelCell &mc : cellList) {
        protoModels.push_back(
            makeModel(*mc.cell, [&](const std::string &port) {
                return portId(mc.path.str() + "." + port);
            }));
    }
    modelList = newModelSet();
    for (size_t i = 0; i < modelList.size(); ++i)
        modelIndex[cellList[i].path] = modelList[i].get();
    buildGuardDag();
}

namespace {

struct NodeHash
{
    size_t
    operator()(const SExpr::Node &n) const
    {
        uint64_t h = static_cast<uint64_t>(n.op) |
                     uint64_t(n.aImm) << 8 | uint64_t(n.bImm) << 9;
        for (uint64_t x : {uint64_t(n.a), uint64_t(n.b), n.immA, n.immB})
            h = (h ^ x) * 0x9e3779b97f4a7c15ull;
        return static_cast<size_t>(h ^ h >> 29);
    }
};

} // namespace

void
SimProgram::buildGuardDag()
{
    using Op = SExpr::Op;
    std::unordered_map<SExpr::Node, uint32_t, NodeHash> ids;
    std::vector<uint32_t> operands;
    auto intern = [&](SAssign &a) {
        dag.treeNodes += a.guard.nodes.size();
        if (a.guard.nodes.empty())
            return;
        // Replay the postorder array with a stack of DAG ids: operators
        // swap their operand positions for the operands' interned ids.
        operands.clear();
        for (SExpr::Node n : a.guard.nodes) {
            if (n.op == Op::Not) {
                n.a = operands.back();
                operands.pop_back();
            } else if (n.op == Op::And || n.op == Op::Or) {
                n.b = operands.back();
                operands.pop_back();
                n.a = operands.back();
                operands.pop_back();
            }
            auto [it, fresh] =
                ids.emplace(n, static_cast<uint32_t>(dag.nodes.size()));
            if (fresh)
                dag.nodes.push_back(n);
            operands.push_back(it->second);
        }
        a.guardRoot = operands.back();
    };
    std::function<void(Instance &)> walk = [&](Instance &inst) {
        for (SAssign &a : inst.continuous)
            intern(a);
        for (auto &vec : inst.groupAssigns) {
            for (SAssign &a : vec)
                intern(a);
        }
        for (auto &sub : inst.subs)
            walk(*sub);
    };
    walk(*rootInst);
}

SimProgram::~SimProgram() = default;

uint32_t
SimProgram::addPort(Symbol path)
{
    auto [it, inserted] =
        portIds.emplace(path, static_cast<uint32_t>(portNames.size()));
    if (inserted)
        portNames.push_back(path);
    return it->second;
}

uint32_t
SimProgram::portId(Symbol path) const
{
    auto it = portIds.find(path);
    if (it == portIds.end()) {
        std::vector<std::string> known;
        known.reserve(portNames.size());
        for (Symbol name : portNames)
            known.push_back(name.str());
        std::string close = suggestClosest(path.str(), known);
        if (close.empty())
            fatal("simulator: unknown port path ", path);
        fatal("simulator: unknown port path ", path, " (did you mean '",
              close, "'?)");
    }
    return it->second;
}

PrimModel *
SimProgram::findModel(Symbol cell_path) const
{
    auto it = modelIndex.find(cell_path);
    if (it == modelIndex.end()) {
        // One-shot diagnostic path: mirror the pass/backend registries'
        // did-you-mean UX for misspelled harness cell paths.
        std::vector<std::string> known;
        known.reserve(modelIndex.size());
        for (const auto &[name, model] : modelIndex) {
            (void)model;
            known.push_back(name.str());
        }
        std::string close = suggestClosest(cell_path.str(), known);
        if (close.empty())
            fatal("simulator: unknown cell path ", cell_path);
        fatal("simulator: unknown cell path ", cell_path,
              " (did you mean '", close, "'?)");
    }
    return it->second;
}

std::vector<std::unique_ptr<PrimModel>>
SimProgram::newModelSet() const
{
    std::vector<std::unique_ptr<PrimModel>> out;
    out.reserve(protoModels.size());
    for (const auto &m : protoModels)
        out.push_back(m->clone());
    return out;
}

void
SimProgram::forEachAssignment(
    const std::function<void(const SAssign &, bool)> &fn) const
{
    std::function<void(const Instance &)> walk =
        [&](const Instance &inst) {
            for (const SAssign &a : inst.continuous)
                fn(a, true);
            for (const auto &vec : inst.groupAssigns) {
                for (const SAssign &a : vec)
                    fn(a, false);
            }
            for (const auto &sub : inst.subs)
                walk(*sub);
        };
    walk(*rootInst);
}

const SimSchedule &
SimProgram::schedule() const
{
    if (!sched)
        sched = std::make_unique<SimSchedule>(*this);
    return *sched;
}

std::shared_ptr<CompiledModule>
SimProgram::compiledModule() const
{
    if (!compiled)
        compiled = CompiledModule::load(*this);
    return compiled;
}

bool
SimProgram::hasGroups() const
{
    std::function<bool(const Instance &)> walk =
        [&](const Instance &inst) {
            if (inst.hasGroups())
                return true;
            for (const auto &sub : inst.subs) {
                if (walk(*sub))
                    return true;
            }
            return false;
        };
    return walk(*rootInst);
}

void
SimProgram::buildInstance(Instance &inst, const Component &comp)
{
    inst.comp = &comp;

    // This-instance signature ports. For the top instance these are fresh
    // ("go", "done"); for sub-instances they alias the parent's cell ports
    // ("pe00.go"), which addPort de-duplicates by path.
    for (const auto &p : comp.signature()) {
        std::string path = inst.path.empty()
                               ? p.name.str()
                               : inst.path.substr(0, inst.path.size() - 1) +
                                     "." + p.name;
        uint32_t id = addPort(path);
        if (p.name == "go")
            inst.goPort = id;
        if (p.name == "done")
            inst.donePort = id;
    }

    // Cell ports, model cells (the constructor builds their models once
    // every port exists), and sub-instances.
    std::string prefix = inst.path;
    for (const auto &cell : comp.cells()) {
        for (const auto &p : cell->portDefs())
            addPort(prefix + cell->name() + "." + p.name);
        if (cell->isPrimitive()) {
            cellList.push_back({cell.get(), prefix + cell->name()});
        } else {
            auto sub = std::make_unique<Instance>();
            sub->path = prefix + cell->name() + "/";
            // Sub-instance signature ports must resolve to the parent's
            // cell ports: "pe00.go" etc. The path computation in the
            // signature loop above produces exactly those names.
            buildInstance(*sub, ctx->component(cell->type()));
            inst.subs.push_back(std::move(sub));
        }
    }

    // Group holes, with dense group ids in declaration order.
    for (const auto &g : comp.groups()) {
        uint32_t go = addPort(prefix + g->name() + "[go]");
        uint32_t done = addPort(prefix + g->name() + "[done]");
        uint32_t id = static_cast<uint32_t>(inst.groupNames.size());
        inst.groupNames.push_back(g->name());
        inst.groupHoles.push_back({go, done});
        inst.groupIndex[g->name()] = id;
    }

    // Assignments.
    for (const auto &a : comp.continuousAssignments())
        inst.continuous.push_back(compileAssign(inst, a));
    for (const auto &g : comp.groups()) {
        // Mirror the hardware calling convention in the interpreter: a
        // group's body deactivates during its done cycle (CompileControl
        // deasserts go when done is high), otherwise registers with a
        // still-high write enable would commit twice. Combinational
        // groups (done = constant 1) have no state and stay unchanged.
        bool comb_done = false;
        for (const auto &a : g->assignments()) {
            if (a.dst == g->doneHole() && a.guard->isTrue() &&
                a.src.isConst() && a.src.value == 1) {
                comb_done = true;
            }
        }
        GuardPtr not_done =
            Guard::negate(Guard::fromPort(g->doneHole()));
        auto &vec = inst.groupAssigns.emplace_back();
        for (const auto &a : g->assignments()) {
            bool own_done = a.dst == g->doneHole();
            if (comb_done || own_done) {
                vec.push_back(compileAssign(inst, a));
            } else {
                Assignment gated(a.dst, a.src,
                                 Guard::conj(a.guard, not_done));
                vec.push_back(compileAssign(inst, gated));
            }
        }
    }
}

uint32_t
SimProgram::resolve(const Instance &inst, const PortRef &ref)
{
    switch (ref.kind) {
      case PortRef::Kind::This: {
        std::string path =
            inst.path.empty()
                ? ref.port.str()
                : inst.path.substr(0, inst.path.size() - 1) + "." + ref.port;
        return portId(path);
      }
      case PortRef::Kind::Cell:
        return portId(inst.path + ref.parent + "." + ref.port);
      case PortRef::Kind::Hole:
        return portId(inst.path + ref.parent + "[" + ref.port + "]");
      case PortRef::Kind::Const:
        panic("resolve() on a constant");
    }
    panic("bad PortRef kind");
}

SAssign
SimProgram::compileAssign(const Instance &inst, const Assignment &a)
{
    SAssign out;
    out.dst = resolve(inst, a.dst);
    out.guard = compileGuard(inst, a.guard);
    if (a.src.isConst()) {
        out.srcConst = true;
        out.srcValue = a.src.value;
    } else {
        out.srcPort = resolve(inst, a.src);
    }
    out.id = static_cast<uint32_t>(assignDescs.size());
    assignDescs.push_back(inst.path + a.str());
    return out;
}

namespace {

void
compileGuardInto(const GuardPtr &g,
                 const std::function<uint32_t(const PortRef &)> &resolve,
                 std::vector<SExpr::Node> &nodes)
{
    SExpr::Node n;
    switch (g->kind()) {
      case Guard::Kind::True:
        n.op = SExpr::Op::True;
        nodes.push_back(n);
        return;
      case Guard::Kind::Port:
        n.op = SExpr::Op::Port;
        n.a = resolve(g->port());
        nodes.push_back(n);
        return;
      case Guard::Kind::Not:
        compileGuardInto(g->left(), resolve, nodes);
        n.op = SExpr::Op::Not;
        nodes.push_back(n);
        return;
      case Guard::Kind::And:
      case Guard::Kind::Or:
        compileGuardInto(g->left(), resolve, nodes);
        compileGuardInto(g->right(), resolve, nodes);
        n.op = g->kind() == Guard::Kind::And ? SExpr::Op::And
                                             : SExpr::Op::Or;
        nodes.push_back(n);
        return;
      case Guard::Kind::Cmp: {
        switch (g->cmpOp()) {
          case Guard::CmpOp::Eq:
            n.op = SExpr::Op::Eq;
            break;
          case Guard::CmpOp::Neq:
            n.op = SExpr::Op::Neq;
            break;
          case Guard::CmpOp::Lt:
            n.op = SExpr::Op::Lt;
            break;
          case Guard::CmpOp::Gt:
            n.op = SExpr::Op::Gt;
            break;
          case Guard::CmpOp::Leq:
            n.op = SExpr::Op::Leq;
            break;
          case Guard::CmpOp::Geq:
            n.op = SExpr::Op::Geq;
            break;
        }
        if (g->lhs().isConst()) {
            n.aImm = true;
            n.immA = g->lhs().value;
        } else {
            n.a = resolve(g->lhs());
        }
        if (g->rhs().isConst()) {
            n.bImm = true;
            n.immB = g->rhs().value;
        } else {
            n.b = resolve(g->rhs());
        }
        nodes.push_back(n);
        return;
      }
    }
    panic("bad guard kind");
}

} // namespace

SExpr
SimProgram::compileGuard(const Instance &inst, const GuardPtr &g)
{
    SExpr e;
    if (g->isTrue())
        return e;
    compileGuardInto(
        g, [&](const PortRef &r) { return resolve(inst, r); }, e.nodes);
    e.computeDepth();
    return e;
}

SimState::SimState(const SimProgram &prog, Engine engine)
    : prog(&prog), engineVal(engine), laneSets{&prog.models()},
      liveMask(1, 1)
{
    vals.assign(prog.numPorts(), 0);
    tmp.assign(prog.numPorts(), 0);
    driver.assign(prog.numPorts(), -1);
}

SimState::SimState(const SimProgram &prog, std::vector<ModelSet> lane_models)
    : prog(&prog), engineVal(Engine::Levelized),
      numLanes(static_cast<uint32_t>(lane_models.size())),
      ownedModels(std::move(lane_models)), liveMask(numLanes, 1)
{
    if (numLanes == 0)
        fatal("simulator: a lane state needs at least one lane");
    for (const ModelSet &set : ownedModels) {
        if (set.size() != prog.models().size())
            panic("simulator: lane model set does not match models()");
        laneSets.push_back(&set);
    }
    vals.assign(size_t(numLanes) * prog.numPorts(), 0);
    tmp.assign(vals.size(), 0);
}

SimState::~SimState()
{
    if (compiledInst)
        compiledMod->freeInstance(compiledInst);
}

void
SimState::reset()
{
    std::fill(vals.begin(), vals.end(), 0);
    for (const ModelSet *set : laneSets) {
        for (const auto &m : *set)
            m->reset();
    }
    std::fill(liveMask.begin(), liveMask.end(), 1);
    active.clear();
    forces.clear();
    cycleIndex = 0;
    // Forget all incremental levelized state: the next comb() walks the
    // entire schedule once.
    activationValid = false;
    activationCalls.clear();
    prevActivationCalls.clear();
    prevForces.clear();
    // Zero the generated module's internal state (done pulses, pipe
    // countdowns) and re-write constant-folded port values.
    if (compiledInst)
        compiledMod->reset(compiledInst, vals.data());
}

void
SimState::beginCycle()
{
    active.clear();
    std::swap(prevActivationCalls, activationCalls);
    activationCalls.clear();
    std::swap(prevForces, forces);
    forces.clear();
}

void
SimState::activate(const std::vector<SAssign> &assigns)
{
    if (engineVal == Engine::Jacobi) {
        for (const auto &a : assigns)
            active.push_back(&a);
    } else {
        // Record by identity only; the per-port scatter happens lazily
        // in comb() and is skipped when the call sequence repeats.
        activationCalls.push_back(&assigns);
    }
}

void
SimState::force(uint32_t port, uint64_t value)
{
    forces.emplace_back(port, value);
}

int
SimState::comb()
{
    int evals;
    switch (engineVal) {
      case Engine::Jacobi:
        evals = combJacobi();
        break;
      case Engine::Levelized:
        evals = combLevelized();
        break;
      case Engine::Compiled:
        evals = combCompiled();
        break;
      default:
        panic("comb: bad engine");
    }
    if (!observerList.empty()) {
        // Observers see settled, pre-clock-edge values once per cycle.
        notifySettled();
        for (obs::SimObserver *o : observerList)
            o->combStats(cycleIndex, evals);
        ++cycleIndex;
    }
    return evals;
}

void
SimState::addObserver(obs::SimObserver *observer)
{
    if (numLanes > 1)
        fatal("simulator: observers follow one stimulus; this state "
              "runs ", numLanes, " lanes");
    observerList.push_back(observer);
}

void
SimState::notifySettled()
{
    for (obs::SimObserver *o : observerList)
        o->cycleSettled(cycleIndex, vals.data());
}

void
SimState::finishObservers(uint64_t cycles)
{
    for (obs::SimObserver *o : observerList)
        o->finish(cycles);
}

void
SimState::ensureCompiled()
{
    if (compiledInst)
        return;
    compiledMod = prog->compiledModule();

    // Bind the generated instance's register and memory state to the
    // PrimModel objects' own storage (model order on both sides), so
    // archState(), registerValue(), and harness memory pokes observe
    // the compiled run exactly as they observe an interpreted one.
    std::vector<uint64_t *> regStorage, memStorage;
    for (const auto &m : prog->models()) {
        if (uint64_t *r = m->registerStorage())
            regStorage.push_back(r);
        if (std::vector<uint64_t> *mem = m->memory())
            memStorage.push_back(mem->data());
    }
    if (regStorage.size() != compiledMod->numRegs() ||
        memStorage.size() != compiledMod->numMems()) {
        fatal("compiled engine: module state shape (",
              compiledMod->numRegs(), " regs, ", compiledMod->numMems(),
              " mems) does not match the program (", regStorage.size(),
              " regs, ", memStorage.size(), " mems)");
    }

    compiledInst = compiledMod->newInstance();
    compiledMod->bind(compiledInst, regStorage.data(), memStorage.data());
    compiledMod->reset(compiledInst, vals.data());

    continuousCount = 0;
    prog->forEachAssignment([&](const SAssign &, bool continuous) {
        if (continuous)
            ++continuousCount;
    });
}

void
SimState::checkCompiledError()
{
    if (const char *err = compiledMod->error(compiledInst))
        fatal(err);
}

int
SimState::combCompiled()
{
    ensureCompiled();

    // The generated eval() hard-codes every continuous assignment as a
    // potential driver, so the cycle's activation set must be exactly
    // the full continuous set (what CycleSim activates). Anything else
    // (e.g. the interpreter's per-group sets) needs an interpreting
    // engine.
    size_t activated = 0;
    for (const std::vector<SAssign> *vec : activationCalls)
        activated += vec->size();
    if (activated != continuousCount) {
        fatal("compiled engine: cycle activated ", activated,
              " assignments but the program has ", continuousCount,
              " continuous ones; group-level activation requires "
              "--sim-engine=jacobi or levelized");
    }

    // Forces only exist for ports eval() does not compute (the cycle
    // driver's top-level go). A force that stops being applied reverts
    // to the undriven default of zero, matching evalPort().
    const unsigned char *driven = compiledMod->driven();
    for (const auto &[port, value] : prevForces) {
        if (!driven[port])
            vals[port] = 0;
    }
    for (const auto &[port, value] : forces) {
        if (driven[port]) {
            fatal("compiled engine: cannot force computed port ",
                  prog->portName(port));
        }
        vals[port] = value;
    }

    compiledMod->eval(compiledInst, vals.data());
    checkCompiledError();
    return 1;
}

int
SimState::combJacobi()
{
    for (int pass = 1; pass <= maxCombPasses; ++pass) {
        // Jacobi pass: compute tmp entirely from vals.
        std::fill(tmp.begin(), tmp.end(), 0);
        for (const auto &m : prog->models())
            m->evalComb(vals.data(), tmp.data());
        for (const auto &[port, value] : forces)
            tmp[port] = value;
        for (const SAssign *a : active) {
            if (a->guard.eval(vals.data()))
                tmp[a->dst] = a->srcConst ? a->srcValue : vals[a->srcPort];
        }
        if (tmp == vals) {
            // Converged: verify the unique-driver requirement (§3.2).
            std::fill(driver.begin(), driver.end(), -1);
            for (const SAssign *a : active) {
                if (!a->guard.eval(vals.data()))
                    continue;
                if (driver[a->dst] >= 0) {
                    fatal("multiple active drivers for port ",
                          prog->portName(a->dst), ":\n  ",
                          prog->assignDesc(driver[a->dst]), "\n  ",
                          prog->assignDesc(a->id));
                }
                driver[a->dst] = static_cast<int32_t>(a->id);
            }
            return pass;
        }
        std::swap(tmp, vals);
    }
    fatal("combinational evaluation did not converge after ",
          maxCombPasses, " passes (combinational loop?)");
}

void
SimState::markDirty(uint32_t port)
{
    uint32_t node = sched->nodeOf(port);
    if (!inQueue[node]) {
        inQueue[node] = 1;
        queue.push(node);
    }
}

void
SimState::markAllDirty()
{
    for (uint32_t n = 0; n < sched->nodes().size(); ++n) {
        if (!inQueue[n]) {
            inQueue[n] = 1;
            queue.push(n);
        }
    }
}

void
SimState::rebuildActiveByPort()
{
    std::swap(activeByPort, oldActiveByPort);
    std::swap(touched, oldTouched);
    // After the swap, activeByPort holds the lists from two rebuilds
    // ago; clear exactly the slots that were populated.
    for (uint32_t p : touched)
        activeByPort[p].clear();
    touched.clear();
    for (const std::vector<SAssign> *vec : activationCalls) {
        for (const SAssign &a : *vec) {
            if (activeByPort[a.dst].empty())
                touched.push_back(a.dst);
            activeByPort[a.dst].push_back(&a);
        }
    }
    // Dirty every port whose potential-driver list changed; ports in
    // oldTouched but not touched fell back to force/model/zero.
    for (uint32_t p : touched) {
        if (activeByPort[p] != oldActiveByPort[p])
            markDirty(p);
    }
    for (uint32_t p : oldTouched) {
        if (activeByPort[p] != oldActiveByPort[p])
            markDirty(p);
    }
}

void
SimState::diffForces()
{
    // Over-approximate: dirty everything forced in either cycle. Force
    // sets are tiny (top go + one hole per active group).
    for (const auto &[port, value] : forces)
        markDirty(port);
    for (const auto &[port, value] : prevForces)
        markDirty(port);
}

inline uint64_t
SimState::evalPort(uint32_t lane, uint32_t port, bool check_conflicts,
                   bool memoize)
{
    // Driver priority mirrors the Jacobi pass order: active assignment
    // beats force beats model output beats the zero default.
    const size_t base = size_t(lane) * prog->numPorts();
    const uint64_t *v = vals.data() + base;
    const GuardDag &dag = prog->guardDag();
    const SAssign *winner = nullptr;
    for (const SAssign *a : activeByPort[port]) {
        if (!dag.eval(a->guardRoot, v, memos[lane], memoize))
            continue;
        if (winner && check_conflicts) {
            fatal("multiple active drivers for port ",
                  prog->portName(port), ":\n  ",
                  prog->assignDesc(winner->id), "\n  ",
                  prog->assignDesc(a->id));
        }
        winner = a;
    }
    if (winner)
        return winner->srcConst ? winner->srcValue : v[winner->srcPort];
    if (forcedStamp[port] == stamp)
        return forcedVal[port];
    if (int32_t m = sched->modelOf(port); m >= 0) {
        uint64_t *t = tmp.data() + base;
        (*laneSets[lane])[m]->evalComb(v, t);
        return t[port];
    }
    return 0;
}

template <bool Single>
void
SimState::evalNode(uint32_t node_index)
{
    const SimSchedule::Node &node = sched->nodes()[node_index];
    const uint32_t *mem = sched->memberPorts().data() + node.first;
    const size_t np = prog->numPorts();
    const uint32_t lanes = Single ? 1 : numLanes;

    if (!node.cyclic) {
        uint32_t p = mem[0];
        bool changed = false;
        for (uint32_t l = 0; l < lanes; ++l) {
            if (!liveMask[l])
                continue;
            uint64_t nv = evalPort(l, p, true, true);
            uint64_t &cur = vals[l * np + p];
            if (nv != cur) {
                cur = nv;
                changed = true;
            }
        }
        if (changed) {
            for (const uint32_t *q = sched->fanoutBegin(p),
                                *e = sched->fanoutEnd(p);
                 q != e; ++q)
                markDirty(*q);
        }
        return;
    }

    // Non-trivial SCC: per lane, a bounded local fixed point
    // (Gauss-Seidel over the members, which converges at least as fast
    // as a Jacobi sweep), then a conflict re-check of the settled
    // values (which cannot change them).
    for (uint32_t l = 0; l < lanes; ++l) {
        if (!liveMask[l])
            continue;
        uint64_t *v = vals.data() + l * np;
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
                      maxCombPasses, " iterations; ports on the cycle: ",
                      ports);
            }
            changed = false;
            for (uint32_t i = 0; i < node.count; ++i) {
                uint32_t p = mem[i];
                uint64_t nv = evalPort(l, p, false, false);
                if (nv != v[p]) {
                    v[p] = nv;
                    portChanged[p] = 1;
                    changed = true;
                }
            }
        }
        for (uint32_t i = 0; i < node.count; ++i)
            evalPort(l, mem[i], true, false);
    }
    // Wake the external fanouts of members that moved in any lane.
    for (uint32_t i = 0; i < node.count; ++i) {
        uint32_t p = mem[i];
        if (!portChanged[p])
            continue;
        portChanged[p] = 0;
        for (const uint32_t *q = sched->fanoutBegin(p),
                            *e = sched->fanoutEnd(p);
             q != e; ++q) {
            if (sched->nodeOf(*q) != node_index)
                markDirty(*q);
        }
    }
}

void
SimState::bindSchedule()
{
    if (sched)
        return;
    // First evaluation: bind (and possibly build) the schedule and
    // size the engine's bookkeeping.
    sched = &prog->schedule();
    inQueue.assign(sched->nodes().size(), 0);
    portChanged.assign(prog->numPorts(), 0);
    forcedVal.assign(prog->numPorts(), 0);
    forcedStamp.assign(prog->numPorts(), 0);
    memos.assign(numLanes, GuardMemo(prog->guardDag().nodes.size()));
    activeByPort.resize(prog->numPorts());
    oldActiveByPort.resize(prog->numPorts());
}

int
SimState::combLevelized()
{
    bindSchedule();

    ++stamp;
    for (const auto &[port, value] : forces) {
        forcedVal[port] = value;
        forcedStamp[port] = stamp;
    }
    for (GuardMemo &memo : memos)
        memo.beginCycle();

    if (!activationValid) {
        markAllDirty();
        rebuildActiveByPort();
    } else {
        if (activationCalls != prevActivationCalls)
            rebuildActiveByPort();
        if (forces != prevForces)
            diffForces();
    }
    activationValid = true;

    int evaluated = 0;
    while (!queue.empty()) {
        uint32_t node = queue.top();
        queue.pop();
        inQueue[node] = 0;
        if (numLanes == 1)
            evalNode<true>(node);
        else
            evalNode<false>(node);
        ++evaluated;
    }
    return evaluated;
}

void
SimState::clock()
{
    if (engineVal == Engine::Compiled) {
        // The generated clock code advances every stateful primitive
        // (registers and memories through the bound model storage);
        // calling the models' clock() too would double-advance them.
        ensureCompiled();
        compiledMod->clock(compiledInst, vals.data());
        checkCompiledError();
        return;
    }
    const size_t np = prog->numPorts();
    for (uint32_t l = 0; l < numLanes; ++l) {
        if (!liveMask[l])
            continue;
        uint64_t *v = vals.data() + l * np;
        const ModelSet &models = *laneSets[l];
        for (const auto &m : models)
            m->clock(v);
        if (engineVal != Engine::Levelized || !sched)
            continue;
        // Seed the next cycle's event queue: outputs of stateful models
        // whose post-edge value differs from the settled one.
        uint64_t *t = tmp.data() + l * np;
        const auto &stateful = sched->statefulModels();
        for (size_t i = 0; i < stateful.size(); ++i) {
            models[stateful[i]]->evalComb(v, t);
            for (uint32_t o : sched->statefulOutputs(i)) {
                if (t[o] != v[o])
                    markDirty(o);
            }
        }
    }
}

} // namespace calyx::sim
