#ifndef CALYX_SIM_ENV_H
#define CALYX_SIM_ENV_H

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/context.h"
#include "sim/models.h"
#include "support/symbol.h"

namespace calyx::obs {
class SimObserver;
}

namespace calyx::sim {

class SimSchedule;
class CompiledModule;

/**
 * Combinational evaluation engine selection (see docs/simulation.md).
 *
 *  - Jacobi: the original reference engine. Every comb() pass zero-fills
 *    a scratch vector, re-evaluates every model and active assignment,
 *    and iterates to a fixed point. O(depth x (ports + assigns)) per
 *    cycle, but trivially correct; kept forever as the oracle.
 *  - Levelized: statically scheduled event-driven engine. A port-level
 *    dependency graph over all potential drivers is SCC-condensed and
 *    topologically ordered once per program; each cycle walks only the
 *    dirty cone of that schedule, evaluating each distinct guard
 *    subexpression at most once (GuardDag).
 *  - Compiled: verilator-style compiled simulation. The levelized
 *    schedule is code-generated as straight-line C++ (emit/cppsim.h),
 *    built with the host toolchain, and dlopen()ed (sim/compiled.h).
 *    Requires fully-lowered programs and a host C++ compiler.
 */
enum class Engine { Jacobi, Levelized, Compiled };

/** Registry row for one engine: drives parsing, benches, and docs. */
struct EngineInfo
{
    Engine engine;
    const char *name;
    const char *description;
};

/** Every engine, in declaration order. The single source of truth the
 * parser, the bench harness, and the tests enumerate. */
const std::vector<EngineInfo> &engineInfos();

/** All engine names, in declaration order. */
std::vector<std::string> engineNames();

/** "jacobi" / "levelized" / "compiled". */
const char *engineName(Engine engine);

/** Parse an engine name; fatal() with the valid options and a
 * did-you-mean suggestion on a miss. */
Engine parseEngine(const std::string &name);

/** Cycles a run may take before it is declared hung: scalar CycleSim
 * and Interp runs (their default) and every batch tile. */
constexpr uint64_t kMaxCycles = 50'000'000;

/**
 * A compiled guard expression: the source Guard tree flattened to a
 * postorder array evaluated with a value stack. Port references are
 * resolved to flat port ids.
 */
struct SExpr
{
    enum class Op : uint8_t {
        True,
        Port,  ///< push vals[a]
        Not,
        And,
        Or,
        Eq,
        Neq,
        Lt,
        Gt,
        Leq,
        Geq,
    };

    struct Node
    {
        Op op = Op::True;
        uint32_t a = 0, b = 0;     ///< Port ids for Port/Cmp leaves.
        uint64_t immA = 0, immB = 0;
        bool aImm = false, bImm = false;

        bool operator==(const Node &) const = default;
    };

    /** Value of a comparison leaf (Eq..Geq) over `vals`. */
    static bool compare(const Node &n, const uint64_t *vals);

    std::vector<Node> nodes; ///< Empty means "always true".

    /**
     * Maximum value-stack depth eval() can reach, computed when the
     * guard is compiled. Guards deeper than the inline scratch buffer
     * fall back to heap-sized storage instead of overflowing it.
     */
    uint32_t depth = 0;

    bool eval(const uint64_t *vals) const;

    /** Recompute `depth` from `nodes` (called after compilation). */
    void computeDepth();

    /** Append every port id the guard reads to `ports`. */
    void collectPorts(std::vector<uint32_t> &ports) const;

  private:
    bool evalWith(const uint64_t *vals, uint64_t *stack) const;
};

/** Inline eval stack size; deeper guards use heap scratch. */
constexpr uint32_t sexprInlineDepth = 64;

/**
 * One lane's guard memo over a GuardDag (a SimState keeps one per
 * lane): per node, the stamp of the evaluation that computed it and its
 * value, packed as `stamp << 1 | value`. An entry counts only while its
 * stamp matches the reading evaluation's, so starting a new stamp
 * invalidates the whole plane in O(1).
 */
struct GuardMemo
{
    GuardMemo() = default;
    /** A plane for a DAG of `nodes` nodes, all stale. */
    explicit GuardMemo(size_t nodes) : entry(nodes, 0) {}

    std::vector<uint64_t> entry;
    std::vector<uint32_t> stack; ///< Explicit DFS stack: no recursion.
    uint64_t epoch = 1;          ///< Last stamp issued.
    uint64_t cycle = 1;          ///< Stamp of this comb()'s memoized reads.

    /** Start a new comb(): everything memoized so far goes stale. */
    void beginCycle() { cycle = ++epoch; }
};

/**
 * Every guard of a SimProgram hash-consed into one DAG. Nodes reuse
 * SExpr::Node: True/Port/comparison leaves keep their port ids and
 * immediates, while Not/And/Or hold child node ids in `a` (and `b`).
 * Nodes are interned in postorder, so a child's id is always below its
 * parent's. Structurally identical guards, and identical subterms of
 * different guards, share one node.
 */
struct GuardDag
{
    /// SAssign::guardRoot of an unguarded assignment.
    static constexpr uint32_t alwaysTrue = UINT32_MAX;

    std::vector<SExpr::Node> nodes;
    uint64_t treeNodes = 0; ///< SExpr nodes over all guards (unshared).

    /**
     * Value of guard `root` over `vals`, computed iteratively with
     * short-circuit And/Or. With `memoize`, nodes already computed in
     * this comb() (memo.cycle) are read back instead of re-evaluated,
     * and new results are kept for later readers. That is sound only
     * when no input port of the guard can change for the rest of the
     * comb(), which holds for every acyclic schedule node (see
     * docs/simulation.md). Without it (SCC members, whose inputs move
     * mid-fixed-point) the evaluation takes a fresh stamp, so it shares
     * work only within this one guard and leaves nothing behind that a
     * memoized read could pick up.
     */
    bool eval(uint32_t root, const uint64_t *vals, GuardMemo &memo,
              bool memoize) const;
};

/** A compiled assignment. */
struct SAssign
{
    uint32_t dst = 0;
    SExpr guard;
    /// `guard`'s node in SimProgram::guardDag(), or GuardDag::alwaysTrue.
    uint32_t guardRoot = GuardDag::alwaysTrue;
    bool srcConst = false;
    uint32_t srcPort = 0;
    uint64_t srcValue = 0;
    uint32_t id = 0;    ///< Index into SimProgram::assignDescs.
};

/**
 * The flattened form of a Calyx program prepared for simulation: every
 * component instance is recursively inlined, ports get dense ids, and
 * assignments/guards are compiled. Shared by the control interpreter
 * (pre-compilation programs) and the cycle simulator (lowered programs).
 */
class SimProgram
{
  public:
    struct Instance
    {
        std::string path;        ///< "" for top, "pe00/" style prefix.
        const Component *comp = nullptr;
        std::vector<SAssign> continuous;
        /// Per-group data indexed by dense group id (declaration order);
        /// the symbol map exists only for one-time name resolution.
        std::vector<Symbol> groupNames;
        std::vector<std::vector<SAssign>> groupAssigns;
        /// (go hole id, done hole id) per group id.
        std::vector<std::pair<uint32_t, uint32_t>> groupHoles;
        std::unordered_map<Symbol, uint32_t> groupIndex;
        uint32_t goPort = 0, donePort = 0; ///< This-instance go/done ids.
        std::vector<std::unique_ptr<Instance>> subs;

        bool hasGroups() const { return !groupAssigns.empty(); }

        /** Dense id for a group name; fatal() on a miss. */
        uint32_t groupId(Symbol name) const;
    };

    SimProgram(const Context &ctx, Symbol top);
    ~SimProgram();

    const Instance &root() const { return *rootInst; }
    size_t numPorts() const { return portNames.size(); }

    /** Flat id for a hierarchical port path, e.g. "pe00/r0.out".
     * fatal() with a did-you-mean suggestion on a miss. */
    uint32_t portId(Symbol path) const;
    const std::string &portName(uint32_t id) const
    {
        return portNames[id].str();
    }

    /** Model for a hierarchical cell path, e.g. "A0" or "pe00/acc".
     * fatal() with a did-you-mean suggestion on a miss. */
    PrimModel *findModel(Symbol cell_path) const;

    /** True when any instance (top or nested) still has groups, i.e.
     * the program needs the control interpreter rather than CycleSim. */
    bool hasGroups() const;

    const std::vector<std::unique_ptr<PrimModel>> &models() const
    {
        return modelList;
    }

    /** The primitive cell behind one models() entry. */
    struct ModelCell
    {
        const Cell *cell = nullptr;
        Symbol path; ///< Hierarchical cell path, e.g. "pe00/acc".
    };

    /** Cell and path of each models() entry, in order: the one record
     * of model order, which cppsim's register/memory slots follow. */
    const std::vector<ModelCell> &modelCells() const { return cellList; }

    /**
     * A fresh, independent set of primitive models in models() order.
     * A K-lane SimState gives every stimulus lane its own set, so
     * per-lane register/memory/pipeline state lives behind the
     * ordinary PrimModel interface while the program's own models stay
     * untouched. It copies a set built once, at construction: building
     * a model resolves its port names through the process-wide symbol
     * table, whose lock lanes built on several threads at once would
     * contend on.
     */
    std::vector<std::unique_ptr<PrimModel>> newModelSet() const;

    /** Human-readable description of assignment `id` (diagnostics). */
    const std::string &assignDesc(uint32_t id) const
    {
        return assignDescs[id];
    }

    /** Visit every compiled assignment; `continuous` distinguishes
     *  always-active assignments from group ones. */
    void forEachAssignment(
        const std::function<void(const SAssign &, bool continuous)> &fn)
        const;

    /** Every assignment's guard, hash-consed (see GuardDag). Both fast
     * engines read guards here: the levelized engine evaluates them and
     * cppsim emits them. Jacobi, the profiler and SimSchedule keep
     * reading the SExpr trees. */
    const GuardDag &guardDag() const { return dag; }

    /**
     * The levelized evaluation schedule, built on first use and cached.
     * Construction fatal()s when the program contains an unconditional
     * combinational cycle, naming the ports on it.
     */
    const SimSchedule &schedule() const;

    /**
     * The JIT-compiled simulation module for this program, loaded on
     * first use and cached (sim/compiled.h), so every SimState running
     * --sim-engine=compiled over this program shares one module and
     * codegen happens once. fatal() like schedule() on rejection, plus
     * on a missing host toolchain or a failed host compile.
     */
    std::shared_ptr<CompiledModule> compiledModule() const;

    const Context &context() const { return *ctx; }

  private:
    friend class SimState;

    void buildInstance(Instance &inst, const Component &comp);
    uint32_t addPort(Symbol path);
    SAssign compileAssign(const Instance &inst, const Assignment &a);
    SExpr compileGuard(const Instance &inst, const GuardPtr &g);
    uint32_t resolve(const Instance &inst, const PortRef &ref);

    /** Intern every compiled guard into `dag`, setting guardRoot. */
    void buildGuardDag();

    const Context *ctx;
    std::unique_ptr<Instance> rootInst;
    GuardDag dag;
    std::vector<Symbol> portNames;
    std::unordered_map<Symbol, uint32_t> portIds;
    std::vector<ModelCell> cellList;
    /// Models at power-on, never run: what newModelSet() copies.
    std::vector<std::unique_ptr<PrimModel>> protoModels;
    std::vector<std::unique_ptr<PrimModel>> modelList;
    std::unordered_map<Symbol, PrimModel *> modelIndex;
    std::vector<std::string> assignDescs;
    mutable std::unique_ptr<SimSchedule> sched; ///< Lazily built.
    mutable std::shared_ptr<CompiledModule> compiled; ///< Lazily loaded.
};

/**
 * Mutable per-run simulation state: port values plus the combinational
 * evaluation engine. Callers select the active assignment set each cycle
 * (continuous only for compiled programs; continuous + active groups for
 * the interpreter), then alternate comb() and clock().
 *
 * A levelized state runs K stimulus lanes through one walk. Lane l owns
 * the slice [l * ports, (l + 1) * ports) of the value planes, its own
 * guard memo and its own model set; every lane shares the active set,
 * the forces and one dirty-node queue (the union of the lanes' dirty
 * cones). Re-evaluating a node whose inputs did not change in some lane
 * is idempotent there, so each lane follows its exact scalar
 * trajectory. K = 1 over the program's own models is the scalar state
 * every engine uses; only the batch runner (sim/batch.h) builds K > 1.
 */
class SimState
{
  public:
    /// One lane's primitive models, in SimProgram::models() order.
    using ModelSet = std::vector<std::unique_ptr<PrimModel>>;

    /** One lane over the program's own models (borrowed). */
    explicit SimState(const SimProgram &prog,
                      Engine engine = Engine::Levelized);

    /**
     * A levelized state with one lane per model set, each from
     * SimProgram::newModelSet() and owned from here on. Go is forced for
     * every lane alike; a lane leaves the walk through retire().
     */
    SimState(const SimProgram &prog, std::vector<ModelSet> lane_models);
    ~SimState();

    SimState(const SimState &) = delete;
    SimState &operator=(const SimState &) = delete;

    /** Reset all models and values; every lane is live again. */
    void reset();

    /** Clear the active assignment set (start of cycle assembly). */
    void beginCycle();

    /** Activate a set of assignments for this cycle. */
    void activate(const std::vector<SAssign> &assigns);

    /** Force a port to a value (interpreter-driven signals). */
    void force(uint32_t port, uint64_t value);

    /**
     * Settle the combinational network for this cycle. Throws Error on
     * multiple active drivers or a combinational loop. Returns the
     * number of Jacobi passes (Jacobi) or node evaluations (Levelized).
     */
    int comb();

    /** Advance all sequential primitives one clock edge. */
    void clock();

    /** Lane 0's value of a port (the only lane of a scalar state). */
    uint64_t value(uint32_t port) const { return vals[port]; }
    uint64_t value(Symbol path) const { return vals[prog->portId(path)]; }

    uint64_t laneValue(uint32_t lane, uint32_t port) const
    {
        return vals[size_t(lane) * prog->numPorts() + port];
    }
    const ModelSet &laneModels(uint32_t lane) const
    {
        return *laneSets[lane];
    }
    bool laneLive(uint32_t lane) const { return liveMask[lane] != 0; }

    /** Drop a lane from every later comb() and clock(): its values and
     * models keep the state they had when it retired. */
    void retire(uint32_t lane) { liveMask[lane] = 0; }

    Engine engine() const { return engineVal; }
    const SimProgram &program() const { return *prog; }

    /**
     * No-op, kept for source compatibility. A single stimulus always
     * runs one serial walk on the calling thread; threads spread only
     * the independent tiles of a batch (BatchOptions::threads).
     */
    void setThreads(unsigned) {}

    /**
     * Attach an observer (obs/observer.h); not owned, must outlive the
     * state. Every subsequent comb() notifies all observers in
     * attachment order, on every engine, with lane 0's settled values.
     * Observers may attach at any cycle. fatal() on a state with more
     * than one lane: observers follow one stimulus.
     */
    void addObserver(obs::SimObserver *observer);

    const std::vector<obs::SimObserver *> &observers() const
    {
        return observerList;
    }

    /** Cycles settled (comb() calls) since reset, observer-visible. */
    uint64_t settledCycles() const { return cycleIndex; }

    /** Notify observers that the run ended (drivers call this once). */
    void finishObservers(uint64_t cycles);

  private:
    int combJacobi();
    int combLevelized();
    int combCompiled();

    /** Bind + size the levelized engine state on first use. */
    void bindSchedule();

    /** Load/bind the generated module on the first compiled comb(). */
    void ensureCompiled();

    /** fatal() with the module's sticky runtime error, if any. */
    void checkCompiledError();

    /** Run every observer's cycleSettled for the current cycle. */
    void notifySettled();

    /**
     * Settled value of one port in one lane under driver priority.
     * `memoize` is false for SCC members (GuardDag::eval).
     */
    uint64_t evalPort(uint32_t lane, uint32_t port, bool check_conflicts,
                      bool memoize);

    void markDirty(uint32_t port);
    void markAllDirty();
    void rebuildActiveByPort();
    void diffForces();
    /// Evaluate one schedule node in every live lane. `Single` (K = 1)
    /// instantiates the scalar walk, with the lane loop and the slice
    /// offsets folded away.
    template <bool Single> void evalNode(uint32_t node_index);

    const SimProgram *prog;
    Engine engineVal;
    uint32_t numLanes = 1;
    std::vector<ModelSet> ownedModels;     ///< Lane constructor only.
    std::vector<const ModelSet *> laneSets; ///< Per lane: owned or borrowed.
    std::vector<uint8_t> liveMask;          ///< Per lane.
    std::vector<uint64_t> vals, tmp;        ///< Lane-major planes.
    std::vector<const SAssign *> active; ///< Jacobi: flat active set.
    std::vector<std::pair<uint32_t, uint64_t>> forces;
    std::vector<int32_t> driver; // scratch for conflict detection

    // --- Levelized engine state -------------------------------------
    const SimSchedule *sched = nullptr; ///< Bound on first comb().

    /// This cycle's activate() calls, by identity. When the sequence
    /// matches the previous cycle's, the per-port active lists are
    /// reused wholesale and no re-scatter or diff happens.
    std::vector<const std::vector<SAssign> *> activationCalls;
    std::vector<const std::vector<SAssign> *> prevActivationCalls;
    bool activationValid = false; ///< False after reset().

    /// Per-port active drivers, double-buffered so a rebuild can diff
    /// against the previous cycle; `touched` lists the non-empty slots.
    std::vector<std::vector<const SAssign *>> activeByPort;
    std::vector<std::vector<const SAssign *>> oldActiveByPort;
    std::vector<uint32_t> touched, oldTouched;

    std::vector<std::pair<uint32_t, uint64_t>> prevForces;
    std::vector<uint64_t> forcedVal;
    /// 64-bit so a stale entry can never match again: a 32-bit stamp
    /// wraps after 2^32 comb() calls and would revive an old force.
    std::vector<uint64_t> forcedStamp;
    uint64_t stamp = 0; ///< Incremented every comb().
    std::vector<GuardMemo> memos; ///< One memo plane per lane.

    /// Event queue: dirty schedule nodes, popped in topological order.
    std::priority_queue<uint32_t, std::vector<uint32_t>,
                        std::greater<uint32_t>> queue;
    std::vector<uint8_t> inQueue;     ///< Per schedule node.
    /// Scratch for cyclic nodes: the member moved in some lane.
    std::vector<uint8_t> portChanged;

    // --- Compiled engine state --------------------------------------
    std::shared_ptr<CompiledModule> compiledMod; ///< Shared per digest.
    void *compiledInst = nullptr; ///< This state's generated instance.
    size_t continuousCount = 0;   ///< Total continuous assignments.

    // --- Observability ----------------------------------------------
    std::vector<obs::SimObserver *> observerList;
    uint64_t cycleIndex = 0; ///< Settled cycles since reset().
};

/** Maximum Jacobi passes / local SCC iterations before giving up. */
constexpr int maxCombPasses = 256;

/**
 * Snapshot of all architectural state — registers and memory contents,
 * in model order. Used by cross-engine equivalence checks.
 */
std::vector<std::vector<uint64_t>> archState(const SimProgram &prog);

} // namespace calyx::sim

#endif // CALYX_SIM_ENV_H
