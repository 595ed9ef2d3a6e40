#include "emit/cppsim.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/primitives.h"
#include "sim/env.h"
#include "sim/partition.h"
#include "sim/schedule.h"
#include "support/bits.h"
#include "support/error.h"

namespace calyx::emit {

namespace {

using sim::SAssign;
using sim::SExpr;
using sim::SimProgram;
using sim::SimSchedule;

std::string
hexLit(uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v << "ull";
    return os.str();
}

/** Escape a port/cell name for use inside a C++ string literal. */
std::string
escapeLit(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/** One primitive cell paired with its model index and state slots. */
struct Prim
{
    const Cell *cell = nullptr;
    std::string path;
    size_t model = 0; ///< Index into SimProgram::models().
    int reg = -1;     ///< Register slot, or -1.
    int mem = -1;     ///< Memory slot, or -1.
    uint64_t memSize = 0;
    std::vector<uint64_t> memDims;
};

/**
 * Everything the codegen needs, resolved once: drivers per port,
 * primitive cells in model order, and constant-folded port values.
 */
struct Codegen
{
    const SimProgram &prog;
    const SimSchedule &sched;
    uint32_t numPorts;
    uint32_t L = 1; ///< Stimulus lanes (CppSimOptions::lanes).

    std::vector<std::vector<const SAssign *>> drivers;
    std::vector<Prim> prims;
    std::unordered_map<const sim::PrimModel *, const Prim *> primOfModel;

    std::vector<uint8_t> computed; ///< eval() (or reset()) writes it.
    std::vector<uint8_t> folded;   ///< Compile-time constant.
    std::vector<uint64_t> foldedVal;

    /// Shared guard value pool (see buildGuardPool): assignment → guard
    /// id, pool entry → its guard and the acyclic port whose statement
    /// computes the pooled value at first use.
    std::unordered_map<const SAssign *, uint32_t> guardIdOf;
    std::vector<const SExpr *> guardPool;
    std::vector<uint32_t> guardHome;

    /// Partitioned module (CppSimOptions::partitions > 1): schedule
    /// node → macro-task, and the task whose statements are currently
    /// being emitted. Each partition gets private guard-pool entries
    /// and a private error slot, so concurrent evals share nothing.
    bool parted = false;
    std::vector<uint32_t> taskOf;
    uint32_t curPart = 0;

    /// Sticky-error slot for the statement being emitted: the current
    /// partition's private slot in a partitioned module (clock code
    /// runs sequentially and uses slot 0), the single `err` otherwise.
    std::string errRef() const
    {
        if (parted)
            return "s->perr[" + std::to_string(curPart) + "]";
        return "s->err";
    }

    std::string errbufRef() const
    {
        if (parted)
            return "s->errbuf[" + std::to_string(curPart) + "]";
        return "s->errbuf";
    }

    int numRegs = 0, numMems = 0;

    explicit Codegen(const SimProgram &p)
        : prog(p), sched(p.schedule()),
          numPorts(static_cast<uint32_t>(p.numPorts()))
    {}

    uint32_t
    pid(const Prim &prim, const char *port) const
    {
        return prog.portId(prim.path + "." + port);
    }

    /**
     * vals[] element for `port`. Scalar modules index by port id; lane
     * modules index the SoA plane at `port * kLanes + l`, with the
     * plane base folded to a literal and `l` the enclosing lane-loop
     * variable (every emitted statement runs inside one).
     */
    std::string
    vref(uint32_t port) const
    {
        if (L == 1)
            return "vals[" + std::to_string(port) + "]";
        return "vals[" + std::to_string(uint64_t(port) * L) + " + l]";
    }

    /** Value reference: folded constant literal or vals[] load. */
    std::string
    val(uint32_t port) const
    {
        if (folded[port])
            return hexLit(foldedVal[port]);
        return vref(port);
    }

    /** Current value of register slot `r` (per-lane array for L > 1). */
    std::string
    regRef(int r) const
    {
        if (L == 1)
            return "*s->regs[" + std::to_string(r) + "]";
        return "s->regs[" + std::to_string(r) + "][l]";
    }

    std::string
    rdoneRef(int r) const
    {
        if (L == 1)
            return "s->rdone[" + std::to_string(r) + "]";
        return "s->rdone[" + std::to_string(uint64_t(r) * L) + " + l]";
    }

    std::string
    mdoneRef(int m) const
    {
        if (L == 1)
            return "s->mdone[" + std::to_string(m) + "]";
        return "s->mdone[" + std::to_string(uint64_t(m) * L) + " + l]";
    }

    /** Memory element `idx` of slot `m`; lane-major for L > 1 so each
     * lane's image is one contiguous run (cheap snapshot/seed). */
    std::string
    memRef(const Prim &p, const std::string &idx) const
    {
        std::string mem = "s->mems[" + std::to_string(p.mem) + "]";
        if (L == 1)
            return mem + "[" + idx + "]";
        return mem + "[l * " + std::to_string(p.memSize) + "ull + " + idx +
               "]";
    }

    std::string
    gvRef(uint32_t gid) const
    {
        if (L == 1)
            return "s->gv[" + std::to_string(gid) + "]";
        return "s->gv[" + std::to_string(uint64_t(gid) * L) + " + l]";
    }
};

void
rejectGroups(const SimProgram::Instance &inst)
{
    if (inst.hasGroups()) {
        fatal("cppsim: component ", inst.comp->name(),
              " still has groups; the compiled-simulation backend "
              "requires a fully-lowered program (run the default "
              "pipeline first)");
    }
    for (const auto &sub : inst.subs)
        rejectGroups(*sub);
}

/**
 * Visit primitive cells in exactly the order SimProgram::buildInstance
 * creates their models: component cell order, recursing into
 * sub-instances in place.
 */
void
walkPrims(const SimProgram::Instance &inst,
          const std::function<void(const Cell &, const std::string &)> &fn)
{
    size_t sub = 0;
    for (const auto &cell : inst.comp->cells()) {
        if (cell->isPrimitive())
            fn(*cell, inst.path + cell->name().str());
        else
            walkPrims(*inst.subs[sub++], fn);
    }
}

void
collectPrims(Codegen &cg)
{
    walkPrims(cg.prog.root(), [&](const Cell &cell, const std::string &path) {
        Prim p;
        p.cell = &cell;
        p.path = path;
        p.model = cg.prims.size();
        const std::string &t = cell.type().str();
        if (t == "std_reg") {
            p.reg = cg.numRegs++;
        } else if (t == "std_mem_d1" || t == "std_mem_d2") {
            p.mem = cg.numMems++;
            p.memDims.assign({cell.params()[1]});
            if (t == "std_mem_d2")
                p.memDims.push_back(cell.params()[2]);
            p.memSize = 1;
            for (uint64_t d : p.memDims)
                p.memSize *= d;
        }
        cg.prims.push_back(std::move(p));
    });
    const auto &models = cg.prog.models();
    if (models.size() != cg.prims.size())
        panic("cppsim: primitive walk does not match model list");
    for (const Prim &p : cg.prims) {
        if (cg.prog.findModel(p.path) != models[p.model].get())
            panic("cppsim: model order mismatch at " + p.path);
        cg.primOfModel[models[p.model].get()] = &p;
    }
}

/** Guard expression as branchless 0/1 integer arithmetic. */
std::string
guardExpr(const Codegen &cg, const SExpr &g)
{
    if (g.nodes.empty())
        return "1";
    std::vector<std::string> stack;
    for (const SExpr::Node &n : g.nodes) {
        switch (n.op) {
          case SExpr::Op::True:
            stack.push_back("1");
            break;
          case SExpr::Op::Port:
            if (cg.folded[n.a])
                stack.push_back((cg.foldedVal[n.a] & 1) ? "1" : "0");
            else
                stack.push_back("(" + cg.vref(n.a) + " & 1)");
            break;
          case SExpr::Op::Not: {
            std::string x = std::move(stack.back());
            stack.back() = "(" + x + " ^ 1)";
            break;
          }
          case SExpr::Op::And:
          case SExpr::Op::Or: {
            std::string b = std::move(stack.back());
            stack.pop_back();
            std::string a = std::move(stack.back());
            stack.back() = "(" + a + (n.op == SExpr::Op::And ? " & " : " | ") +
                           b + ")";
            break;
          }
          default: {
            std::string a = n.aImm ? hexLit(n.immA) : cg.val(n.a);
            std::string b = n.bImm ? hexLit(n.immB) : cg.val(n.b);
            const char *op = nullptr;
            switch (n.op) {
              case SExpr::Op::Eq:
                op = "==";
                break;
              case SExpr::Op::Neq:
                op = "!=";
                break;
              case SExpr::Op::Lt:
                op = "<";
                break;
              case SExpr::Op::Gt:
                op = ">";
                break;
              case SExpr::Op::Leq:
                op = "<=";
                break;
              case SExpr::Op::Geq:
                op = ">=";
                break;
              default:
                panic("cppsim: bad SExpr op");
            }
            // Lane form avoids a bool-typed intermediate: GCC refuses
            // to vectorize `(uint64_t)(a == b)` when the result feeds
            // integer arithmetic ("bit-precision conversion"), but the
            // select form if-converts to a mask cleanly.
            if (cg.L > 1)
                stack.push_back("(" + a + " " + op + " " + b +
                                " ? 1ull : 0ull)");
            else
                stack.push_back("(uint64_t)(" + a + " " + op + " " + b +
                                ")");
            break;
          }
        }
    }
    return stack.back();
}

/**
 * Text-keyed common-subexpression pool for one emitted port. Large
 * guards (FSM range checks repeat `go & !done` in every disjunct, and
 * whole disjuncts recur across drivers) compile each SExpr node to a
 * numbered local exactly once: identical subtrees produce identical
 * operand names, so their key collides and the local is reused.
 */
struct GuardCSE
{
    std::string ind;   ///< Indentation for emitted locals.
    std::string stmts; ///< Accumulated "uint64_t tN = ...;" lines.
    std::unordered_map<std::string, std::string> memo;
    int next = 0;

    std::string local(const std::string &expr)
    {
        auto it = memo.find(expr);
        if (it != memo.end())
            return it->second;
        std::string name = "t" + std::to_string(next++);
        stmts += ind + "uint64_t " + name + " = " + expr + ";\n";
        memo.emplace(expr, name);
        return name;
    }
};

/** Guard nodes above which guardVar() is used instead of guardExpr().
 * Below this, inline composition is both smaller and faster; above it
 * (FSM range-check chains reach hundreds of nodes) expression nesting
 * depth and repeated subtrees dominate. */
constexpr size_t guardInlineNodes = 64;

/** Guard compiled through the CSE pool: returns the local holding the
 * 0/1 result. Same stack walk as guardExpr(), one local per node. */
std::string
guardVar(const Codegen &cg, const SExpr &g, GuardCSE &cse)
{
    if (g.nodes.empty())
        return "1";
    std::vector<std::string> stack;
    for (const SExpr::Node &n : g.nodes) {
        switch (n.op) {
          case SExpr::Op::True:
            stack.push_back("1");
            break;
          case SExpr::Op::Port:
            if (cg.folded[n.a])
                stack.push_back((cg.foldedVal[n.a] & 1) ? "1" : "0");
            else
                stack.push_back(cse.local(cg.vref(n.a) + " & 1"));
            break;
          case SExpr::Op::Not: {
            std::string x = std::move(stack.back());
            stack.back() = cse.local(x + " ^ 1");
            break;
          }
          case SExpr::Op::And:
          case SExpr::Op::Or: {
            std::string b = std::move(stack.back());
            stack.pop_back();
            std::string a = std::move(stack.back());
            stack.back() = cse.local(
                a + (n.op == SExpr::Op::And ? " & " : " | ") + b);
            break;
          }
          default: {
            std::string a = n.aImm ? hexLit(n.immA) : cg.val(n.a);
            std::string b = n.bImm ? hexLit(n.immB) : cg.val(n.b);
            const char *op = nullptr;
            switch (n.op) {
              case SExpr::Op::Eq:
                op = "==";
                break;
              case SExpr::Op::Neq:
                op = "!=";
                break;
              case SExpr::Op::Lt:
                op = "<";
                break;
              case SExpr::Op::Gt:
                op = ">";
                break;
              case SExpr::Op::Leq:
                op = "<=";
                break;
              case SExpr::Op::Geq:
                op = ">=";
                break;
              default:
                panic("cppsim: bad SExpr op");
            }
            stack.push_back(cse.local(a + " " + op + " " + b));
            break;
          }
        }
    }
    return stack.back();
}

std::string
srcExpr(const Codegen &cg, const SAssign &a)
{
    return a.srcConst ? hexLit(a.srcValue) : cg.val(a.srcPort);
}

/** Truncation of `e` to `w` bits, elided for full-width values. */
std::string
trunc(const std::string &e, Width w)
{
    if (w >= 64)
        return e;
    return "(" + e + " & " + hexLit(bitMask(w)) + ")";
}

std::string
memberRef(const Codegen &cg, const Prim &p, const char *field)
{
    std::string m = "s->p" + std::to_string(p.model) + "_" + field;
    return cg.L == 1 ? m : m + "[l]";
}

/** Flattened memory address expression (mirrors MemModel::flatAddr). */
std::string
memAddrExpr(const Codegen &cg, const Prim &p, const char *a0,
            const char *a1)
{
    std::string addr = cg.val(cg.pid(p, a0));
    if (p.memDims.size() == 2) {
        addr = "(" + addr + " * " + std::to_string(p.memDims[1]) + "ull + " +
               cg.val(cg.pid(p, a1)) + ")";
    }
    return addr;
}

/**
 * The inlined combinational expression a primitive drives onto `port`
 * (mirrors the PrimModel::evalComb semantics in sim/models.cc).
 */
std::string
modelOutExpr(const Codegen &cg, const Prim &p, uint32_t port)
{
    const std::string &t = p.cell->type().str();
    const auto &params = p.cell->params();
    auto w = [&params](size_t i) { return static_cast<Width>(params[i]); };

    if (t == "std_const")
        return hexLit(truncate(params[1], w(0)));
    if (t == "std_wire" || t == "std_pad")
        return trunc(cg.val(cg.pid(p, "in")), t == "std_wire" ? w(0) : w(1));
    if (t == "std_slice")
        return trunc(cg.val(cg.pid(p, "in")), w(1));
    if (t == "std_not")
        return trunc("~" + cg.val(cg.pid(p, "in")), w(0));

    static const std::unordered_map<std::string, const char *> bin_ops = {
        {"std_add", "+"}, {"std_sub", "-"}, {"std_and", "&"},
        {"std_or", "|"},  {"std_xor", "^"},
    };
    if (auto it = bin_ops.find(t); it != bin_ops.end()) {
        return trunc("(" + cg.val(cg.pid(p, "left")) + " " + it->second +
                         " " + cg.val(cg.pid(p, "right")) + ")",
                     w(0));
    }
    if (t == "std_lsh" || t == "std_rsh") {
        std::string l = cg.val(cg.pid(p, "left"));
        std::string r = cg.val(cg.pid(p, "right"));
        const char *op = t == "std_lsh" ? "<<" : ">>";
        return "(" + r + " >= 64 ? 0ull : " +
               trunc("(" + l + " " + op + " " + r + ")", w(0)) + ")";
    }
    static const std::unordered_map<std::string, const char *> cmp_ops = {
        {"std_eq", "=="}, {"std_neq", "!="}, {"std_lt", "<"},
        {"std_gt", ">"},  {"std_le", "<="},  {"std_ge", ">="},
    };
    if (auto it = cmp_ops.find(t); it != cmp_ops.end()) {
        std::string l = cg.val(cg.pid(p, "left"));
        std::string r = cg.val(cg.pid(p, "right"));
        if (cg.L > 1) // select form vectorizes; the bool cast does not
            return "(" + l + " " + it->second + " " + r + " ? 1ull : 0ull)";
        return "(uint64_t)(" + l + " " + it->second + " " + r + ")";
    }
    if (t == "std_reg") {
        if (port == cg.pid(p, "done"))
            return "(uint64_t)" + cg.rdoneRef(p.reg);
        return cg.regRef(p.reg);
    }
    if (t == "std_mem_d1" || t == "std_mem_d2") {
        std::string size = std::to_string(p.memSize) + "ull";
        if (port == cg.pid(p, "done"))
            return "(uint64_t)" + cg.mdoneRef(p.mem);
        if (port == cg.pid(p, "read_data")) {
            std::string a = memAddrExpr(cg, p, "addr0", "addr1");
            return "(" + a + " < " + size + " ? " + cg.memRef(p, a) +
                   " : 0ull)";
        }
        std::string a = memAddrExpr(cg, p, "addr0_1", "addr1_1");
        return "(" + a + " < " + size + " ? " + cg.memRef(p, a) +
               " : 0ull)";
    }
    if (t == "std_mult_pipe" || t == "std_div_pipe" || t == "std_sqrt") {
        if (port == cg.pid(p, "done"))
            return "(uint64_t)" + memberRef(cg, p, "done");
        if (t == "std_div_pipe" && port == cg.pid(p, "out_remainder"))
            return memberRef(cg, p, "r1");
        return memberRef(cg, p, "r0");
    }
    fatal("cppsim: no codegen for primitive ", t);
}

/**
 * Settled-value expression for one computed port under the
 * interpreter's driver priority: the ternary chain walks drivers
 * last-to-first (SimState::evalPort keeps the last active assignment)
 * and falls back to the inlined model output, then zero.
 */
std::string
portExpr(const Codegen &cg, uint32_t port)
{
    std::string expr;
    if (const sim::PrimModel *m = cg.sched.modelOf(port))
        expr = modelOutExpr(cg, *cg.primOfModel.at(m), port);
    else
        expr = "0ull";
    const auto &ds = cg.drivers[port];
    for (auto it = ds.begin(); it != ds.end(); ++it) {
        const SAssign *a = *it;
        if (a->guard.nodes.empty()) {
            // Unconditional driver: earlier drivers can never win.
            expr = srcExpr(cg, *a);
        } else {
            expr = "(" + guardExpr(cg, a->guard) + " ? " + srcExpr(cg, *a) +
                   " : " + expr + ")";
        }
    }
    return expr;
}

/** Fan-in above which a port is emitted as a flat if-chain. */
constexpr size_t selectChainMax = 8;

/** True when the port needs the statement-block form: deep fan-in or a
 * guard big enough for the CSE pool. The inline portExpr() form would
 * hand the host compiler a pathologically nested expression. */
bool
needsBlock(const Codegen &cg, uint32_t port)
{
    const auto &ds = cg.drivers[port];
    if (ds.size() > selectChainMax)
        return true;
    for (const SAssign *a : ds) {
        if (a->guard.nodes.size() > guardInlineNodes)
            return true;
    }
    return false;
}

/**
 * Statements computing the settled value of `port` into local `var`.
 * Small fan-in with small guards inlines the nested-select portExpr();
 * big fan-in ports (a lowered memory write mux can have thousands of
 * drivers) become a flat if-chain instead — identical last-active-wins
 * order, but linear work for the host compiler where a 1000-deep
 * nested conditional expression makes it crawl. Guards above
 * guardInlineNodes compile through a shared per-port CSE pool.
 */
std::string
portValueStmts(const Codegen &cg, uint32_t port, const std::string &var,
               const std::string &ind, bool in_scc)
{
    const auto &ds = cg.drivers[port];
    if (!needsBlock(cg, port)) {
        return ind + "uint64_t " + var + " = " + portExpr(cg, port) + ";\n";
    }

    GuardCSE cse{ind};
    std::string pool; ///< `s->gv[k] = ...;` writes this port owns.
    std::vector<uint32_t> homed;
    std::vector<std::string> guards(ds.size());
    for (size_t i = 0; i < ds.size(); ++i) {
        const SExpr &g = ds[i]->guard;
        if (g.nodes.empty())
            continue; // Unconditional; no guard text needed.
        uint32_t gid = UINT32_MAX;
        if (!in_scc) {
            if (auto it = cg.guardIdOf.find(ds[i]);
                it != cg.guardIdOf.end())
                gid = it->second;
        }
        if (gid != UINT32_MAX) {
            guards[i] = cg.gvRef(gid);
            if (cg.guardHome[gid] == port &&
                std::find(homed.begin(), homed.end(), gid) ==
                    homed.end()) {
                homed.push_back(gid);
                pool += ind + guards[i] + " = " + guardVar(cg, g, cse) +
                        ";\n";
            }
        } else {
            guards[i] = g.nodes.size() > guardInlineNodes
                            ? guardVar(cg, g, cse)
                            : guardExpr(cg, g);
        }
    }

    std::string base;
    if (const sim::PrimModel *m = cg.sched.modelOf(port))
        base = modelOutExpr(cg, *cg.primOfModel.at(m), port);
    else
        base = "0ull";

    std::string s = cse.stmts + pool;
    if (ds.size() <= selectChainMax) {
        // Few drivers: keep the branchless select, just with pooled
        // guard locals instead of inline guard expressions.
        std::string expr = base;
        for (size_t i = 0; i < ds.size(); ++i) {
            if (guards[i].empty())
                expr = srcExpr(cg, *ds[i]);
            else
                expr = "(" + guards[i] + " ? " + srcExpr(cg, *ds[i]) +
                       " : " + expr + ")";
        }
        s += ind + "uint64_t " + var + " = " + expr + ";\n";
        return s;
    }
    s += ind + "uint64_t " + var + " = " + base + ";\n";
    for (size_t i = 0; i < ds.size(); ++i) {
        if (guards[i].empty())
            s += ind + var + " = " + srcExpr(cg, *ds[i]) + ";\n";
        else if (cg.L > 1)
            // Lane modules keep deep fan-in branchless: sequential
            // selects are the same last-active-wins fold as the
            // if-chain, stay linear for the host compiler, and
            // if-convert into vector blends instead of defeating the
            // lane loop's vectorization with control flow.
            s += ind + var + " = " + guards[i] + " ? " +
                 srcExpr(cg, *ds[i]) + " : " + var + ";\n";
        else
            s += ind + "if (" + guards[i] + ") " + var + " = " +
                 srcExpr(cg, *ds[i]) + ";\n";
    }
    return s;
}

/**
 * Fold constant-only ports: std_const outputs and single unguarded
 * assignments from constants, propagated transitively in topological
 * order. Folded ports are written once at reset and disappear from
 * eval(); expressions reading them get literals the host compiler
 * folds further.
 */
void
foldConstants(Codegen &cg)
{
    cg.folded.assign(cg.numPorts, 0);
    cg.foldedVal.assign(cg.numPorts, 0);
    for (const SimSchedule::Node &node : cg.sched.nodes()) {
        if (node.cyclic || node.count != 1)
            continue;
        uint32_t p = cg.sched.memberPorts()[node.first];
        const auto &ds = cg.drivers[p];
        if (ds.size() == 1 && ds[0]->guard.nodes.empty()) {
            const SAssign *a = ds[0];
            if (a->srcConst) {
                cg.folded[p] = 1;
                cg.foldedVal[p] = a->srcValue;
            } else if (cg.folded[a->srcPort]) {
                cg.folded[p] = 1;
                cg.foldedVal[p] = cg.foldedVal[a->srcPort];
            }
        } else if (ds.empty()) {
            const sim::PrimModel *m = cg.sched.modelOf(p);
            if (!m)
                continue;
            const Prim &prim = *cg.primOfModel.at(m);
            if (prim.cell->type() == "std_const") {
                cg.folded[p] = 1;
                cg.foldedVal[p] = truncate(prim.cell->params()[1],
                                           static_cast<Width>(
                                               prim.cell->params()[0]));
            }
        }
    }
}

/**
 * Dedupe big guards into a per-eval value pool. A lowered group's
 * enable guard (hundreds of SExpr nodes of FSM range checks) is
 * attached to every assignment in the group, so the identical
 * expression would be re-emitted — and re-evaluated — for every port
 * the group drives. Instead, each distinct big guard gets a slot in
 * the generated instance's `gv[]` array, computed once per eval by the
 * statement of the first acyclic port that reads it; every later
 * reader loads the slot. Topological order makes this sound: every
 * reader's node is scheduled after all of the guard's input ports, so
 * by first use the inputs are settled and cannot change for the rest
 * of the eval. Cyclic (SCC) members keep inline re-evaluation — their
 * inputs do change mid-loop, and the interpreter's fixed-point
 * trajectory must be reproduced exactly.
 */
void
buildGuardPool(Codegen &cg)
{
    std::unordered_map<std::string, uint32_t> by_text;
    const auto &nodes = cg.sched.nodes();
    for (uint32_t ni = 0; ni < nodes.size(); ++ni) {
        const SimSchedule::Node &node = nodes[ni];
        if (node.cyclic)
            continue;
        uint32_t p = cg.sched.memberPorts()[node.first];
        if (cg.folded[p] || !cg.computed[p])
            continue;
        for (const SAssign *a : cg.drivers[p]) {
            if (a->guard.nodes.size() <= guardInlineNodes)
                continue;
            std::string key = guardExpr(cg, a->guard);
            // Partitioned modules scope pool entries to one partition:
            // readers in different partitions run concurrently, so a
            // shared slot's home-write would race. Within a partition
            // the home (first reader in ascending node order, which is
            // task execution order) still settles before every reuse.
            if (cg.parted)
                key = std::to_string(cg.taskOf[ni]) + "|" + key;
            auto [it, fresh] = by_text.emplace(
                key, static_cast<uint32_t>(cg.guardPool.size()));
            if (fresh) {
                cg.guardPool.push_back(&a->guard);
                cg.guardHome.push_back(p);
            }
            cg.guardIdOf.emplace(a, it->second);
        }
    }
}

/** Statements for one schedule node (one port, or one SCC loop).
 * `fusable` (may be null) is set when the statement is a single
 * expression-form line that a lane module may fuse with its neighbors
 * into one shared lane loop. */
std::string
nodeStmt(const Codegen &cg, const SimSchedule::Node &node,
         bool *fusable = nullptr)
{
    if (fusable)
        *fusable = false;
    const uint32_t *mem = cg.sched.memberPorts().data() + node.first;
    if (!node.cyclic) {
        uint32_t p = mem[0];
        if (cg.folded[p] || !cg.computed[p])
            return "";
        if (!needsBlock(cg, p)) {
            std::string stmt =
                "  " + cg.vref(p) + " = " + portExpr(cg, p) + ";\n";
            // Memory reads are indexed (gather) loads the vectorizer
            // refuses; fusing one into a lane loop of otherwise clean
            // selects makes the whole loop scalar. Isolate them.
            if (fusable)
                *fusable = cg.L == 1 ||
                           stmt.find("s->mems[") == std::string::npos;
            return stmt;
        }
        return "  {\n" + portValueStmts(cg, p, "v", "    ", false) +
               "    " + cg.vref(p) + " = v;\n  }\n";
    }

    // Non-trivial SCC: bounded Gauss–Seidel fixed point over the
    // members in schedule order, mirroring SimState::evalNode — same
    // sweep order, same iteration bound, same diagnostic.
    std::string ports;
    for (uint32_t i = 0; i < node.count; ++i) {
        if (!ports.empty())
            ports += ", ";
        ports += cg.prog.portName(mem[i]);
    }
    std::string s;
    s += "  { // combinational SCC: " + ports + "\n";
    s += "    bool ch = true;\n    int it = 0;\n";
    s += "    while (ch) {\n";
    s += "      if (++it > kMaxIters) {\n";
    s += "        " + cg.errRef() +
         " = \"combinational cycle did not settle after 256 "
         "iterations; ports on the cycle: " +
         escapeLit(ports) + "\";\n        return;\n      }\n";
    s += "      ch = false;\n";
    for (uint32_t i = 0; i < node.count; ++i) {
        uint32_t p = mem[i];
        if (!cg.computed[p])
            continue;
        std::string pv = cg.vref(p);
        s += "      {\n" + portValueStmts(cg, p, "nv", "        ", true);
        s += "        if (nv != " + pv + ") { " + pv +
             " = nv; ch = true; }\n      }\n";
    }
    s += "    }\n  }\n";
    return s;
}

/** Clock-edge statements for one primitive (empty for comb cells).
 * `fusable` as in nodeStmt(): register clocks are single lines a lane
 * module may share a lane loop across. */
std::string
clockStmt(const Codegen &cg, const Prim &p, bool *fusable = nullptr)
{
    const std::string &t = p.cell->type().str();
    const auto &params = p.cell->params();
    auto w = [&params](size_t i) { return static_cast<Width>(params[i]); };
    std::string s;
    if (fusable)
        *fusable = false;

    if (t == "std_reg") {
        if (fusable)
            *fusable = true;
        if (cg.L > 1) {
            // Branchless for the lane loop: a select on the held value
            // if-converts to a vector blend where the scalar form's
            // branch would stop vectorization of the whole fused loop.
            s += "  { uint64_t en = " + cg.vref(cg.pid(p, "write_en")) +
                 " & 1; " + cg.regRef(p.reg) + " = en ? " +
                 trunc(cg.val(cg.pid(p, "in")), w(0)) + " : " +
                 cg.regRef(p.reg) + "; " + cg.rdoneRef(p.reg) +
                 " = (unsigned char)en; }\n";
            return s;
        }
        s += "  if (" + cg.vref(cg.pid(p, "write_en")) + " & 1) { " +
             cg.regRef(p.reg) + " = " +
             trunc(cg.val(cg.pid(p, "in")), w(0)) + "; " +
             cg.rdoneRef(p.reg) + " = 1; } else " + cg.rdoneRef(p.reg) +
             " = 0;\n";
        return s;
    }
    if (t == "std_mem_d1" || t == "std_mem_d2") {
        std::string size = std::to_string(p.memSize) + "ull";
        s += "  if (" + cg.vref(cg.pid(p, "write_en")) + " & 1) {\n";
        s += "    uint64_t a = " + memAddrExpr(cg, p, "addr0", "addr1") +
             ";\n";
        s += "    if (a >= " + size + ") {\n";
        s += "      snprintf(" + cg.errbufRef() + ", sizeof " +
             cg.errbufRef() + ", \"memory " +
             escapeLit(p.cell->name().str()) +
             ": write to out-of-bounds address %llu (size " +
             std::to_string(p.memSize) +
             ")\", (unsigned long long)a);\n"
             "      " + cg.errRef() + " = " + cg.errbufRef() +
             ";\n      return;\n    }\n";
        s += "    " + cg.memRef(p, "a") + " = " +
             trunc(cg.val(cg.pid(p, "write_data")), w(0)) + ";\n";
        s += "    " + cg.mdoneRef(p.mem) + " = 1;\n  } else " +
             cg.mdoneRef(p.mem) + " = 0;\n";
        return s;
    }
    if (t == "std_mult_pipe" || t == "std_div_pipe") {
        int64_t latency = t == "std_mult_pipe" ? multLatency : divLatency;
        std::string busy = memberRef(cg, p, "busy"),
                    done = memberRef(cg, p, "done");
        std::string rem = memberRef(cg, p, "rem"), a = memberRef(cg, p, "a");
        std::string b = memberRef(cg, p, "b"), r0 = memberRef(cg, p, "r0");
        std::string finish;
        if (t == "std_mult_pipe") {
            if (cg.L > 1 && latency > 1) {
                // Branchless lane form: `fin`/`start` are mutually
                // exclusive (fin implies busy, start implies idle), so
                // the selects below replay the scalar branches exactly
                // and the whole pipe clock if-converts to blends.
                if (fusable)
                    *fusable = true;
                s += "  { uint64_t busy = " + busy + ", fin = busy & "
                     "(" + rem + " == 1 ? 1ull : 0ull), start = (busy ^ 1) & "
                     "(" + cg.vref(cg.pid(p, "go")) + " & 1); " +
                     rem + " -= (int64_t)busy; " +
                     a + " = start ? " + cg.val(cg.pid(p, "left")) +
                     " : " + a + "; " +
                     b + " = start ? " + cg.val(cg.pid(p, "right")) +
                     " : " + b + "; " +
                     r0 + " = fin ? " +
                     trunc("(" + a + " * " + b + ")", w(0)) + " : " + r0 +
                     "; " + rem + " = start ? " +
                     std::to_string(latency - 1) + " : " + rem + "; " +
                     busy + " = (unsigned char)((busy & (fin ^ 1)) | "
                     "start); " + done + " = (unsigned char)fin; }\n";
                return s;
            }
            finish = r0 + " = " + trunc("(" + a + " * " + b + ")", w(0)) +
                     ";";
        } else {
            std::string r1 = memberRef(cg, p, "r1");
            finish = "if (" + b + " == 0) { " + r0 + " = " +
                     hexLit(bitMask(w(0))) + "; " + r1 + " = " +
                     trunc(a, w(0)) + "; } else { " + r0 + " = " +
                     trunc("(" + a + " / " + b + ")", w(0)) + "; " + r1 +
                     " = " + trunc("(" + a + " % " + b + ")", w(0)) + "; }";
        }
        s += "  " + done + " = 0;\n";
        s += "  if (" + busy + ") {\n";
        s += "    if (--" + rem + " == 0) { " + finish + " " + busy +
             " = 0; " + done + " = 1; }\n";
        s += "  } else if (" + cg.vref(cg.pid(p, "go")) + " & 1) {\n";
        s += "    " + a + " = " + cg.val(cg.pid(p, "left")) + "; " + b +
             " = " + cg.val(cg.pid(p, "right")) + ";\n";
        if (latency <= 1)
            s += "    " + finish + " " + done + " = 1;\n";
        else
            s += "    " + busy + " = 1; " + rem + " = " +
                 std::to_string(latency - 1) + ";\n";
        s += "  }\n";
        return s;
    }
    if (t == "std_sqrt") {
        std::string busy = memberRef(cg, p, "busy"),
                    done = memberRef(cg, p, "done");
        std::string rem = memberRef(cg, p, "rem"), op = memberRef(cg, p, "a");
        std::string r0 = memberRef(cg, p, "r0");
        s += "  " + done + " = 0;\n";
        s += "  if (" + busy + ") {\n";
        s += "    if (--" + rem + " == 0) { " + r0 + " = " +
             trunc("cppsim_isqrt(" + op + ")", w(0)) + "; " + busy +
             " = 0; " + done + " = 1; }\n";
        s += "  } else if (" + cg.vref(cg.pid(p, "go")) + " & 1) {\n";
        s += "    " + op + " = " + cg.val(cg.pid(p, "in")) + ";\n";
        s += "    " + busy + " = 1; " + rem + " = 1 + cppsim_bits_needed(" +
             op + ") / 2;\n";
        s += "  }\n";
        return s;
    }
    return "";
}

/** Per-primitive members of the generated instance struct. Lane
 * modules hold one slot per lane (`[kLanes]` arrays). */
std::string
stateMembers(const Codegen &cg)
{
    // "" for scalar modules, "[kLanes]" appended to every member name
    // for lane modules so memberRef()'s `[l]` indexing lands on the
    // lane's slot.
    const std::string d = cg.L == 1 ? "" : "[kLanes]";
    std::string s;
    for (const Prim &p : cg.prims) {
        const std::string &t = p.cell->type().str();
        std::string pre = "p" + std::to_string(p.model) + "_";
        if (t == "std_mult_pipe" || t == "std_div_pipe") {
            s += "  uint64_t " + pre + "a" + d + ", " + pre + "b" + d +
                 ", " + pre + "r0" + d;
            if (t == "std_div_pipe")
                s += ", " + pre + "r1" + d;
            s += ";\n  int64_t " + pre + "rem" + d + ";\n";
            s += "  unsigned char " + pre + "busy" + d + ", " + pre +
                 "done" + d + ";\n";
        } else if (t == "std_sqrt") {
            s += "  uint64_t " + pre + "a" + d + ", " + pre + "r0" + d +
                 ";\n";
            s += "  int64_t " + pre + "rem" + d + ";\n";
            s += "  unsigned char " + pre + "busy" + d + ", " + pre +
                 "done" + d + ";\n";
        }
    }
    return s;
}

/** Cap on fusable statements sharing one lane loop. Small bodies keep
 * the host compiler's loop vectorizer effective (it gives up on huge
 * loop bodies), while amortizing the loop overhead across statements
 * whose vector registers it can then keep live. */
constexpr size_t laneFuseStatements = 256;

/** Byte cap per fused lane-loop body, same rationale. */
constexpr size_t laneFuseBytes = 256 * 1024;

/**
 * Lane modules: wrap every statement in a per-lane loop. Runs of
 * fusable single-line statements (trivial acyclic ports, register
 * clocks) share one loop; block statements (if-chains, SCC fixed
 * points, memory/pipe clocks) each get their own. Statement order is
 * preserved inside a fused body, so each lane still sees the exact
 * scalar schedule order; lanes are independent, so the changed
 * statement-vs-lane interleaving is unobservable.
 */
std::vector<std::string>
wrapLaneLoops(std::vector<std::string> stmts,
              const std::vector<char> &fusable)
{
    // `ivdep` is sound by construction: every access in a lane loop is
    // either a plane element at offset +l or a lane-private slice at
    // base l*size, so no dependence ever crosses iterations. It spares
    // the vectorizer the quadratic runtime alias checks between the
    // many distinct plane pointers a fused body touches (past its
    // versioning limit the vectorizer silently gives up).
    static const char *open = "#pragma GCC ivdep\n"
                              "  for (uint32_t l = 0; l < kLanes; ++l) {\n";
    std::vector<std::string> out;
    size_t i = 0;
    while (i < stmts.size()) {
        std::string body = std::move(stmts[i]);
        size_t n = 1;
        if (fusable[i]) {
            while (i + n < stmts.size() && fusable[i + n] &&
                   n < laneFuseStatements &&
                   body.size() + stmts[i + n].size() < laneFuseBytes) {
                body += stmts[i + n];
                ++n;
            }
        }
        out.push_back(open + body + "  }\n");
        i += n;
    }
    return out;
}

/**
 * Group statements into `void cppsim_<stem>_chunk<i>(...)` function
 * definitions of at most `chunk` statements each (one schedule node or
 * one primitive's clock block never splits). Chunking keeps any single
 * function small enough that the host compiler's optimizer stays
 * roughly linear on six-figure-statement designs, and gives the JIT
 * driver natural seams for splitting the module into shards it can
 * compile in parallel (the functions have external linkage; every
 * shard sees the declarations in the common prologue).
 */
std::vector<std::string>
buildChunks(const std::string &stem, const std::vector<std::string> &stmts,
            size_t chunk, bool restrict_args)
{
    // `__restrict` on lane chunks: `vals` is a dedicated plane buffer
    // that never overlaps the instance state, but the vectorizer can't
    // prove that and drops several lane loops to scalar without it.
    const char *sig = restrict_args
                          ? "(CppsimInst *__restrict s, uint64_t *__restrict "
                            "vals) {\n"
                          : "(CppsimInst *s, uint64_t *vals) {\n";
    std::vector<std::string> fns;
    size_t i = 0;
    while (i < stmts.size()) {
        std::string fn = "void cppsim_" + stem + "_chunk" +
                         std::to_string(fns.size()) + sig +
                         "  (void)s; (void)vals;\n";
        size_t end = std::min(stmts.size(), i + chunk);
        size_t body = 0;
        for (; i < end; ++i) {
            // Byte cap too: several compiler passes are superlinear in
            // function size, and one statement can be a multi-KB mux
            // block — a count-only cap still produced functions the
            // host compiler took minutes on. A lone oversized
            // statement still becomes its own chunk.
            if (body > 0 && body + stmts[i].size() > cppsimChunkBytes)
                break;
            body += stmts[i].size();
            fn += stmts[i];
        }
        fn += "}\n";
        fns.push_back(std::move(fn));
    }
    return fns;
}

std::string
chunkDecls(const std::string &stem, size_t count, bool restrict_args)
{
    std::string s;
    for (size_t i = 0; i < count; ++i) {
        s += "void cppsim_" + stem + "_chunk" + std::to_string(i) +
             (restrict_args
                  ? "(CppsimInst *__restrict s, uint64_t *__restrict vals);\n"
                  : "(CppsimInst *s, uint64_t *vals);\n");
    }
    return s;
}

void
emitDispatcher(std::ostream &os, const std::string &stem, size_t count,
               const std::string &errRef = "s->err")
{
    os << "static void cppsim_" << stem
       << "_all(CppsimInst *s, uint64_t *vals) {\n";
    if (count == 0)
        os << "  (void)s; (void)vals;\n";
    for (size_t c = 0; c < count; ++c) {
        os << "  cppsim_" << stem << "_chunk" << c << "(s, vals);\n";
        os << "  if (" << errRef << ") return;\n";
    }
    os << "}\n";
}

} // namespace

void
emitCppSim(const SimProgram &prog, std::ostream &os,
           const CppSimOptions &opts)
{
    rejectGroups(prog.root());
    if (opts.lanes == 0)
        fatal("cppsim: lanes must be >= 1");
    if (opts.probe && opts.lanes > 1) {
        fatal("cppsim: probe observers are single-stimulus; a lane "
              "module (lanes=", opts.lanes,
              ") cannot carry one (see docs/simulation.md)");
    }
    if (opts.probe && opts.partitions > 1) {
        fatal("cppsim: a partitioned module (partitions=",
              opts.partitions,
              ") cannot carry a probe; partitioned runs notify "
              "observers host-side after the partitions join (see "
              "docs/simulation.md)");
    }
    if (opts.lanes > 1 && opts.partitions > 1) {
        fatal("cppsim: a lane module (lanes=", opts.lanes,
              ") cannot be partitioned; batched runs spread their tiles "
              "over threads instead (see docs/simulation.md)");
    }

    Codegen cg(prog);
    cg.L = opts.lanes;

    cg.drivers.assign(cg.numPorts, {});
    prog.forEachAssignment([&](const SAssign &a, bool continuous) {
        if (continuous)
            cg.drivers[a.dst].push_back(&a);
    });

    collectPrims(cg);

    cg.computed.assign(cg.numPorts, 0);
    for (uint32_t p = 0; p < cg.numPorts; ++p) {
        if (!cg.drivers[p].empty() || cg.sched.modelOf(p))
            cg.computed[p] = 1;
    }
    foldConstants(cg);

    // Macro-task partition (the host rebuilds the same plan shape from
    // the emitted dependency tables). Built before the guard pool so
    // pool entries can be scoped per partition.
    sim::PartitionPlan plan;
    if (opts.partitions > 1) {
        plan = sim::buildPartitionPlan(prog, cg.sched, opts.partitions,
                                       1);
        if (plan.tasks.empty())
            plan.tasks.emplace_back(); // degenerate empty schedule
        cg.parted = true;
        cg.taskOf = plan.taskOfNode;
    }
    const size_t nTasks = plan.tasks.size();

    buildGuardPool(cg);

    // Statement lists come first: the prologue declares every chunk
    // function, so their count must be known before anything is
    // written. eval walks the whole netlist in topological schedule
    // order — grouped per macro-task for a partitioned module, whose
    // in-order task concatenation is that same walk; clock visits
    // every stateful primitive in model order (always sequential, so
    // its errors use partition slot 0).
    std::vector<std::string> evalStmts;
    std::vector<char> evalFusable;
    std::vector<std::vector<std::string>> partFns(nTasks);
    if (cg.parted) {
        for (uint32_t t = 0; t < nTasks; ++t) {
            cg.curPart = t;
            std::vector<std::string> stmts;
            for (uint32_t n : plan.tasks[t].nodes) {
                std::string s = nodeStmt(cg, cg.sched.nodes()[n]);
                if (!s.empty())
                    stmts.push_back(std::move(s));
            }
            partFns[t] = buildChunks("evalp" + std::to_string(t), stmts,
                                     cppsimChunkStatements, false);
        }
        cg.curPart = 0;
    } else {
        for (const SimSchedule::Node &node : cg.sched.nodes()) {
            bool fus = false;
            std::string s = nodeStmt(cg, node, &fus);
            if (!s.empty()) {
                evalStmts.push_back(std::move(s));
                evalFusable.push_back(fus);
            }
        }
    }
    std::vector<std::string> clockStmts;
    std::vector<char> clockFusable;
    for (const Prim &p : cg.prims) {
        bool fus = false;
        std::string s = clockStmt(cg, p, &fus);
        if (!s.empty()) {
            clockStmts.push_back(std::move(s));
            clockFusable.push_back(fus);
        }
    }
    if (cg.L > 1) {
        if (!cg.parted)
            evalStmts = wrapLaneLoops(std::move(evalStmts), evalFusable);
        clockStmts = wrapLaneLoops(std::move(clockStmts), clockFusable);
    }
    std::vector<std::string> evalFns;
    if (!cg.parted)
        evalFns =
            buildChunks("eval", evalStmts, cppsimChunkStatements, cg.L > 1);
    std::vector<std::string> clkFns =
        buildChunks("clk", clockStmts, cppsimChunkStatements, cg.L > 1);

    bool has_sqrt = false;
    for (const Prim &p : cg.prims)
        has_sqrt |= p.cell->type() == "std_sqrt";

    // --- Common prologue. The JIT driver (sim/compiled.cc) replicates
    // everything above the first shard marker into each shard it
    // compiles in parallel, so the prologue holds only declarations
    // and the (internal-linkage) constants — single definitions live
    // in the tail segment.
    os << "// Generated by the calyx 'cppsim' backend: compiled-simulation "
          "module.\n";
    os << "// Top component: " << prog.root().comp->name().str() << " ("
       << cg.numPorts << " ports, " << cg.prims.size()
       << " primitives). Do not edit.\n";
    os << "// Lines matching '" << cppsimShardMarker
       << "' are seams where the JIT driver may\n"
          "// split this file into parallel-compiled shards; the file also "
          "compiles\n"
          "// as a single translation unit.\n";
    os << "#include <cstdint>\n#include <cstdio>\n#include <cstdlib>\n"
          "#include <cstring>\n\n";
    os << "constexpr uint32_t kNumPorts = " << cg.numPorts << ";\n";
    os << "constexpr uint32_t kNumRegs = " << cg.numRegs << ";\n";
    os << "constexpr uint32_t kNumMems = " << cg.numMems << ";\n";
    os << "constexpr uint32_t kNumGuards = " << cg.guardPool.size()
       << ";\n";
    os << "constexpr int kMaxIters = " << sim::maxCombPasses << ";\n";
    if (cg.L > 1)
        os << "constexpr uint32_t kLanes = " << cg.L << ";\n";
    if (cg.parted)
        os << "constexpr uint32_t kNumParts = " << nTasks << ";\n";
    os << "\n";

    os << "struct CppsimInst {\n";
    if (cg.L == 1) {
        os << "  uint64_t *regs[kNumRegs ? kNumRegs : 1];\n";
        os << "  uint64_t *mems[kNumMems ? kNumMems : 1];\n";
        os << "  unsigned char rdone[kNumRegs ? kNumRegs : 1];\n";
        os << "  unsigned char mdone[kNumMems ? kNumMems : 1];\n";
        os << "  uint64_t gv[kNumGuards ? kNumGuards : 1]; // guard pool\n";
    } else {
        os << "  uint64_t *regs[kNumRegs ? kNumRegs : 1]; "
              "// each -> uint64_t[kLanes]\n";
        os << "  uint64_t *mems[kNumMems ? kNumMems : 1]; "
              "// each -> uint64_t[kLanes * size], lane-major\n";
        os << "  unsigned char rdone[(kNumRegs ? kNumRegs : 1) * "
              "kLanes];\n";
        os << "  unsigned char mdone[(kNumMems ? kNumMems : 1) * "
              "kLanes];\n";
        os << "  uint64_t gv[(kNumGuards ? kNumGuards : 1) * kLanes]; "
              "// guard pool\n";
    }
    os << stateMembers(cg);
    if (cg.parted) {
        // One sticky-error slot per partition: concurrent partition
        // evals may each fail, and a shared slot would be a data race.
        // The host aggregates via cppsim_error() after the join.
        os << "  const char *perr[kNumParts];\n"
              "  char errbuf[kNumParts][192];\n";
    } else {
        os << "  const char *err;\n  char errbuf[192];\n";
    }
    if (opts.probe) {
        os << "  void (*probe)(void *, const uint64_t *);\n"
              "  void *probeCtx;\n";
    }
    os << "};\n\n";

    if (has_sqrt) {
        os << "uint64_t cppsim_isqrt(uint64_t v);\n"
              "int64_t cppsim_bits_needed(uint64_t v);\n";
    }
    if (cg.parted) {
        for (size_t t = 0; t < nTasks; ++t)
            os << chunkDecls("evalp" + std::to_string(t),
                             partFns[t].size(), false);
    } else {
        os << chunkDecls("eval", evalFns.size(), cg.L > 1);
    }
    os << chunkDecls("clk", clkFns.size(), cg.L > 1);

    // --- Shards: one chunk function per marker-delimited segment.
    // Partitioned modules emit task by task, so the driver's shard
    // split keeps each partition's chunks contiguous and the parallel
    // JIT build works on roughly the same units the runtime dispatches.
    if (cg.parted) {
        for (const auto &fns : partFns) {
            for (const std::string &fn : fns)
                os << cppsimShardMarker << "\n" << fn;
        }
    } else {
        for (const std::string &fn : evalFns)
            os << cppsimShardMarker << "\n" << fn;
    }
    for (const std::string &fn : clkFns)
        os << cppsimShardMarker << "\n" << fn;

    // --- Tail: single definitions, dispatchers, and the C ABI.
    os << cppsimShardMarker << "\n";
    if (has_sqrt) {
        os << "uint64_t cppsim_isqrt(uint64_t v) {\n"
              "  if (v == 0) return 0;\n"
              "  uint64_t x = v, y = (x + 1) / 2;\n"
              "  while (y < x) { x = y; y = (x + v / x) / 2; }\n"
              "  return x;\n}\n";
        os << "int64_t cppsim_bits_needed(uint64_t v) {\n"
              "  int64_t n = 1;\n"
              "  while (v >>= 1) ++n;\n"
              "  return n;\n}\n\n";
    }

    os << "namespace {\n\n";

    // Ports eval()/reset() write; forces must stay off these.
    os << "const unsigned char kDriven[kNumPorts] = {\n";
    for (uint32_t p = 0; p < cg.numPorts; ++p) {
        os << (cg.computed[p] ? '1' : '0') << ',';
        if (p % 32 == 31)
            os << '\n';
    }
    os << "};\n\n";

    if (cg.numMems > 0) {
        os << "const uint64_t kMemSizes[kNumMems] = {";
        bool first = true;
        for (const Prim &p : cg.prims) {
            if (p.mem < 0)
                continue;
            os << (first ? "" : ", ") << p.memSize << "ull";
            first = false;
        }
        os << "};\n\n";
    }

    if (cg.parted) {
        for (size_t t = 0; t < nTasks; ++t)
            emitDispatcher(os, "evalp" + std::to_string(t),
                           partFns[t].size(),
                           "s->perr[" + std::to_string(t) + "]");
        emitDispatcher(os, "clk", clkFns.size(), "s->perr[0]");
        os << "\n";
        os << "void (*const kPartFns[kNumParts])"
              "(CppsimInst *, uint64_t *) = {\n";
        for (size_t t = 0; t < nTasks; ++t)
            os << "  cppsim_evalp" << t << "_all,\n";
        os << "};\n\n";

        // The static execution plan: dependency CSR + per-task cost,
        // re-read by the host (CompiledModule::partitionPlan) into the
        // same PartitionPlan shape the levelized engine builds.
        os << "const uint32_t kPartDepOff[kNumParts + 1] = {";
        size_t off = 0;
        for (size_t t = 0; t < nTasks; ++t) {
            os << off << ", ";
            off += plan.tasks[t].deps.size();
        }
        os << off << "};\n";
        os << "const uint32_t kPartDeps[" << (off ? off : 1) << "] = {";
        bool first = true;
        for (const auto &task : plan.tasks) {
            for (uint32_t d : task.deps) {
                os << (first ? "" : ", ") << d;
                first = false;
            }
        }
        if (first)
            os << "0";
        os << "};\n";
        os << "const uint64_t kPartCosts[kNumParts] = {";
        for (size_t t = 0; t < nTasks; ++t)
            os << (t ? ", " : "") << plan.tasks[t].cost << "ull";
        os << "};\n\n";

        os << "const char *cppsim_err_any(CppsimInst *s) {\n"
              "  for (uint32_t t = 0; t < kNumParts; ++t)\n"
              "    if (s->perr[t]) return s->perr[t];\n"
              "  return nullptr;\n}\n\n";
    } else {
        emitDispatcher(os, "eval", evalFns.size());
        emitDispatcher(os, "clk", clkFns.size());
        os << "\n";
    }

    os << "void cppsim_do_reset(CppsimInst *s, uint64_t *vals) {\n";
    os << "  uint64_t *regs[kNumRegs ? kNumRegs : 1];\n";
    os << "  uint64_t *mems[kNumMems ? kNumMems : 1];\n";
    os << "  memcpy(regs, s->regs, sizeof regs);\n";
    os << "  memcpy(mems, s->mems, sizeof mems);\n";
    if (opts.probe) {
        os << "  void (*probe)(void *, const uint64_t *) = s->probe;\n";
        os << "  void *probeCtx = s->probeCtx;\n";
    }
    os << "  memset(s, 0, sizeof *s);\n";
    os << "  memcpy(s->regs, regs, sizeof regs);\n";
    os << "  memcpy(s->mems, mems, sizeof mems);\n";
    if (opts.probe) {
        os << "  s->probe = probe;\n";
        os << "  s->probeCtx = probeCtx;\n";
    }
    os << "  // Constant-folded ports, written once instead of per eval.\n";
    if (cg.L == 1) {
        for (uint32_t p = 0; p < cg.numPorts; ++p) {
            if (cg.folded[p])
                os << "  vals[" << p << "] = " << hexLit(cg.foldedVal[p])
                   << ";\n";
        }
    } else {
        os << "  for (uint32_t l = 0; l < kLanes; ++l) {\n";
        for (uint32_t p = 0; p < cg.numPorts; ++p) {
            if (cg.folded[p])
                os << "    " << cg.vref(p) << " = "
                   << hexLit(cg.foldedVal[p]) << ";\n";
        }
        os << "  }\n";
    }
    os << "}\n\n";

    os << "} // namespace\n\n";

    os << "extern \"C\" {\n";
    os << "uint32_t cppsim_abi() { return " << cppsimAbiVersion << "; }\n";
    os << "uint32_t cppsim_num_ports() { return kNumPorts; }\n";
    if (cg.L > 1) {
        // Scalar modules omit the symbol entirely (sources, and hence
        // cache digests, predate lane support); the loader treats its
        // absence as lanes == 1.
        os << "uint32_t cppsim_num_lanes() { return kLanes; }\n";
    }
    if (cg.parted) {
        // Same pattern for partition support: plain modules omit every
        // partition symbol, and the loader treats absence as a single
        // implicit partition.
        os << "uint32_t cppsim_num_partitions() { return kNumParts; }\n";
        os << "const uint32_t *cppsim_part_dep_offsets() "
              "{ return kPartDepOff; }\n";
        os << "const uint32_t *cppsim_part_deps() "
              "{ return kPartDeps; }\n";
        os << "const uint64_t *cppsim_part_costs() "
              "{ return kPartCosts; }\n";
    }
    os << "uint32_t cppsim_num_regs() { return kNumRegs; }\n";
    os << "uint32_t cppsim_num_mems() { return kNumMems; }\n";
    os << "uint64_t cppsim_mem_size(uint32_t i) {\n";
    if (cg.numMems > 0)
        os << "  return i < kNumMems ? kMemSizes[i] : 0;\n";
    else
        os << "  (void)i;\n  return 0;\n";
    os << "}\n";
    os << "const unsigned char *cppsim_driven() { return kDriven; }\n";
    os << "const char *cppsim_top() { return \""
       << escapeLit(prog.root().comp->name().str()) << "\"; }\n";
    os << "void *cppsim_new() { return calloc(1, sizeof(CppsimInst)); }\n";
    os << "void cppsim_free(void *s) { free(s); }\n";
    os << "void cppsim_bind(void *vs, uint64_t **regs, uint64_t **mems) {\n"
          "  CppsimInst *s = (CppsimInst *)vs;\n"
          "  for (uint32_t i = 0; i < kNumRegs; ++i) s->regs[i] = regs[i];\n"
          "  for (uint32_t i = 0; i < kNumMems; ++i) s->mems[i] = mems[i];\n"
          "}\n";
    os << "void cppsim_reset(void *s, uint64_t *vals) {\n"
          "  cppsim_do_reset((CppsimInst *)s, vals);\n}\n";
    if (opts.probe) {
        os << "void cppsim_set_probe(void *vs, "
              "void (*fn)(void *, const uint64_t *), void *ctx) {\n"
              "  CppsimInst *s = (CppsimInst *)vs;\n"
              "  s->probe = fn;\n  s->probeCtx = ctx;\n}\n";
        os << "void cppsim_eval(void *vs, uint64_t *vals) {\n"
              "  CppsimInst *s = (CppsimInst *)vs;\n"
              "  if (s->err) return;\n"
              "  cppsim_eval_all(s, vals);\n"
              "  if (!s->err && s->probe) s->probe(s->probeCtx, vals);\n}\n";
    } else if (cg.parted) {
        // The in-order loop over every task is exactly the classic
        // full-schedule walk — the plan-free host entry point. The
        // per-task entry checks only its *own* error slot: peeking at
        // another partition's slot mid-run would itself be a race.
        os << "void cppsim_eval(void *vs, uint64_t *vals) {\n"
              "  CppsimInst *s = (CppsimInst *)vs;\n"
              "  if (cppsim_err_any(s)) return;\n"
              "  for (uint32_t t = 0; t < kNumParts; ++t) {\n"
              "    kPartFns[t](s, vals);\n"
              "    if (s->perr[t]) return;\n"
              "  }\n}\n";
        os << "void cppsim_eval_partition(void *vs, uint64_t *vals, "
              "uint32_t i) {\n"
              "  CppsimInst *s = (CppsimInst *)vs;\n"
              "  if (i >= kNumParts || s->perr[i]) return;\n"
              "  kPartFns[i](s, vals);\n}\n";
    } else {
        os << "void cppsim_eval(void *s, uint64_t *vals) {\n"
              "  if (((CppsimInst *)s)->err) return;\n"
              "  cppsim_eval_all((CppsimInst *)s, vals);\n}\n";
    }
    if (cg.parted) {
        os << "void cppsim_clock(void *vs, uint64_t *vals) {\n"
              "  CppsimInst *s = (CppsimInst *)vs;\n"
              "  if (cppsim_err_any(s)) return;\n"
              "  cppsim_clk_all(s, vals);\n}\n";
        os << "const char *cppsim_error(void *s) { "
              "return cppsim_err_any((CppsimInst *)s); }\n";
    } else {
        os << "void cppsim_clock(void *s, uint64_t *vals) {\n"
              "  if (((CppsimInst *)s)->err) return;\n"
              "  cppsim_clk_all((CppsimInst *)s, vals);\n}\n";
        os << "const char *cppsim_error(void *s) { "
              "return ((CppsimInst *)s)->err; }\n";
    }
    os << "} // extern \"C\"\n";
}

void
CppSimBackend::emit(const Context &ctx, std::ostream &os) const
{
    sim::SimProgram prog(ctx, ctx.entrypoint());
    emitCppSim(prog, os);
}

namespace {

BackendRegistration<CppSimBackend> reg{
    "cppsim",
    "compiled-simulation C++ module (JIT input for --sim-engine=compiled)",
    ".cc", true};

} // namespace

} // namespace calyx::emit
