#include "emit/cppsim.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/primitives.h"
#include "sim/env.h"
#include "sim/schedule.h"
#include "support/bits.h"
#include "support/error.h"

namespace calyx::emit {

namespace {

using sim::GuardDag;
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
    int reg = -1;     ///< Register slot, or -1.
    int mem = -1;     ///< Memory slot, or -1.
    uint64_t memSize = 0;
    std::vector<uint64_t> memDims;
    const char *pipes = nullptr; ///< Pipe-state array, or null.
    int pipe = -1;               ///< Index into `pipes`.
};

/** Pipelined primitives keep their state in the instance struct, one
 * `CppsimPipe` array per kind, so a rerolled loop can index it. */
struct PipeKind
{
    const char *type, *array;
};
constexpr PipeKind pipeKinds[] = {{"std_mult_pipe", "mults"},
                                  {"std_div_pipe", "divs"},
                                  {"std_sqrt", "sqrts"}};

/** Children of a guard DAG node: one for Not, two for And/Or. */
int
arity(SExpr::Op op)
{
    if (op == SExpr::Op::Not)
        return 1;
    return op == SExpr::Op::And || op == SExpr::Op::Or ? 2 : 0;
}

/** Guard trees above this many nodes compile through block locals
 * instead of one inline expression. Below it, inline composition is
 * both smaller and faster; above it (FSM range-check chains reach
 * hundreds of nodes) expression nesting depth and repeated subtrees
 * dominate. */
constexpr uint64_t guardInlineNodes = 64;

/**
 * Everything the codegen needs, resolved once: drivers per port,
 * primitive cells in model order, constant-folded port values, and the
 * tree size of every guard DAG node.
 */
struct Codegen
{
    const SimProgram &prog;
    const SimSchedule &sched;
    const GuardDag &dag;
    uint32_t numPorts;
    uint32_t L = 1; ///< Stimulus lanes (CppSimOptions::lanes).

    std::vector<std::vector<const SAssign *>> drivers;
    std::vector<Prim> prims; ///< In SimProgram::models() order.

    std::vector<uint8_t> computed; ///< eval() (or reset()) writes it.
    std::vector<uint8_t> folded;   ///< Compile-time constant.
    std::vector<uint64_t> foldedVal;

    /// Per DAG node: the nodes of the guard tree rooted there.
    std::vector<uint64_t> treeSize;

    /// Shared guard value pool (see buildGuardPool): big guard root →
    /// its `gv[]` slot and the assignment whose statement writes it.
    struct Slot
    {
        uint32_t index;
        const SAssign *writer;
    };
    std::unordered_map<uint32_t, Slot> slots;

    int numRegs = 0, numMems = 0;
    int numPipes[std::size(pipeKinds)] = {};

    explicit Codegen(const SimProgram &p)
        : prog(p), sched(p.schedule()), dag(p.guardDag()),
          numPorts(static_cast<uint32_t>(p.numPorts())),
          treeSize(dag.nodes.size())
    {
        // Postorder interning: children precede their parents.
        for (size_t id = 0; id < dag.nodes.size(); ++id) {
            const SExpr::Node &n = dag.nodes[id];
            int k = arity(n.op);
            treeSize[id] = 1 + (k > 0 ? treeSize[n.a] : 0) +
                           (k > 1 ? treeSize[n.b] : 0);
        }
    }

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

void
collectPrims(Codegen &cg)
{
    for (const SimProgram::ModelCell &mc : cg.prog.modelCells()) {
        const Cell &cell = *mc.cell;
        Prim p;
        p.cell = &cell;
        p.path = mc.path.str();
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
        for (size_t k = 0; k < std::size(pipeKinds); ++k) {
            if (t == pipeKinds[k].type) {
                p.pipes = pipeKinds[k].array;
                p.pipe = cg.numPipes[k]++;
            }
        }
        cg.prims.push_back(std::move(p));
    }
}

/**
 * Guard DAG node `n` as branchless 0/1 integer arithmetic over its
 * children's text `a` and `b`. `inl` renders it for nesting inside a
 * bigger expression; otherwise it is the initializer of a block local.
 * True and constant-folded port leaves are the literals "1" and "0".
 */
std::string
nodeText(const Codegen &cg, const SExpr::Node &n, const std::string &a,
         const std::string &b, bool inl)
{
    // Comparison leaves Eq..Geq, in SExpr::Op order.
    static const char *const cmp[] = {"==", "!=", "<", ">", "<=", ">="};
    std::string s;
    switch (n.op) {
      case SExpr::Op::True:
        return "1";
      case SExpr::Op::Port:
        if (cg.folded[n.a])
            return (cg.foldedVal[n.a] & 1) ? "1" : "0";
        s = cg.vref(n.a) + " & 1";
        break;
      case SExpr::Op::Not:
        s = a + " ^ 1";
        break;
      case SExpr::Op::And:
      case SExpr::Op::Or:
        s = a + (n.op == SExpr::Op::And ? " & " : " | ") + b;
        break;
      default:
        s = (n.aImm ? hexLit(n.immA) : cg.val(n.a)) + " " +
            cmp[static_cast<int>(n.op) - static_cast<int>(SExpr::Op::Eq)] +
            " " + (n.bImm ? hexLit(n.immB) : cg.val(n.b));
        if (!inl)
            return s;
        // Lane form avoids a bool-typed intermediate: GCC refuses to
        // vectorize `(uint64_t)(a == b)` when the result feeds integer
        // arithmetic ("bit-precision conversion"), but the select form
        // if-converts to a mask cleanly.
        if (cg.L > 1)
            return "(" + s + " ? 1ull : 0ull)";
        return "(uint64_t)(" + s + ")";
    }
    return inl ? "(" + s + ")" : s;
}

/**
 * Guards of one emitted statement, read from SimProgram::guardDag(). A
 * guard of up to guardInlineNodes tree nodes becomes one inline
 * expression. A bigger one (FSM range checks repeat `go & !done` in
 * every disjunct, and whole disjuncts recur across drivers) compiles
 * to one `uint64_t tN` local per DAG node, keyed by node id, so each
 * subterm shared within the statement is computed once.
 */
struct GuardWriter
{
    const Codegen &cg;
    std::string ind;   ///< Indentation for emitted locals.
    std::string stmts{}; ///< Accumulated "uint64_t tN = ...;" lines.
    std::unordered_map<uint32_t, std::string> locals{}; ///< Node → local.
    int next = 0;

    /** 0/1 value of guard `root`, inline or through locals by size. */
    std::string
    value(uint32_t root)
    {
        return cg.treeSize[root] > guardInlineNodes ? local(root)
                                                    : inlined(root);
    }

    /** Node `id` as one expression; guardInlineNodes bounds the depth. */
    std::string
    inlined(uint32_t id) const
    {
        const SExpr::Node &n = cg.dag.nodes[id];
        int k = arity(n.op);
        return nodeText(cg, n, k > 0 ? inlined(n.a) : "",
                        k > 1 ? inlined(n.b) : "", true);
    }

    /** The local holding node `root`, emitting the missing ones in
     * postorder on an explicit stack (a guard's height is unbounded). */
    std::string
    local(uint32_t root)
    {
        std::vector<uint32_t> stack{root};
        while (!stack.empty()) {
            uint32_t id = stack.back();
            const SExpr::Node &n = cg.dag.nodes[id];
            int k = arity(n.op);
            if (locals.count(id)) {
                stack.pop_back();
            } else if (k > 0 && !locals.count(n.a)) {
                stack.push_back(n.a);
            } else if (k > 1 && !locals.count(n.b)) {
                stack.push_back(n.b);
            } else {
                std::string text = nodeText(cg, n, k > 0 ? locals[n.a] : "",
                                            k > 1 ? locals[n.b] : "", false);
                if (text != "1" && text != "0") {
                    std::string name = "t" + std::to_string(next++);
                    stmts += ind + "uint64_t " + name + " = " + text + ";\n";
                    text = std::move(name);
                }
                locals.emplace(id, std::move(text));
                stack.pop_back();
            }
        }
        return locals[root];
    }
};

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

/** Field `field` of a pipelined primitive's `CppsimPipe`. */
std::string
memberRef(const Codegen &cg, const Prim &p, const char *field)
{
    std::string m = "s->" + std::string(p.pipes) + "[" +
                    std::to_string(p.pipe) + "]." + field;
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

/** Groups of at least this many same-shape statements are emitted as
 * one loop over a static table (rerollStmts). */
constexpr size_t rerollMin = 8;

/**
 * A statement split at its holes: every integer literal and every
 * string literal (a memory clock's cell name). Statements with equal
 * keys differ only in their holes, so one loop body runs them all.
 */
struct Shape
{
    std::string key; ///< The text, each hole as '\1' (number) or '\2'.
    std::vector<std::string> holes; ///< The literals, in text order.
};

Shape
shapeOf(const std::string &s)
{
    auto word = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    Shape sh;
    for (size_t i = 0; i < s.size();) {
        size_t j = i + 1;
        if (s[i] == '"') {
            while (j < s.size() && s[j] != '"')
                j += s[j] == '\\' ? 2 : 1;
            ++j;
            sh.key += '\2';
        } else if (std::isdigit(static_cast<unsigned char>(s[i])) &&
                   (i == 0 || !word(s[i - 1]))) {
            while (j < s.size() && word(s[j])) // digits, 0x, suffix
                ++j;
            sh.key += '\1';
        } else {
            sh.key += s[i++];
            continue;
        }
        sh.holes.push_back(s.substr(i, j - i));
        i = j;
    }
    return sh;
}

/**
 * Statements of one shape as one `for (uint32_t i = 0; i < n; ++i)`
 * loop over a function-local `static const` table, a row per statement
 * in order. A hole equal in every row stays a literal; identical
 * columns share one field. Bare decimal literals (port ids, state
 * slots) make `uint32_t` index fields, other numbers `uint64_t` value
 * fields, and strings `const char *` fields.
 */
std::string
tableLoop(const std::vector<Shape> &rows, const std::string &ind)
{
    std::vector<std::vector<std::string>> cols;
    std::vector<std::string> ref; ///< Per hole: body text.
    for (size_t h = 0; h < rows[0].holes.size(); ++h) {
        std::vector<std::string> col;
        for (const Shape &r : rows)
            col.push_back(r.holes[h]);
        if (std::count(col.begin(), col.end(), col[0]) ==
            static_cast<std::ptrdiff_t>(col.size())) {
            ref.push_back(col[0]);
            continue;
        }
        auto it = std::find(cols.begin(), cols.end(), col);
        ref.push_back("kTab[i].f" + std::to_string(it - cols.begin()));
        if (it == cols.end())
            cols.push_back(std::move(col));
    }

    std::string s = ind + "{\n" + ind + "  static const struct {";
    for (size_t f = 0; f < cols.size(); ++f) {
        const char *type = "uint32_t ";
        for (const std::string &lit : cols[f]) {
            if (lit[0] == '"')
                type = "const char *";
            else if (lit.find_first_not_of("0123456789") !=
                         std::string::npos ||
                     std::stoull(lit) > UINT32_MAX)
                type = "uint64_t ";
        }
        s += std::string(" ") + type + "f" + std::to_string(f) + ";";
    }
    s += " } kTab[] = {\n";
    for (size_t r = 0; r < rows.size(); ++r) {
        s += ind + "    {";
        for (size_t f = 0; f < cols.size(); ++f)
            s += (f ? ", " : "") + cols[f][r];
        s += "},\n";
    }
    s += ind + "  };\n" + ind + "  for (uint32_t i = 0; i < " +
         std::to_string(rows.size()) + "; ++i) {\n";
    std::string body;
    size_t h = 0;
    for (char c : rows[0].key) {
        if (body.empty() || body.back() == '\n')
            body += "    ";
        if (c == '\1' || c == '\2')
            body += ref[h++];
        else
            body += c;
    }
    return s + body + ind + "  }\n" + ind + "}\n";
}

/**
 * `stmts` with every group of at least rerollMin same-shape statements
 * emitted as one tableLoop, indented by `ind`. A group is a run of
 * consecutive statements; with `regroup`, which only statements that
 * commute may ask for, it is every statement of one shape, emitted
 * where the first one was. Statements of smaller groups stay as text.
 */
std::vector<std::string>
rerollStmts(std::vector<std::string> stmts, bool regroup,
            const std::string &ind)
{
    std::vector<Shape> shapes;
    for (const std::string &s : stmts)
        shapes.push_back(shapeOf(s));
    std::vector<std::vector<size_t>> groups;
    std::unordered_map<std::string, size_t> byKey;
    for (size_t i = 0; i < stmts.size(); ++i) {
        size_t g = groups.size();
        if (regroup)
            g = byKey.emplace(shapes[i].key, g).first->second;
        else if (g > 0 && shapes[groups.back()[0]].key == shapes[i].key)
            --g;
        if (g == groups.size())
            groups.emplace_back();
        groups[g].push_back(i);
    }
    std::vector<std::string> out;
    for (const std::vector<size_t> &g : groups) {
        if (g.size() < rerollMin) {
            for (size_t i : g)
                out.push_back(std::move(stmts[i]));
            continue;
        }
        std::vector<Shape> rows;
        for (size_t i : g)
            rows.push_back(std::move(shapes[i]));
        out.push_back(tableLoop(rows, ind));
    }
    return out;
}

/** Fan-in above which a port is emitted as a flat select chain. */
constexpr size_t selectChainMax = 8;

/**
 * The settled value of one computed port under the interpreter's
 * driver priority: drivers fold last-to-first (SimState::evalPort keeps
 * the last active assignment) over the inlined model output, then zero.
 *
 * A port with at most selectChainMax drivers whose guards need no
 * locals or slot writes comes back as one nested-select expression.
 * Otherwise the statements leaving the value in local `var` (indented
 * by `ind`) are appended to `block`, and `var` comes back. Big fan-in
 * ports (a lowered memory write mux can have thousands of drivers)
 * become a flat chain of `var = g ? src : var;` selects: the same
 * last-active-wins fold, linear work for the host compiler where a
 * 1000-deep nested conditional makes it crawl, and vector blends
 * inside a lane loop. In the scalar module each run of at least
 * rerollMin same-shape selects outside an SCC becomes one table loop
 * (rerollStmts), still in driver order, so the last active driver
 * wins. `in_scc` members never read the `gv[]` pool.
 */
std::string
portValueStmts(const Codegen &cg, uint32_t port, const std::string &var,
               const std::string &ind, bool in_scc, std::string &block)
{
    const auto &ds = cg.drivers[port];
    GuardWriter gw{cg, ind};
    std::string writes; ///< `s->gv[k] = ...;` slot writes.
    std::vector<std::string> guards(ds.size());
    for (size_t i = 0; i < ds.size(); ++i) {
        uint32_t root = ds[i]->guardRoot;
        if (root == GuardDag::alwaysTrue)
            continue; // Unconditional; no guard text needed.
        auto slot = in_scc ? cg.slots.end() : cg.slots.find(root);
        if (slot == cg.slots.end()) {
            guards[i] = gw.value(root);
            continue;
        }
        guards[i] = cg.gvRef(slot->second.index);
        if (slot->second.writer == ds[i])
            writes += ind + guards[i] + " = " + gw.local(root) + ";\n";
    }

    std::string base = "0ull";
    if (int32_t m = cg.sched.modelOf(port); m >= 0)
        base = modelOutExpr(cg, cg.prims[m], port);

    std::string stmts = gw.stmts + writes;
    if (ds.size() <= selectChainMax) {
        std::string expr = base;
        for (size_t i = 0; i < ds.size(); ++i) {
            if (guards[i].empty())
                expr = srcExpr(cg, *ds[i]); // Earlier drivers never win.
            else
                expr = "(" + guards[i] + " ? " + srcExpr(cg, *ds[i]) +
                       " : " + expr + ")";
        }
        if (stmts.empty())
            return expr;
        block += stmts + ind + "uint64_t " + var + " = " + expr + ";\n";
        return var;
    }
    block += stmts + ind + "uint64_t " + var + " = " + base + ";\n";
    std::vector<std::string> chain;
    for (size_t i = 0; i < ds.size(); ++i) {
        if (guards[i].empty())
            chain.push_back(ind + var + " = " + srcExpr(cg, *ds[i]) + ";\n");
        else
            chain.push_back(ind + var + " = " + guards[i] + " ? " +
                            srcExpr(cg, *ds[i]) + " : " + var + ";\n");
    }
    if (!in_scc && cg.L == 1)
        chain = rerollStmts(std::move(chain), false, ind);
    for (const std::string &line : chain)
        block += line;
    return var;
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
        if (ds.size() == 1 && ds[0]->guardRoot == GuardDag::alwaysTrue) {
            const SAssign *a = ds[0];
            if (a->srcConst) {
                cg.folded[p] = 1;
                cg.foldedVal[p] = a->srcValue;
            } else if (cg.folded[a->srcPort]) {
                cg.folded[p] = 1;
                cg.foldedVal[p] = cg.foldedVal[a->srcPort];
            }
        } else if (ds.empty()) {
            int32_t m = cg.sched.modelOf(p);
            if (m < 0)
                continue;
            const Prim &prim = cg.prims[m];
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
 * enable guard (hundreds of tree nodes of FSM range checks) guards
 * every assignment in the group, so it would be re-evaluated for every
 * port the group drives. Instead each guard DAG root of more than
 * guardInlineNodes tree nodes that an acyclic port reads gets a slot in
 * the generated instance's `gv[]` array, written once per eval by the
 * statement of its first reader in schedule order; every later reader
 * loads the slot. Topological order makes this sound: every reader's
 * node is scheduled after all of the guard's input ports, so by first
 * use the inputs are settled and cannot change for the rest of the
 * eval. Cyclic (SCC) members keep inline re-evaluation: their inputs
 * do change mid-loop, and the interpreter's fixed-point trajectory
 * must be reproduced exactly.
 */
void
buildGuardPool(Codegen &cg)
{
    for (const SimSchedule::Node &node : cg.sched.nodes()) {
        if (node.cyclic)
            continue;
        uint32_t p = cg.sched.memberPorts()[node.first];
        if (cg.folded[p] || !cg.computed[p])
            continue;
        for (const SAssign *a : cg.drivers[p]) {
            uint32_t root = a->guardRoot;
            if (root != GuardDag::alwaysTrue &&
                cg.treeSize[root] > guardInlineNodes) {
                auto index = static_cast<uint32_t>(cg.slots.size());
                cg.slots.emplace(root, Codegen::Slot{index, a});
            }
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
        std::string block;
        std::string v = portValueStmts(cg, p, "v", "    ", false, block);
        if (!block.empty())
            return "  {\n" + block + "    " + cg.vref(p) + " = v;\n  }\n";
        std::string stmt = "  " + cg.vref(p) + " = " + v + ";\n";
        // Memory reads are indexed (gather) loads the vectorizer
        // refuses; fusing one into a lane loop of otherwise clean
        // selects makes the whole loop scalar. Isolate them.
        if (fusable)
            *fusable = cg.L == 1 || stmt.find("s->mems[") == std::string::npos;
        return stmt;
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
    s += "        s->err = \"combinational cycle did not settle after "
         "256 iterations; ports on the cycle: " +
         escapeLit(ports) + "\";\n        return;\n      }\n";
    s += "      ch = false;\n";
    for (uint32_t i = 0; i < node.count; ++i) {
        uint32_t p = mem[i];
        if (!cg.computed[p])
            continue;
        std::string pv = cg.vref(p), block;
        std::string nv = portValueStmts(cg, p, "nv", "        ", true, block);
        if (block.empty())
            block = "        uint64_t nv = " + nv + ";\n";
        s += "      {\n" + block;
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
        // Name and size are arguments, not format text, so a rerolled
        // loop reads them from its table.
        s += "      snprintf(s->errbuf, sizeof s->errbuf, \"memory %s: write "
             "to out-of-bounds address %llu (size %llu)\", \"" +
             escapeLit(p.cell->name().str()) +
             "\", (unsigned long long)a, (unsigned long long)" + size +
             ");\n      s->err = s->errbuf;\n      return;\n    }\n";
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

/** The pipe-state arrays of the generated instance struct: one
 * `CppsimPipe` array per kind that the design uses. */
std::string
pipeMembers(const Codegen &cg)
{
    std::string s;
    for (size_t k = 0; k < std::size(pipeKinds); ++k) {
        if (cg.numPipes[k] > 0) {
            s += "  CppsimPipe " + std::string(pipeKinds[k].array) + "[" +
                 std::to_string(cg.numPipes[k]) + "];\n";
        }
    }
    return s;
}

/**
 * Scalar clock statements, rerolled. A clock statement touches only
 * its own primitive's state and reads `vals`, which clock never
 * writes, so the infallible ones (registers, pipes) commute and
 * regroup by shape between two memory clocks. A memory clock fails on
 * an out-of-bounds write (it sets `err` and returns), so memory clocks
 * keep model order and only runs of them reroll: each still runs
 * after exactly the statements it ran after before.
 */
std::vector<std::string>
rerollClocks(std::vector<std::string> stmts, const std::vector<char> &fallible)
{
    std::vector<std::string> out;
    for (size_t i = 0; i < stmts.size();) {
        size_t j = i;
        while (j < stmts.size() && fallible[j] == fallible[i])
            ++j;
        std::vector<std::string> run(
            std::make_move_iterator(stmts.begin() + i),
            std::make_move_iterator(stmts.begin() + j));
        for (std::string &s : rerollStmts(std::move(run), !fallible[i], "  "))
            out.push_back(std::move(s));
        i = j;
    }
    return out;
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
 * clocks) share one loop; block statements (mux blocks, SCC fixed
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
emitDispatcher(std::ostream &os, const std::string &stem, size_t count)
{
    os << "static void cppsim_" << stem
       << "_all(CppsimInst *s, uint64_t *vals) {\n";
    if (count == 0)
        os << "  (void)s; (void)vals;\n";
    for (size_t c = 0; c < count; ++c) {
        os << "  cppsim_" << stem << "_chunk" << c << "(s, vals);\n";
        os << "  if (s->err) return;\n";
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
        if (!cg.drivers[p].empty() || cg.sched.modelOf(p) >= 0)
            cg.computed[p] = 1;
    }
    foldConstants(cg);
    buildGuardPool(cg);

    // Statement lists come first: the prologue declares every chunk
    // function, so their count must be known before anything is
    // written. eval walks the whole netlist in topological schedule
    // order; clock visits every stateful primitive in model order
    // (the scalar module's rerollClocks regroups those that commute).
    std::vector<std::string> evalStmts;
    std::vector<char> evalFusable;
    for (const SimSchedule::Node &node : cg.sched.nodes()) {
        bool fus = false;
        std::string s = nodeStmt(cg, node, &fus);
        if (!s.empty()) {
            evalStmts.push_back(std::move(s));
            evalFusable.push_back(fus);
        }
    }
    std::vector<std::string> clockStmts;
    std::vector<char> clockFusable, clockFallible;
    for (const Prim &p : cg.prims) {
        bool fus = false;
        std::string s = clockStmt(cg, p, &fus);
        if (!s.empty()) {
            clockStmts.push_back(std::move(s));
            clockFusable.push_back(fus);
            clockFallible.push_back(p.mem >= 0);
        }
    }
    if (cg.L > 1) {
        evalStmts = wrapLaneLoops(std::move(evalStmts), evalFusable);
        clockStmts = wrapLaneLoops(std::move(clockStmts), clockFusable);
    } else {
        clockStmts = rerollClocks(std::move(clockStmts), clockFallible);
    }
    std::vector<std::string> evalFns =
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
    os << "constexpr uint32_t kNumGuards = " << cg.slots.size() << ";\n";
    os << "constexpr int kMaxIters = " << sim::maxCombPasses << ";\n";
    os << "constexpr uint32_t kLanes = " << cg.L << ";\n";
    os << "\n";

    const char *d = cg.L == 1 ? "" : "[kLanes]";
    os << "// One std_mult_pipe, std_div_pipe or std_sqrt.\n"
       << "struct CppsimPipe {\n  uint64_t a" << d << ", b" << d << ", r0"
       << d << ", r1" << d << ";\n  int64_t rem" << d
       << ";\n  unsigned char busy" << d << ", done" << d << ";\n};\n\n";
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
    os << pipeMembers(cg);
    os << "  const char *err;\n  char errbuf[192];\n";
    os << "};\n\n";

    if (has_sqrt) {
        os << "uint64_t cppsim_isqrt(uint64_t v);\n"
              "int64_t cppsim_bits_needed(uint64_t v);\n";
    }
    os << chunkDecls("eval", evalFns.size(), cg.L > 1);
    os << chunkDecls("clk", clkFns.size(), cg.L > 1);

    // --- Shards: one chunk function per marker-delimited segment.
    for (const std::string &fn : evalFns)
        os << cppsimShardMarker << "\n" << fn;
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

    emitDispatcher(os, "eval", evalFns.size());
    emitDispatcher(os, "clk", clkFns.size());
    os << "\n";

    os << "void cppsim_do_reset(CppsimInst *s, uint64_t *vals) {\n";
    os << "  uint64_t *regs[kNumRegs ? kNumRegs : 1];\n";
    os << "  uint64_t *mems[kNumMems ? kNumMems : 1];\n";
    os << "  memcpy(regs, s->regs, sizeof regs);\n";
    os << "  memcpy(mems, s->mems, sizeof mems);\n";
    os << "  memset(s, 0, sizeof *s);\n";
    os << "  memcpy(s->regs, regs, sizeof regs);\n";
    os << "  memcpy(s->mems, mems, sizeof mems);\n";
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
    os << "uint32_t cppsim_num_lanes() { return kLanes; }\n";
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
    os << "void cppsim_eval(void *s, uint64_t *vals) {\n"
          "  if (((CppsimInst *)s)->err) return;\n"
          "  cppsim_eval_all((CppsimInst *)s, vals);\n}\n";
    os << "void cppsim_clock(void *s, uint64_t *vals) {\n"
          "  if (((CppsimInst *)s)->err) return;\n"
          "  cppsim_clk_all((CppsimInst *)s, vals);\n}\n";
    os << "const char *cppsim_error(void *s) { "
          "return ((CppsimInst *)s)->err; }\n";
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
