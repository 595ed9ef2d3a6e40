#include "emit/firrtl.h"

#include <map>
#include <vector>

#include "support/error.h"

namespace calyx::emit {

namespace {

/**
 * FIRRTL has no parameterized modules, so every (primitive, parameters)
 * pair used by the program becomes its own specialized module, e.g.
 * std_add(32) -> `std_add_32`.
 */
std::string
specializedName(const Cell &cell)
{
    std::string name = cell.type();
    for (uint64_t p : cell.params())
        name += "_" + std::to_string(p);
    return name;
}

std::string
uintLit(Width width, uint64_t value)
{
    return "UInt<" + std::to_string(width) + ">(" + std::to_string(value) +
           ")";
}

/** FIRRTL reference for a port operand inside a component body. */
std::string
refExpr(const PortRef &p)
{
    switch (p.kind) {
      case PortRef::Kind::This:
        return p.port;
      case PortRef::Kind::Cell:
        return p.parent + "." + p.port;
      case PortRef::Kind::Const:
        return uintLit(p.width, p.value);
      case PortRef::Kind::Hole:
        fatal("firrtl backend: residual hole ", p.str(),
              " (run RemoveGroups first)");
    }
    panic("bad PortRef kind");
}

std::string
firrtlGuard(const GuardPtr &g)
{
    switch (g->kind()) {
      case Guard::Kind::True:
        return "UInt<1>(1)";
      case Guard::Kind::Port:
        return refExpr(g->port());
      case Guard::Kind::Not:
        return "not(" + firrtlGuard(g->left()) + ")";
      case Guard::Kind::And:
        return "and(" + firrtlGuard(g->left()) + ", " +
               firrtlGuard(g->right()) + ")";
      case Guard::Kind::Or:
        return "or(" + firrtlGuard(g->left()) + ", " + firrtlGuard(g->right()) +
               ")";
      case Guard::Kind::Cmp: {
        const char *op = nullptr;
        switch (g->cmpOp()) {
          case Guard::CmpOp::Eq:  op = "eq";  break;
          case Guard::CmpOp::Neq: op = "neq"; break;
          case Guard::CmpOp::Lt:  op = "lt";  break;
          case Guard::CmpOp::Gt:  op = "gt";  break;
          case Guard::CmpOp::Leq: op = "leq"; break;
          case Guard::CmpOp::Geq: op = "geq"; break;
        }
        return std::string(op) + "(" + refExpr(g->lhs()) + ", " +
               refExpr(g->rhs()) + ")";
      }
    }
    panic("bad guard kind");
}

/** Combinational expression implementing a std_* primitive, or "". */
std::string
combBody(const std::string &type, const std::vector<uint64_t> &params)
{
    auto w = [&params](size_t i) { return params[i]; };
    if (type == "std_const")
        return uintLit(static_cast<Width>(w(0)), w(1));
    if (type == "std_wire")
        return "in";
    if (type == "std_slice")
        return "bits(in, " + std::to_string(w(1) - 1) + ", 0)";
    if (type == "std_pad")
        return "pad(in, " + std::to_string(w(1)) + ")";
    if (type == "std_not")
        return "not(in)";
    // Width-preserving arithmetic: FIRRTL add/sub/dshl grow the result,
    // so truncate back to WIDTH like the SystemVerilog semantics.
    if (type == "std_add")
        return "tail(add(left, right), 1)";
    if (type == "std_sub")
        return "tail(sub(left, right), 1)";
    if (type == "std_and")
        return "and(left, right)";
    if (type == "std_or")
        return "or(left, right)";
    if (type == "std_xor")
        return "xor(left, right)";
    if (type == "std_lsh")
        return "bits(dshl(left, right), " + std::to_string(w(0) - 1) +
               ", 0)";
    if (type == "std_rsh")
        return "dshr(left, right)";
    static const std::map<std::string, std::string> cmps = {
        {"std_eq", "eq"},   {"std_neq", "neq"}, {"std_lt", "lt"},
        {"std_gt", "gt"},   {"std_le", "leq"},  {"std_ge", "geq"},
    };
    auto it = cmps.find(type);
    if (it != cmps.end())
        return it->second + "(left, right)";
    return "";
}

void
emitPrimPorts(const Cell &cell, std::ostream &os, const std::string &indent)
{
    os << indent << "input clk : Clock\n";
    for (const auto &p : cell.portDefs()) {
        os << indent
           << (p.dir == Direction::Input ? "input " : "output ") << p.name
           << " : UInt<" << p.width << ">\n";
    }
}

/** One specialized module (or extmodule) per used primitive variant. */
void
emitPrimitiveModule(const Cell &cell, const Context &ctx, std::ostream &os)
{
    const PrimitiveDef &def = ctx.primitives().get(cell.type());
    const std::string name = specializedName(cell);

    if (cell.type() == "std_reg") {
        Width width = static_cast<Width>(cell.params()[0]);
        os << "  module " << name << " :\n";
        emitPrimPorts(cell, os, "    ");
        os << "    reg value : UInt<" << width << ">, clk\n"
           << "    reg done_reg : UInt<1>, clk\n"
           << "    done_reg <= UInt<1>(0)\n"
           << "    when write_en :\n"
           << "      value <= in\n"
           << "      done_reg <= UInt<1>(1)\n"
           << "    out <= value\n"
           << "    done <= done_reg\n";
        return;
    }

    std::string body = combBody(cell.type(), cell.params());
    if (!body.empty()) {
        os << "  module " << name << " :\n";
        emitPrimPorts(cell, os, "    ");
        os << "    out <= " << body << "\n";
        return;
    }

    // Stateful library primitives (memories, pipelined mult/div, sqrt)
    // and extern primitives: black-box onto the SystemVerilog library.
    os << "  extmodule " << name << " :\n";
    emitPrimPorts(cell, os, "    ");
    os << "    defname = " << cell.type() << "\n";
    for (size_t i = 0; i < def.params.size(); ++i)
        os << "    parameter " << def.params[i] << " = "
           << cell.params()[i] << "\n";
    if (!def.externFile.empty())
        os << "    ; implementation provided by " << def.externFile << "\n";
}

} // namespace

void
FirrtlBackend::emitComponent(const Component &comp, const Context &ctx,
                             std::ostream &os)
{
    if (!comp.groups().empty())
        fatal("firrtl backend: component ", comp.name(),
              " still has groups (run the compilation pipeline first)");

    os << "  module " << comp.name() << " :\n";
    os << "    input clk : Clock\n";
    for (const auto &p : comp.signature()) {
        os << "    " << (p.dir == Direction::Input ? "input " : "output ")
           << p.name << " : UInt<" << p.width << ">\n";
    }
    os << "\n";

    // Instances. Primitive cells instantiate their specialization;
    // component cells instantiate the component module directly.
    for (const auto &cell : comp.cells()) {
        std::string module = cell->isPrimitive() ? specializedName(*cell)
                                                 : cell->type().str();
        os << "    inst " << cell->name() << " of " << module << "\n";
        os << "    " << cell->name() << ".clk <= clk\n";
        // Inputs the program never drives stay explicitly invalid.
        for (const auto &p : cell->portDefs()) {
            if (p.dir == Direction::Input)
                os << "    " << cell->name() << "." << p.name
                   << " is invalid\n";
        }
    }
    for (const auto &p : comp.signature()) {
        if (p.dir == Direction::Output)
            os << "    " << p.name << " is invalid\n";
    }
    os << "\n";

    // Guarded assignments become mux trees per destination.
    for (const auto &[dst, assigns] :
         groupAssignmentsByDst(comp.continuousAssignments())) {
        Width width = comp.portWidth(dst);
        std::string expr = uintLit(width, 0);
        for (auto it = assigns.rbegin(); it != assigns.rend(); ++it) {
            expr = "mux(" + firrtlGuard((*it)->guard) + ", " +
                   refExpr((*it)->src) + ", " + expr + ")";
        }
        os << "    " << refExpr(dst) << " <= " << expr << "\n";
    }
}

void
FirrtlBackend::emit(const Context &ctx, std::ostream &os) const
{
    os << "circuit " << ctx.entrypoint() << " :\n";

    // Primitive specializations used anywhere in the program, deduped.
    std::map<std::string, const Cell *> variants;
    for (const auto &comp : ctx.components()) {
        for (const auto &cell : comp->cells()) {
            if (cell->isPrimitive())
                variants.try_emplace(specializedName(*cell), cell.get());
        }
    }
    for (const auto &[_, cell] : variants) {
        emitPrimitiveModule(*cell, ctx, os);
        os << "\n";
    }

    for (const auto &comp : ctx.components()) {
        emitComponent(*comp, ctx, os);
        os << "\n";
    }
}

namespace {
BackendRegistration<FirrtlBackend> registration{
    "firrtl", "FIRRTL circuit (lowered programs only)", ".fir",
    /*requires_lowered=*/true};
} // namespace

} // namespace calyx::emit
