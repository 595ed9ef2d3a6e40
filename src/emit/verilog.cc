#include "emit/verilog.h"

#include "support/error.h"

namespace calyx::emit {

namespace {

std::string
wireName(const PortRef &p)
{
    switch (p.kind) {
      case PortRef::Kind::This:
        return p.port;
      case PortRef::Kind::Cell:
        return p.parent + "_" + p.port;
      case PortRef::Kind::Const:
        return std::to_string(p.width) + "'d" + std::to_string(p.value);
      case PortRef::Kind::Hole:
        fatal("verilog backend: residual hole ", p.str(),
              " (run RemoveGroups first)");
    }
    panic("bad PortRef kind");
}

std::string
verilogGuard(const GuardPtr &g)
{
    switch (g->kind()) {
      case Guard::Kind::True:
        return "1'd1";
      case Guard::Kind::Port:
        return wireName(g->port());
      case Guard::Kind::Not:
        return "~(" + verilogGuard(g->left()) + ")";
      case Guard::Kind::And:
        return "(" + verilogGuard(g->left()) + " & " +
               verilogGuard(g->right()) + ")";
      case Guard::Kind::Or:
        return "(" + verilogGuard(g->left()) + " | " +
               verilogGuard(g->right()) + ")";
      case Guard::Kind::Cmp:
        return "(" + wireName(g->lhs()) + " " +
               Guard::cmpOpStr(g->cmpOp()) + " " + wireName(g->rhs()) +
               ")";
    }
    panic("bad guard kind");
}

} // namespace

void
VerilogBackend::emitComponent(const Component &comp, const Context &ctx,
                              std::ostream &os)
{
    if (!comp.groups().empty())
        fatal("verilog backend: component ", comp.name(),
              " still has groups (run the compilation pipeline first)");

    // Module header.
    os << "module " << comp.name() << "(\n";
    os << "  input logic clk";
    for (const auto &p : comp.signature()) {
        os << ",\n  "
           << (p.dir == Direction::Input ? "input" : "output")
           << " logic [" << p.width - 1 << ":0] " << p.name;
    }
    os << "\n);\n";

    // Wire declarations for every cell port.
    for (const auto &cell : comp.cells()) {
        for (const auto &p : cell->portDefs()) {
            os << "  logic [" << p.width - 1 << ":0] " << cell->name()
               << "_" << p.name << ";\n";
        }
    }

    // Cell instantiations.
    for (const auto &cell : comp.cells()) {
        if (cell->isPrimitive()) {
            const PrimitiveDef &def = ctx.primitives().get(cell->type());
            os << "  " << cell->type() << " #(";
            for (size_t i = 0; i < def.params.size(); ++i) {
                if (i)
                    os << ", ";
                os << "." << def.params[i] << "(" << cell->params()[i]
                   << ")";
            }
            os << ") " << cell->name() << "(.clk(clk)";
        } else {
            os << "  " << cell->type() << " " << cell->name()
               << "(.clk(clk)";
        }
        for (const auto &p : cell->portDefs())
            os << ", ." << p.name << "(" << cell->name() << "_" << p.name
               << ")";
        os << ");\n";
    }

    // Guarded assignments become mux trees per destination.
    for (const auto &[dst, assigns] :
         groupAssignmentsByDst(comp.continuousAssignments())) {
        os << "  assign " << wireName(dst) << " =\n";
        for (const auto *a : assigns) {
            os << "    " << verilogGuard(a->guard) << " ? "
               << wireName(a->src) << " :\n";
        }
        os << "    '0;\n";
    }
    os << "endmodule\n";
}

void
VerilogBackend::emitPrimitives(const Context &ctx, std::ostream &os)
{
    os << R"(// Calyx standard primitive library.
module std_const #(parameter WIDTH = 32, parameter VALUE = 0)
  (input logic clk, output logic [WIDTH-1:0] out);
  assign out = VALUE;
endmodule

module std_wire #(parameter WIDTH = 32)
  (input logic clk, input logic [WIDTH-1:0] in,
   output logic [WIDTH-1:0] out);
  assign out = in;
endmodule

module std_slice #(parameter IN_WIDTH = 32, parameter OUT_WIDTH = 32)
  (input logic clk, input logic [IN_WIDTH-1:0] in,
   output logic [OUT_WIDTH-1:0] out);
  assign out = in[OUT_WIDTH-1:0];
endmodule

module std_pad #(parameter IN_WIDTH = 32, parameter OUT_WIDTH = 32)
  (input logic clk, input logic [IN_WIDTH-1:0] in,
   output logic [OUT_WIDTH-1:0] out);
  assign out = {{(OUT_WIDTH-IN_WIDTH){1'b0}}, in};
endmodule

module std_not #(parameter WIDTH = 32)
  (input logic clk, input logic [WIDTH-1:0] in,
   output logic [WIDTH-1:0] out);
  assign out = ~in;
endmodule

module std_reg #(parameter WIDTH = 32)
  (input logic clk, input logic [WIDTH-1:0] in, input logic write_en,
   output logic [WIDTH-1:0] out, output logic done);
  always_ff @(posedge clk) begin
    if (write_en) begin out <= in; done <= 1'd1; end
    else done <= 1'd0;
  end
endmodule

module std_mem_d1 #(parameter WIDTH = 32, parameter SIZE = 16,
                    parameter IDX_SIZE = 4)
  (input logic clk, input logic [IDX_SIZE-1:0] addr0,
   input logic [WIDTH-1:0] write_data, input logic write_en,
   output logic [WIDTH-1:0] read_data, output logic done,
   input logic [IDX_SIZE-1:0] addr0_1,
   output logic [WIDTH-1:0] read_data_1);
  logic [WIDTH-1:0] mem[SIZE-1:0];
  assign read_data = mem[addr0];
  assign read_data_1 = mem[addr0_1];
  always_ff @(posedge clk) begin
    if (write_en) begin mem[addr0] <= write_data; done <= 1'd1; end
    else done <= 1'd0;
  end
endmodule

module std_mem_d2 #(parameter WIDTH = 32, parameter D0_SIZE = 4,
                    parameter D1_SIZE = 4, parameter D0_IDX_SIZE = 2,
                    parameter D1_IDX_SIZE = 2)
  (input logic clk, input logic [D0_IDX_SIZE-1:0] addr0,
   input logic [D1_IDX_SIZE-1:0] addr1,
   input logic [WIDTH-1:0] write_data, input logic write_en,
   output logic [WIDTH-1:0] read_data, output logic done,
   input logic [D0_IDX_SIZE-1:0] addr0_1,
   input logic [D1_IDX_SIZE-1:0] addr1_1,
   output logic [WIDTH-1:0] read_data_1);
  logic [WIDTH-1:0] mem[D0_SIZE*D1_SIZE-1:0];
  assign read_data = mem[addr0 * D1_SIZE + addr1];
  assign read_data_1 = mem[addr0_1 * D1_SIZE + addr1_1];
  always_ff @(posedge clk) begin
    if (write_en) begin
      mem[addr0 * D1_SIZE + addr1] <= write_data; done <= 1'd1;
    end else done <= 1'd0;
  end
endmodule

module std_mult_pipe #(parameter WIDTH = 32)
  (input logic clk, input logic [WIDTH-1:0] left,
   input logic [WIDTH-1:0] right, input logic go,
   output logic [WIDTH-1:0] out, output logic done);
  logic [WIDTH-1:0] a, b;
  logic [2:0] count;
  logic busy;
  always_ff @(posedge clk) begin
    done <= 1'd0;
    if (busy) begin
      count <= count - 3'd1;
      if (count == 3'd1) begin
        out <= a * b; busy <= 1'd0; done <= 1'd1;
      end
    end else if (go) begin
      a <= left; b <= right; busy <= 1'd1; count <= 3'd3;
    end
  end
endmodule

module std_div_pipe #(parameter WIDTH = 32)
  (input logic clk, input logic [WIDTH-1:0] left,
   input logic [WIDTH-1:0] right, input logic go,
   output logic [WIDTH-1:0] out_quotient,
   output logic [WIDTH-1:0] out_remainder, output logic done);
  logic [WIDTH-1:0] a, b;
  logic [3:0] count;
  logic busy;
  always_ff @(posedge clk) begin
    done <= 1'd0;
    if (busy) begin
      count <= count - 4'd1;
      if (count == 4'd1) begin
        out_quotient <= (b == 0) ? '1 : a / b;
        out_remainder <= (b == 0) ? a : a % b;
        busy <= 1'd0; done <= 1'd1;
      end
    end else if (go) begin
      a <= left; b <= right; busy <= 1'd1; count <= 4'd7;
    end
  end
endmodule

)";
    // Binary / comparison primitives share a template.
    struct Entry
    {
        const char *name;
        const char *expr;
        bool cmp;
    };
    static const Entry entries[] = {
        {"std_add", "left + right", false},
        {"std_sub", "left - right", false},
        {"std_and", "left & right", false},
        {"std_or", "left | right", false},
        {"std_xor", "left ^ right", false},
        {"std_lsh", "left << right", false},
        {"std_rsh", "left >> right", false},
        {"std_eq", "left == right", true},
        {"std_neq", "left != right", true},
        {"std_lt", "left < right", true},
        {"std_gt", "left > right", true},
        {"std_le", "left <= right", true},
        {"std_ge", "left >= right", true},
    };
    for (const auto &e : entries) {
        os << "module " << e.name << " #(parameter WIDTH = 32)\n"
           << "  (input logic clk, input logic [WIDTH-1:0] left,\n"
           << "   input logic [WIDTH-1:0] right,\n"
           << "   output logic " << (e.cmp ? "" : "[WIDTH-1:0] ")
           << "out);\n"
           << "  assign out = " << e.expr << ";\n"
           << "endmodule\n\n";
    }
    // Extern primitives: reference their implementation file.
    for (const auto &[name, def] : ctx.primitives().all()) {
        if (!def.externFile.empty())
            os << "// extern primitive " << name << " provided by "
               << def.externFile << "\n";
    }
}

void
VerilogBackend::emit(const Context &ctx, std::ostream &os) const
{
    emitPrimitives(ctx, os);
    for (const auto &comp : ctx.components()) {
        emitComponent(*comp, ctx, os);
        os << "\n";
    }
}

namespace {
BackendRegistration<VerilogBackend> registration{
    "verilog", "Synthesizable SystemVerilog (lowered programs only)",
    ".sv", /*requires_lowered=*/true};
} // namespace

} // namespace calyx::emit
