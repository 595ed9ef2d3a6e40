#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "support/error.h"

namespace calyx {
namespace {

TEST(Parser, MinimalComponent)
{
    Context ctx = Parser::parseProgram(R"(
component main(a: 8) -> (b: 8) {
  cells { r = std_reg(8); }
  wires {
    group write {
      r.in = a;
      r.write_en = 1'd1;
      write[done] = r.done;
    }
    b = r.out;
  }
  control { write; }
}
)");
    const Component &main = ctx.component("main");
    EXPECT_TRUE(main.hasPort("a"));
    EXPECT_TRUE(main.hasPort("go"));
    ASSERT_NE(main.findCell("r"), nullptr);
    ASSERT_NE(main.findGroup("write"), nullptr);
    EXPECT_EQ(main.group("write").assignments().size(), 3u);
    EXPECT_EQ(main.continuousAssignments().size(), 1u);
    EXPECT_EQ(main.control().kind(), Control::Kind::Enable);
}

TEST(Parser, GuardsAndControl)
{
    Context ctx = Parser::parseProgram(R"(
component main() -> () {
  cells {
    r = std_reg(4);
    lt = std_lt(4);
  }
  wires {
    group a { r.in = lt.out & !r.done ? 4'd1; a[done] = r.done; }
    group b { r.in = 4'd2; r.write_en = 1'd1; b[done] = r.done; }
    group c { c[done] = 1'd1; }
  }
  control {
    seq {
      a;
      if lt.out with c { b; } else { a; }
      while lt.out with c { par { a; b; } }
    }
  }
}
)");
    const Component &main = ctx.component("main");
    const auto &seq = cast<Seq>(main.control());
    ASSERT_EQ(seq.stmts().size(), 3u);
    EXPECT_EQ(seq.stmts()[0]->kind(), Control::Kind::Enable);
    EXPECT_EQ(seq.stmts()[1]->kind(), Control::Kind::If);
    EXPECT_EQ(seq.stmts()[2]->kind(), Control::Kind::While);
    const auto &w = cast<While>(*seq.stmts()[2]);
    EXPECT_EQ(w.condGroup(), "c");
    EXPECT_EQ(w.body().kind(), Control::Kind::Par);

    // Guard structure of group a's first assignment.
    const auto &ga = main.group("a").assignments()[0];
    EXPECT_EQ(ga.guard->kind(), Guard::Kind::And);
}

TEST(Parser, Attributes)
{
    Context ctx = Parser::parseProgram(R"(
component main<"static"=3>() -> () {
  cells { r = std_reg(8); }
  wires {
    group g<"static"=1, "promote"=2> {
      r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done;
    }
  }
  control { g; }
}
)");
    const Component &main = ctx.component("main");
    EXPECT_EQ(main.staticLatency(), 3);
    EXPECT_EQ(main.group("g").staticLatency(), 1);
    EXPECT_EQ(main.group("g").attrs().get("promote"), 2);
}

TEST(Parser, ExternPrimitives)
{
    Context ctx = Parser::parseProgram(R"(
extern "sqrt.sv" {
  primitive my_sqrt[WIDTH](in: WIDTH, @go go: 1) ->
      (out: WIDTH, @done done: 1);
}
component main() -> () {
  cells { s = my_sqrt(32); }
  wires { }
  control { }
}
)");
    const PrimitiveDef &def = ctx.primitives().get("my_sqrt");
    EXPECT_EQ(def.externFile, "sqrt.sv");
    EXPECT_EQ(def.goPort, "go");
    EXPECT_EQ(def.donePort, "done");
    EXPECT_EQ(ctx.component("main").cell("s").portWidth("out"), 32u);
}

TEST(Parser, Errors)
{
    EXPECT_THROW(Parser::parseProgram("component"), Error);
    EXPECT_THROW(Parser::parseProgram("garbage"), Error);
    EXPECT_THROW(Parser::parseProgram(R"(
component main() -> () {
  cells { r = std_unknown(8); }
  wires { }
  control { }
}
)"),
                 Error);
    // Control referencing nothing still parses; wellformedness is a
    // separate pass. But syntax errors must throw:
    EXPECT_THROW(Parser::parseProgram(R"(
component main() -> () {
  cells { }
  wires { group g { x.in = ; } }
  control { }
}
)"),
                 Error);
    // Widths outside [1, 64] and decimals past 64 bits are rejected
    // before they are narrowed, not wrapped: a 0-wide port, a port of
    // 2^32 + 1 bits (which used to become 1 bit), a register of 2^32 +
    // 32 bits (which used to become 32 bits), a constant width of
    // 2^32 + 1, and a literal of 2^64 + 5 (which used to read as 5).
    for (const char *bad : {
             "component main(x: 0) -> () { cells { } wires { } "
             "control { } }",
             "component main(x: 4294967297) -> () { cells { } wires { } "
             "control { } }",
             "component main() -> () { cells { r = std_reg(4294967328); } "
             "wires { } control { } }",
             "component main() -> () { cells { r = std_reg(64); } "
             "wires { group g { r.in = 4294967297'd1; g[done] = r.done; } }"
             " control { g; } }",
             "component main() -> () { cells { r = std_reg(64); } "
             "wires { group g { r.in = 64'd18446744073709551621; "
             "g[done] = r.done; } } control { g; } }",
         }) {
        EXPECT_THROW(Parser::parseProgram(bad), Error) << bad;
    }

    // Nesting past Parser::kMaxNesting is an Error, not a stack
    // overflow: parentheses around one guard port, negations, and
    // control blocks.
    auto program = [](const std::string &guard, const std::string &ctrl) {
        return "component main() -> () { cells { r = std_reg(1); } "
               "wires { group g { r.in = " + guard + " ? 1'd1; "
               "r.write_en = 1'd1; g[done] = r.done; } } control { " +
               ctrl + " } }";
    };
    auto parens = [](int n) {
        return std::string(n, '(') + "r.out" + std::string(n, ')');
    };
    auto seqs = [](int n) {
        std::string s;
        for (int i = 0; i < n; ++i)
            s += "seq { ";
        s += "g;";
        for (int i = 0; i < n; ++i)
            s += " }";
        return s;
    };
    for (const std::string &bad : {
             program(parens(20000), "g;"),
             program(std::string(200000, '!') + "r.out", "g;"),
             program("r.out", seqs(50000)),
             program(parens(Parser::kMaxNesting + 1), "g;"),
             program(std::string(Parser::kMaxNesting + 1, '!') + "r.out",
                     "g;"),
             // The enable inside the innermost seq is one level too.
             program("r.out", seqs(Parser::kMaxNesting)),
         }) {
        try {
            Parser::parseProgram(bad);
            ADD_FAILURE() << "parsed: " << bad.substr(0, 120);
        } catch (const Error &e) {
            EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
                      std::string::npos)
                << e.what();
        }
    }
    // The deepest accepted input still fits the stack (the sanitizer
    // job runs this too, with its larger frames).
    Parser::parseProgram(program(parens(Parser::kMaxNesting), "g;"));
    Parser::parseProgram(
        program(std::string(Parser::kMaxNesting, '!') + "r.out", "g;"));
    Parser::parseProgram(program("r.out", seqs(Parser::kMaxNesting - 1)));
}

TEST(Parser, RoundTripThroughPrinter)
{
    // Build a program with every construct, print, parse, print again.
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.reg("x", 32);
    b.reg("i", 8);
    b.cell("lt", "std_lt", {8});
    b.add("a0", 32);

    Group &init = b.regWriteGroup("init", "x", constant(0, 32));
    (void)init;
    Group &cond = b.group("cond");
    cond.add(cellPort("lt", "left"), cellPort("i", "out"));
    cond.add(cellPort("lt", "right"), constant(5, 8));
    cond.add(cond.doneHole(), constant(1, 1));
    Group &step = b.group("step");
    step.add(cellPort("a0", "left"), cellPort("x", "out"));
    step.add(cellPort("a0", "right"), constant(3, 32));
    step.add(cellPort("x", "in"), cellPort("a0", "out"),
             Guard::negate(Guard::fromPort(cellPort("lt", "out"))));
    step.add(cellPort("x", "write_en"), constant(1, 1));
    step.add(step.doneHole(), cellPort("x", "done"));

    std::vector<ControlPtr> body;
    body.push_back(ComponentBuilder::enable("step"));
    std::vector<ControlPtr> top;
    top.push_back(ComponentBuilder::enable("init"));
    top.push_back(ComponentBuilder::whileStmt(
        cellPort("lt", "out"), "cond",
        ComponentBuilder::seq(std::move(body))));
    b.component().setControl(ComponentBuilder::seq(std::move(top)));

    std::string once = Printer::toString(ctx);
    Context reparsed = Parser::parseProgram(once);
    std::string twice = Printer::toString(reparsed);
    EXPECT_EQ(once, twice);
}

TEST(Parser, CommentsAndWhitespace)
{
    Context ctx = Parser::parseProgram(R"(
// leading comment
component main() -> () { /* block
comment */
  cells { } wires { } control { }
}
)");
    EXPECT_NE(ctx.findComponent("main"), nullptr);
}

} // namespace
} // namespace calyx
