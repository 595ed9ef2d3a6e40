#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "emit/json_netlist.h"
#include "helpers.h"
#include "ir/builder.h"
#include "support/error.h"
#include "support/json.h"

namespace calyx {
namespace {

using emit::JsonNetlistBackend;
using emit::loadJsonNetlist;
using testing::counterProgram;

/** Program with a memory: while (i < 4) { m[i] = 9; i += 1 }. */
Context
memProgram()
{
    Context ctx;
    auto b = ComponentBuilder::create(ctx, "main");
    b.mem1d("m", 32, 4);
    b.reg("i", 3);
    b.add("addi", 3);
    b.cell("lt", "std_lt", {3});
    b.cell("ia", "std_slice", {3, 2});
    Component &comp = b.component();
    comp.continuousAssignments().emplace_back(cellPort("ia", "in"),
                                              cellPort("i", "out"));

    Group &store = b.group("store");
    store.add(cellPort("m", "addr0"), cellPort("ia", "out"));
    store.add(cellPort("m", "write_data"), constant(9, 32));
    store.add(cellPort("m", "write_en"), constant(1, 1));
    store.add(store.doneHole(), cellPort("m", "done"));

    Group &incr = b.group("incr");
    incr.add(cellPort("addi", "left"), cellPort("i", "out"));
    incr.add(cellPort("addi", "right"), constant(1, 3));
    incr.add(cellPort("i", "in"), cellPort("addi", "out"));
    incr.add(cellPort("i", "write_en"), constant(1, 1));
    incr.add(incr.doneHole(), cellPort("i", "done"));

    Group &cond = b.group("cond");
    cond.add(cellPort("lt", "left"), cellPort("i", "out"));
    cond.add(cellPort("lt", "right"), constant(4, 3));
    cond.add(cond.doneHole(), constant(1, 1));

    std::vector<ControlPtr> body;
    body.push_back(ComponentBuilder::enable("store"));
    body.push_back(ComponentBuilder::enable("incr"));
    comp.setControl(ComponentBuilder::whileStmt(
        cellPort("lt", "out"), "cond",
        ComponentBuilder::seq(std::move(body))));
    return ctx;
}

TEST(JsonNetlist, RefusesUncompiledComponents)
{
    Context ctx = counterProgram(2, 1);
    EXPECT_THROW(JsonNetlistBackend().emitString(ctx), Error);
}

TEST(JsonNetlist, EmitsWellFormedDocument)
{
    Context ctx = counterProgram(2, 1);
    passes::runPipeline(ctx, "default");
    std::string text = JsonNetlistBackend().emitString(ctx);

    json::Value doc = json::parse(text);
    EXPECT_EQ(doc.at("format").asStr(), "calyx-netlist");
    EXPECT_EQ(doc.at("version").asNum(), 1u);
    EXPECT_EQ(doc.at("entrypoint").asStr(), "main");
    ASSERT_EQ(doc.at("components").items().size(), 1u);
    const json::Value &main = doc.at("components").items()[0];
    EXPECT_EQ(main.at("name").asStr(), "main");
    EXPECT_FALSE(main.at("cells").items().empty());
    EXPECT_FALSE(main.at("assignments").items().empty());
}

TEST(JsonNetlist, RoundTripPreservesCyclesAndRegisters)
{
    // In-memory compile + simulate.
    Context ctx = counterProgram(5, 3);
    passes::runPipeline(ctx, "all");
    sim::SimProgram sp(ctx, "main");
    sim::CycleSim cs(sp);
    uint64_t cycles = cs.run();
    uint64_t x = *sp.findModel("x")->registerValue();
    EXPECT_EQ(x, 15u); // 5 iterations adding 3

    // Emit -> load -> simulate the reloaded netlist.
    std::string text = JsonNetlistBackend().emitString(ctx);
    Context loaded = loadJsonNetlist(text);
    sim::SimProgram sp2(loaded, "main");
    sim::CycleSim cs2(sp2);
    uint64_t cycles2 = cs2.run();

    EXPECT_EQ(cycles2, cycles);
    EXPECT_EQ(*sp2.findModel("x")->registerValue(), x);
    EXPECT_EQ(*sp2.findModel("i")->registerValue(),
              *sp.findModel("i")->registerValue());
}

TEST(JsonNetlist, RoundTripPreservesMemoryState)
{
    Context ctx = memProgram();
    passes::runPipeline(ctx, "default");
    sim::SimProgram sp(ctx, "main");
    sim::CycleSim cs(sp);
    uint64_t cycles = cs.run();

    // The document is compact: one line plus the final newline.
    std::string text = JsonNetlistBackend().emitString(ctx);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
    EXPECT_EQ(text.back(), '\n');
    // The loader reads the compact form and an indented one alike.
    std::ostringstream indented;
    json::parse(text).write(indented);
    for (const std::string &form : {text, indented.str()}) {
        Context loaded = loadJsonNetlist(form);
        sim::SimProgram sp2(loaded, "main");
        sim::CycleSim cs2(sp2);
        uint64_t cycles2 = cs2.run();

        EXPECT_EQ(cycles2, cycles);
        EXPECT_EQ(*sp.findModel("m")->memory(),
                  *sp2.findModel("m")->memory());
        EXPECT_EQ((*sp2.findModel("m")->memory())[0], 9u);
    }
}

TEST(JsonNetlist, EmitLoadEmitIsAFixpoint)
{
    Context ctx = counterProgram(3, 2);
    passes::runPipeline(ctx, "all");
    std::string first = JsonNetlistBackend().emitString(ctx);
    Context loaded = loadJsonNetlist(first);
    EXPECT_EQ(JsonNetlistBackend().emitString(loaded), first);
}

TEST(JsonNetlist, HierarchicalDesignRoundTrips)
{
    Context ctx;
    auto pb = ComponentBuilder::create(ctx, "pe");
    pb.reg("r", 8);
    pb.regWriteGroup("w", "r", constant(3, 8));
    pb.component().setControl(ComponentBuilder::enable("w"));
    auto mb = ComponentBuilder::create(ctx, "main");
    mb.cell("p0", "pe", {});
    Group &inv = mb.group("invoke");
    inv.add(cellPort("p0", "go"), constant(1, 1));
    inv.add(inv.doneHole(), cellPort("p0", "done"));
    mb.component().setControl(ComponentBuilder::enable("invoke"));
    passes::runPipeline(ctx, "default");

    sim::SimProgram sp(ctx, "main");
    sim::CycleSim cs(sp);
    uint64_t cycles = cs.run();

    Context loaded =
        loadJsonNetlist(JsonNetlistBackend().emitString(ctx));
    sim::SimProgram sp2(loaded, "main");
    sim::CycleSim cs2(sp2);
    EXPECT_EQ(cs2.run(), cycles);
    EXPECT_EQ(*sp2.findModel("p0/r")->registerValue(), 3u);
}

TEST(JsonNetlist, LoaderRejectsMalformedDocuments)
{
    EXPECT_THROW(loadJsonNetlist("not json"), Error);
    EXPECT_THROW(loadJsonNetlist("{}"), Error);
    EXPECT_THROW(
        loadJsonNetlist(R"({"format": "something-else", "version": 1})"),
        Error);
    EXPECT_THROW(
        loadJsonNetlist(
            R"({"format": "calyx-netlist", "version": 999,
                "entrypoint": "main", "components": []})"),
        Error);
    // Port directions are validated, not defaulted.
    EXPECT_THROW(
        loadJsonNetlist(
            R"({"format": "calyx-netlist", "version": 1,
                "entrypoint": "main", "extern_primitives": [],
                "components": [{"name": "main",
                  "signature": [{"name": "x", "width": 8, "dir": "in"}],
                  "cells": [], "assignments": []}]})"),
        Error);
    // Widths outside [1, 64] are rejected before they are narrowed, at
    // every width the loader reads: a 0-wide port, a port of 2^32 + 1
    // bits, a register of 2^32 + 32 bits, an extern port and a
    // constant of 2^32 + 1 bits. So is a constant of 2^64 + 5.
    auto doc = [](const std::string &externs, const std::string &sig,
                  const std::string &cells, const std::string &assigns) {
        return R"({"format": "calyx-netlist", "version": 1,
                   "entrypoint": "main", "extern_primitives": [)" +
               externs + R"(], "components": [{"name": "main",
                   "signature": [)" +
               sig + R"(], "cells": [)" + cells +
               R"(], "assignments": [)" + assigns + "]}]}";
    };
    const std::string reg =
        R"({"name": "r", "type": "std_reg", "params": [64]})";
    auto assign = [](const std::string &width, const std::string &value) {
        return R"({"dst": {"kind": "cell", "cell": "r", "port": "in"},
                   "src": {"kind": "const", "width": )" +
               width + R"(, "value": )" + value + "}}";
    };
    EXPECT_NO_THROW(loadJsonNetlist(doc("", "", reg, assign("64", "5"))));
    for (const std::string &bad : {
             doc("", R"({"name": "x", "width": 0, "dir": "input"})", "",
                 ""),
             doc("",
                 R"({"name": "x", "width": 4294967297, "dir": "input"})",
                 "", ""),
             doc("", "",
                 R"({"name": "r", "type": "std_reg",
                     "params": [4294967328]})",
                 ""),
             doc(R"({"name": "ext", "file": "ext.sv", "params": [],
                     "ports": [{"name": "o", "dir": "output",
                                "width": 4294967297}]})",
                 "", "", ""),
             doc("", "", reg, assign("4294967297", "1")),
             doc("", "", reg, assign("64", "18446744073709551621")),
         }) {
        EXPECT_THROW(loadJsonNetlist(bad), Error) << bad;
    }
}

} // namespace
} // namespace calyx
