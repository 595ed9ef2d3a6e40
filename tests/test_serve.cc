/**
 * The `futil --serve` stimulus-stream service (ISSUE 8): wire framing,
 * request parsing, the serve loop end to end over in-memory streams —
 * run round-trips with per-lane results, malformed-request rejection
 * that leaves the session serving, stats as the report envelope — and
 * the acceptance gate: a session sustaining 100+ stimulus-batch
 * requests against one resident compiled module without recompiling
 * (module_loads stays 1, modules_from_cache asserted on a warm
 * cache). Also the --trace/--serve flag-conflict rejection.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "emit/backend.h"
#include "ir/parser.h"
#include "passes/pipeline_spec.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/compiled.h"
#include "sim/cycle_sim.h"
#include "sim/env.h"
#include "support/error.h"
#include "support/json.h"
#include "support/pool.h"

namespace calyx {
namespace {

/** Same data-bounded loop as tests/test_batch_sim.cc: the `bound`
 * memory sets the trip count, so stimuli drive divergent control and
 * `x` retires at 3 * bound. */
const char *kDataBoundedLoop = R"(
component main() -> () {
  cells {
    bound = std_mem_d1(8, 1, 1);
    out = std_mem_d1(32, 1, 1);
    x = std_reg(32);
    i = std_reg(8);
    lt = std_lt(8);
    addx = std_add(32);
    addi = std_add(8);
  }
  wires {
    group cond {
      bound.addr0 = 1'd0;
      lt.left = i.out;
      lt.right = bound.read_data;
      cond[done] = 1'd1;
    }
    group bump_x {
      addx.left = x.out; addx.right = 32'd3;
      x.in = addx.out; x.write_en = 1'd1;
      bump_x[done] = x.done;
    }
    group bump_i {
      addi.left = i.out; addi.right = 8'd1;
      i.in = addi.out; i.write_en = 1'd1;
      bump_i[done] = i.done;
    }
    group store {
      out.addr0 = 1'd0;
      out.write_data = x.out; out.write_en = 1'd1;
      store[done] = out.done;
    }
  }
  control {
    seq {
      while lt.out with cond { seq { bump_x; bump_i; } }
      store;
    }
  }
}
)";

Context
loweredLoop()
{
    Context ctx = Parser::parseProgram(kDataBoundedLoop);
    passes::runPipeline(ctx, "all");
    return ctx;
}

std::string
frame(const std::string &payload)
{
    return std::to_string(payload.size()) + "\n" + payload;
}

/** A run request over `bounds`, one stimulus per bound value. */
std::string
runRequest(const std::vector<uint64_t> &bounds)
{
    std::string batch;
    for (uint64_t b : bounds) {
        if (!batch.empty())
            batch += ", ";
        batch += "{\"mems\": {\"bound\": [" + std::to_string(b) + "]}}";
    }
    return "{\"type\": \"run\", \"batch\": [" + batch + "]}";
}

/** Every response frame in `out`, parsed. */
std::vector<json::Value>
responses(const std::string &out)
{
    std::istringstream in(out);
    std::vector<json::Value> docs;
    std::string payload, err;
    for (;;) {
        serve::FrameStatus fs = serve::readFrame(in, payload, err);
        if (fs == serve::FrameStatus::Eof)
            break;
        EXPECT_EQ(fs, serve::FrameStatus::Ok) << err;
        if (fs != serve::FrameStatus::Ok)
            break;
        docs.push_back(json::parse(payload));
    }
    return docs;
}

TEST(ServeProtocol, FrameRoundTrip)
{
    std::ostringstream os;
    serve::writeFrame(os, "hello");
    serve::writeFrame(os, ""); // Empty payloads are legal frames.
    serve::writeFrame(os, std::string(100'000, 'x'));
    std::istringstream is(os.str());
    std::string payload, err;
    ASSERT_EQ(serve::readFrame(is, payload, err), serve::FrameStatus::Ok);
    EXPECT_EQ(payload, "hello");
    ASSERT_EQ(serve::readFrame(is, payload, err), serve::FrameStatus::Ok);
    EXPECT_EQ(payload, "");
    ASSERT_EQ(serve::readFrame(is, payload, err), serve::FrameStatus::Ok);
    EXPECT_EQ(payload.size(), 100'000u);
    EXPECT_EQ(serve::readFrame(is, payload, err), serve::FrameStatus::Eof);
}

TEST(ServeProtocol, FramingErrors)
{
    std::string payload, err;
    {
        std::istringstream is("nope\n{}");
        EXPECT_EQ(serve::readFrame(is, payload, err),
                  serve::FrameStatus::Bad);
        EXPECT_NE(err.find("non-digit"), std::string::npos) << err;
    }
    {
        std::istringstream is("10\nshort"); // Payload cut off.
        EXPECT_EQ(serve::readFrame(is, payload, err),
                  serve::FrameStatus::Bad);
        EXPECT_NE(err.find("5 of 10"), std::string::npos) << err;
    }
    {
        std::istringstream is("999999999999999\nx"); // Garbage length.
        EXPECT_EQ(serve::readFrame(is, payload, err),
                  serve::FrameStatus::Bad);
        EXPECT_NE(err.find("limit"), std::string::npos) << err;
    }
    {
        std::istringstream is("12"); // EOF inside the length line.
        EXPECT_EQ(serve::readFrame(is, payload, err),
                  serve::FrameStatus::Bad);
    }
}

TEST(ServeProtocol, ParseStimuliShapes)
{
    json::Value good = json::parse(
        R"([{"mems": {"a": [1, 2]}}, {}, {"mems": {}}])");
    auto stimuli = serve::parseStimuli(good);
    ASSERT_EQ(stimuli.size(), 3u);
    ASSERT_EQ(stimuli[0].mems.size(), 1u);
    EXPECT_EQ(stimuli[0].mems[0].first, "a");
    EXPECT_EQ(stimuli[0].mems[0].second,
              (std::vector<uint64_t>{1, 2}));
    EXPECT_TRUE(stimuli[1].mems.empty());

    EXPECT_THROW(serve::parseStimuli(json::parse("{}")), Error);
    EXPECT_THROW(serve::parseStimuli(json::parse("[42]")), Error);
    EXPECT_THROW(serve::parseStimuli(json::parse(
                     R"([{"mems": {"a": 7}}])")),
                 Error);
}

TEST(Serve, RoundTripWithMalformedRejection)
{
    Context ctx = loweredLoop();
    sim::SimProgram sp(ctx, ctx.entrypoint());

    std::istringstream in(
        frame("{\"type\": \"ping\"}") + frame(runRequest({2, 0, 5})) +
        frame("this is not json") +   // Well-framed, bad payload.
        frame("{\"type\": \"what\"}") + // Unknown request type.
        frame(runRequest({1})) +       // Still serving after rejects.
        frame("{\"type\": \"stats\"}") +
        frame("{\"type\": \"shutdown\"}"));
    std::ostringstream out;
    serve::ServeOptions opts;
    opts.batch.engine = sim::Engine::Levelized;
    opts.file = "loop.futil";
    serve::ServeStats st = serve::serve(sp, in, out, opts);

    EXPECT_EQ(st.requests, 7u);
    EXPECT_EQ(st.runs, 2u);
    EXPECT_EQ(st.stimuli, 4u);
    EXPECT_EQ(st.errors, 2u);

    auto docs = responses(out.str());
    ASSERT_EQ(docs.size(), 7u);
    EXPECT_TRUE(docs[0].at("ok").asBool());
    EXPECT_EQ(docs[0].at("result").asStr(), "pong");

    // Per-lane results in batch order: x retires at 3 * bound.
    ASSERT_TRUE(docs[1].at("ok").asBool());
    const auto &lanes = docs[1].at("result").at("lanes").items();
    ASSERT_EQ(lanes.size(), 3u);
    std::vector<uint64_t> bounds{2, 0, 5};
    for (size_t l = 0; l < lanes.size(); ++l) {
        EXPECT_EQ(lanes[l].at("regs").at("x").asNum(), 3 * bounds[l])
            << "lane " << l;
        EXPECT_EQ(lanes[l].at("mems").at("out").items()[0].asNum(),
                  3 * bounds[l])
            << "lane " << l;
        EXPECT_GT(lanes[l].at("cycles").asNum(), 0u);
    }
    // Divergent control: different bounds, different cycle counts.
    EXPECT_NE(lanes[0].at("cycles").asNum(), lanes[1].at("cycles").asNum());

    EXPECT_FALSE(docs[2].at("ok").asBool()); // Malformed JSON.
    EXPECT_FALSE(docs[3].at("ok").asBool()); // Unknown type.
    EXPECT_NE(docs[3].at("error").asStr().find("what"),
              std::string::npos);
    EXPECT_TRUE(docs[4].at("ok").asBool()); // Session kept serving.

    const json::Value &stats = docs[5].at("result");
    EXPECT_EQ(stats.at("version").asNum(), 1u); // Report envelope.
    EXPECT_EQ(stats.at("file").asStr(), "loop.futil");
    EXPECT_EQ(stats.at("serve").at("runs").asNum(), 2u);
    EXPECT_EQ(stats.at("serve").at("errors").asNum(), 2u);

    EXPECT_TRUE(docs[6].at("ok").asBool()); // Shutdown ack.
}

TEST(Serve, BrokenFramingEndsSessionWithError)
{
    Context ctx = loweredLoop();
    sim::SimProgram sp(ctx, ctx.entrypoint());
    std::istringstream in(frame("{\"type\": \"ping\"}") +
                          "BOOM\n" + // Unrecoverable: no frame bound.
                          frame("{\"type\": \"ping\"}"));
    std::ostringstream out;
    serve::ServeOptions opts;
    opts.batch.engine = sim::Engine::Levelized;
    serve::ServeStats st = serve::serve(sp, in, out, opts);
    EXPECT_EQ(st.requests, 1u);
    EXPECT_EQ(st.errors, 1u);
    auto docs = responses(out.str());
    ASSERT_EQ(docs.size(), 2u); // Ping ack + final framing error.
    EXPECT_FALSE(docs[1].at("ok").asBool());
    EXPECT_NE(docs[1].at("error").asStr().find("bad frame"),
              std::string::npos);
}

TEST(Serve, TooDeepRequestIsABadRequest)
{
    // A well-framed payload of 100,000 nested arrays: the JSON parser
    // refuses it at its depth limit instead of overflowing the stack,
    // so the session answers an error and keeps serving.
    Context ctx = loweredLoop();
    sim::SimProgram sp(ctx, ctx.entrypoint());
    std::istringstream in(
        frame(std::string(100000, '[') + std::string(100000, ']')) +
        frame("{\"type\": \"ping\"}"));
    std::ostringstream out;
    serve::ServeOptions opts;
    opts.batch.engine = sim::Engine::Levelized;
    serve::ServeStats st = serve::serve(sp, in, out, opts);
    EXPECT_EQ(st.requests, 2u);
    EXPECT_EQ(st.errors, 1u);
    auto docs = responses(out.str());
    ASSERT_EQ(docs.size(), 2u);
    EXPECT_FALSE(docs[0].at("ok").asBool());
    EXPECT_NE(docs[0].at("error").asStr().find("nesting deeper than"),
              std::string::npos);
    EXPECT_TRUE(docs[1].at("ok").asBool());
    EXPECT_EQ(docs[1].at("result").asStr(), "pong");
}

/** The acceptance gate: 100+ stimulus-batch requests against one
 * resident compiled module, no recompilation, cache hit asserted. */
TEST(Serve, SustainsHundredRequestsOnResidentCompiledModule)
{
    if (!sim::compiledEngineUnavailableReason().empty())
        GTEST_SKIP() << sim::compiledEngineUnavailableReason();
    Context ctx = loweredLoop();
    sim::SimProgram sp(ctx, ctx.entrypoint());

    serve::ServeOptions opts;
    opts.batch.engine = sim::Engine::Compiled;

    // First session warms the on-disk object cache so the second can
    // assert a pure cache hit (no host-compiler invocation at all).
    {
        std::istringstream in(frame(runRequest({1})) +
                              frame("{\"type\": \"shutdown\"}"));
        std::ostringstream out;
        serve::serve(sp, in, out, opts);
    }

    std::string input;
    for (uint64_t i = 0; i < 100; ++i)
        input += frame(runRequest({i % 17, (i * 7) % 17}));
    input += frame("{\"type\": \"stats\"}");
    input += frame("{\"type\": \"shutdown\"}");
    std::istringstream in(input);
    std::ostringstream out;
    serve::ServeStats st = serve::serve(sp, in, out, opts);

    EXPECT_EQ(st.requests, 102u);
    EXPECT_EQ(st.runs, 100u);
    EXPECT_EQ(st.stimuli, 200u);
    EXPECT_EQ(st.errors, 0u);

    auto docs = responses(out.str());
    ASSERT_EQ(docs.size(), 102u);
    for (uint64_t i = 0; i < 100; ++i) {
        ASSERT_TRUE(docs[i].at("ok").asBool()) << "request " << i;
        const auto &lanes = docs[i].at("result").at("lanes").items();
        ASSERT_EQ(lanes.size(), 2u);
        EXPECT_EQ(lanes[0].at("regs").at("x").asNum(), 3 * (i % 17));
        EXPECT_EQ(lanes[1].at("regs").at("x").asNum(),
                  3 * ((i * 7) % 17));
    }
    const json::Value &serve_stats = docs[100].at("result").at("serve");
    // Resident module: 100 runs, exactly one JIT load, served from
    // the object cache without recompiling. Batches of 2 on a 16-lane
    // tile are short tails: every stimulus runs on the scalar module.
    EXPECT_EQ(serve_stats.at("module_loads").asNum(), 1u);
    EXPECT_TRUE(serve_stats.at("modules_from_cache").asBool());
    EXPECT_EQ(serve_stats.at("scalar_tiles").asNum(), 200u);
    EXPECT_EQ(serve_stats.at("lane_tiles").asNum(), 0u);
    EXPECT_EQ(serve_stats.at("padded_lanes").asNum(), 0u);
}

/** Stats report the thread count the session resolved and the pool
 * counters behind the grain gate. */
TEST(Serve, StatsReportResolvedThreadsAndPool)
{
    Context ctx = loweredLoop();
    sim::SimProgram sp(ctx, ctx.entrypoint());
    serve::ServeOptions opts;
    EXPECT_EQ(opts.batch.threads, WorkPool::defaultThreads());
    opts.batch.engine = sim::Engine::Levelized;
    // 17 stimuli per request: a 16-lane tile and a one-lane tile.
    std::vector<uint64_t> up(17), down(17);
    for (uint64_t b = 0; b < 17; ++b) {
        up[b] = b;
        down[b] = 16 - b;
    }
    std::istringstream in(frame(runRequest(up)) + frame(runRequest(down)) +
                          frame("{\"type\": \"stats\"}"));
    std::ostringstream out;
    serve::serve(sp, in, out, opts);
    auto docs = responses(out.str());
    ASSERT_EQ(docs.size(), 3u);
    const json::Value &s = docs[2].at("result").at("serve");
    EXPECT_EQ(s.at("threads").asNum(), WorkPool::defaultThreads());
    const json::Value &pool = s.at("pool");
    // The first batch spreads to time its shape; only the second may
    // have been run serially.
    EXPECT_LE(pool.at("serial_batches").asNum(), 1u);
    if (WorkPool::defaultThreads() >= 2) {
        EXPECT_GE(pool.at("jobs").asNum(), 1u);
        EXPECT_GT(pool.at("wake_us_min").asReal(), 0);
        EXPECT_GE(pool.at("wake_us_mean").asReal(),
                  pool.at("wake_us_min").asReal());
    }
}

/** Stats count the tile shapes each run request was cut into. */
TEST(Serve, StatsCountTileShapes)
{
    if (!sim::compiledEngineUnavailableReason().empty())
        GTEST_SKIP() << sim::compiledEngineUnavailableReason();
    Context ctx = loweredLoop();
    sim::SimProgram sp(ctx, ctx.entrypoint());

    serve::ServeOptions opts;
    opts.batch.engine = sim::Engine::Compiled;
    // Batch 1: one scalar tile. Batch 11: a tail over half the tile,
    // one padded 16-lane tile. Batch 16: one full tile. Batch 18: one
    // full tile plus two scalar tiles.
    std::vector<std::vector<uint64_t>> batches = {{5}};
    for (size_t n : {11, 16, 18}) {
        std::vector<uint64_t> &b = batches.emplace_back(n);
        for (size_t l = 0; l < n; ++l)
            b[l] = (l * 7 + n) % 13;
    }
    std::string input;
    for (const auto &b : batches)
        input += frame(runRequest(b));
    input += frame("{\"type\": \"stats\"}");
    std::istringstream in(input);
    std::ostringstream out;
    serve::serve(sp, in, out, opts);

    auto docs = responses(out.str());
    ASSERT_EQ(docs.size(), batches.size() + 1);
    for (size_t r = 0; r < batches.size(); ++r) {
        ASSERT_TRUE(docs[r].at("ok").asBool()) << "request " << r;
        const auto &lanes = docs[r].at("result").at("lanes").items();
        ASSERT_EQ(lanes.size(), batches[r].size());
        for (size_t l = 0; l < lanes.size(); ++l)
            EXPECT_EQ(lanes[l].at("regs").at("x").asNum(),
                      3 * batches[r][l])
                << "request " << r << " lane " << l;
    }
    const json::Value &serve_stats =
        docs[batches.size()].at("result").at("serve");
    EXPECT_EQ(serve_stats.at("lane_tile").asNum(), 16u);
    EXPECT_EQ(serve_stats.at("module_loads").asNum(), 2u);
    EXPECT_EQ(serve_stats.at("scalar_tiles").asNum(), 3u);
    EXPECT_EQ(serve_stats.at("lane_tiles").asNum(), 3u);
    EXPECT_EQ(serve_stats.at("padded_lanes").asNum(), 5u);
}

TEST(Serve, CompileRequestRoundTrip)
{
    Context ctx = loweredLoop();
    sim::SimProgram sp(ctx, ctx.entrypoint());

    // A compile request carrying its own source: the serve loop is a
    // compiler service too, independent of the design it simulates.
    json::Value creq = json::Value::object();
    creq.set("type", json::Value::str("compile"));
    creq.set("source", json::Value::str(kDataBoundedLoop));
    creq.set("pipeline", json::Value::str("all"));
    std::string creq_text;
    {
        std::ostringstream os;
        creq.write(os);
        creq_text = os.str();
    }

    std::istringstream in(
        frame(creq_text) + frame(creq_text) + // Second one is warm.
        frame("{\"type\": \"compile\"}") +     // Missing source.
        frame("{\"type\": \"stat\"}") +        // Typo: did-you-mean.
        frame("{\"type\": \"stats\"}") + frame("{\"type\": \"shutdown\"}"));
    std::ostringstream out;
    serve::ServeOptions opts;
    opts.batch.engine = sim::Engine::Levelized;
    serve::ServeStats st = serve::serve(sp, in, out, opts);
    EXPECT_EQ(st.compiles, 2u);
    EXPECT_EQ(st.errors, 2u);

    auto docs = responses(out.str());
    ASSERT_EQ(docs.size(), 6u);

    // Cold compile: the artifact equals futil's own output for the
    // same source and pipeline, byte for byte.
    ASSERT_TRUE(docs[0].at("ok").asBool());
    const json::Value &cold = docs[0].at("result");
    Context ref = loweredLoop();
    std::string expected =
        emit::BackendRegistry::instance().create("calyx")->emitString(
            ref);
    EXPECT_EQ(cold.at("artifact").asStr(), expected);
    EXPECT_EQ(cold.at("backend").asStr(), "calyx");
    EXPECT_FALSE(cold.at("artifact_from_cache").asBool());
    EXPECT_GT(cold.at("passes_run").asNum(), 0u);
    // The normalized pipeline names passes, not the alias.
    EXPECT_EQ(cold.at("pipeline").asStr().find("all"),
              std::string::npos);

    // Warm compile: same bytes, served from the raw-text tier.
    ASSERT_TRUE(docs[1].at("ok").asBool());
    const json::Value &warm = docs[1].at("result");
    EXPECT_EQ(warm.at("artifact").asStr(), expected);
    EXPECT_TRUE(warm.at("artifact_from_cache").asBool());
    EXPECT_TRUE(warm.at("raw_text_hit").asBool());
    EXPECT_EQ(warm.at("passes_run").asNum(), 0u);

    EXPECT_FALSE(docs[2].at("ok").asBool()); // No source.
    EXPECT_NE(docs[2].at("error").asStr().find("source"),
              std::string::npos);

    // Unknown request type with a near-miss name: did-you-mean.
    EXPECT_FALSE(docs[3].at("ok").asBool());
    EXPECT_NE(docs[3].at("error").asStr().find("did you mean 'stats'"),
              std::string::npos)
        << docs[3].at("error").asStr();

    // Stats mirror the compile-cache counters.
    const json::Value &cstats =
        docs[4].at("result").at("serve").at("compile");
    EXPECT_EQ(cstats.at("requests").asNum(), 2u);
    EXPECT_EQ(cstats.at("artifacts_from_cache").asNum(), 1u);
    EXPECT_EQ(cstats.at("artifacts_from_raw_text").asNum(), 1u);
    EXPECT_GT(cstats.at("cache_entries").asNum(), 0u);
}

TEST(Serve, RejectsObserverFlagsNamingBoth)
{
    try {
        serve::rejectObserverFlag("--trace", "--serve");
        FAIL() << "conflict was not rejected";
    } catch (const Error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("--trace"), std::string::npos) << msg;
        EXPECT_NE(msg.find("--serve"), std::string::npos) << msg;
    }
    try {
        serve::rejectObserverFlag("--profile", "--batch");
        FAIL() << "conflict was not rejected";
    } catch (const Error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("--profile"), std::string::npos) << msg;
        EXPECT_NE(msg.find("--batch"), std::string::npos) << msg;
    }
}

} // namespace
} // namespace calyx
