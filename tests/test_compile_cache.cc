/**
 * The content-addressed compile cache and CompileService (ISSUE 9):
 * pipeline-spec normalization (alias vs expansion, exclusions, option
 * order) hashing equal; transitive digest invalidation; and the
 * acceptance gates — a mutated-component request stream whose cached
 * artifacts are byte-identical to cold compiles for both the calyx
 * and verilog backends, with a dependency edit invalidating
 * dependents transitively and sparing unrelated components. Plus the
 * LRU/disk-tier mechanics of CompileCache itself.
 */
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "cache/compile_cache.h"
#include "emit/backend.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "passes/pipeline_spec.h"
#include "support/error.h"
#include "support/hash.h"

namespace calyx {
namespace {

/** A three-level dependency chain (main -> mid -> leaf) plus a
 * component nothing depends on, so a leaf edit must invalidate exactly
 * {leaf, mid, main} and spare `island`. The `@CONST@` markers let
 * tests mint mutated variants of individual components. */
std::string
chainProgram(const std::string &leaf_const,
             const std::string &island_const)
{
    return R"(
component leaf() -> () {
  cells { r = std_reg(8); a = std_add(8); }
  wires {
    group bump {
      a.left = r.out; a.right = 8'd)" +
           leaf_const + R"(;
      r.in = a.out; r.write_en = 1'd1;
      bump[done] = r.done;
    }
  }
  control { bump; }
}
component mid() -> () {
  cells { l = leaf(); t = std_reg(8); }
  wires {
    group call_leaf { l.go = 1'd1; call_leaf[done] = l.done; }
    group grab {
      t.in = 8'd2; t.write_en = 1'd1; grab[done] = t.done;
    }
  }
  control { seq { call_leaf; grab; } }
}
component island() -> () {
  cells { r = std_reg(8); a = std_add(8); }
  wires {
    group bump {
      a.left = r.out; a.right = 8'd)" +
           island_const + R"(;
      r.in = a.out; r.write_en = 1'd1;
      bump[done] = r.done;
    }
  }
  control { bump; }
}
component main() -> () {
  cells { m = mid(); o = island(); }
  wires {
    group call_mid { m.go = 1'd1; call_mid[done] = m.done; }
    group call_island { o.go = 1'd1; call_island[done] = o.done; }
  }
  control { seq { call_mid; call_island; } }
}
)";
}

/** Cold reference: a fresh pipeline + emit with no cache involved. */
std::string
coldCompile(const std::string &src, const std::string &spec,
            const std::string &backend)
{
    Context ctx = Parser::parseProgram(src);
    passes::runPipeline(ctx, spec);
    return emit::BackendRegistry::instance().create(backend)->emitString(
        ctx);
}

TEST(PipelineSpecNormalization, AliasEqualsExpansion)
{
    // "all" and its hand-expanded member list normalize to the same
    // string, so both hash to the same cache key.
    std::string expansion = passes::parsePipelineSpec("all").str();
    EXPECT_EQ(cache::normalizePipelineSpec("all"),
              cache::normalizePipelineSpec(expansion));
    // Aliases really expand: the normalized form names passes, not
    // the alias.
    EXPECT_EQ(cache::normalizePipelineSpec("all").find("all,"),
              std::string::npos);
}

TEST(PipelineSpecNormalization, ExclusionsApply)
{
    std::string with = cache::normalizePipelineSpec("all");
    std::string without =
        cache::normalizePipelineSpec("all,-collapse-control");
    EXPECT_NE(with, without);
    EXPECT_EQ(without.find("collapse-control"), std::string::npos);
    // Excluding then re-adding at the end is a *different* pipeline
    // (position matters) — but excluding twice is idempotent.
    EXPECT_EQ(without, cache::normalizePipelineSpec(
                           "all,-collapse-control,-collapse-control"));
}

TEST(PipelineSpecNormalization, OptionOrderIsCanonical)
{
    // Same options in any order: same normal form, same digest.
    std::string a = cache::normalizePipelineSpec(
        "compile-control[encoding=one-hot,optimize=false]");
    std::string b = cache::normalizePipelineSpec(
        "compile-control[optimize=false,encoding=one-hot]");
    EXPECT_EQ(a, b);
    EXPECT_EQ(contentDigest(a), contentDigest(b));
    // Any option *value* change changes the key.
    std::string c = cache::normalizePipelineSpec(
        "compile-control[optimize=true,encoding=one-hot]");
    EXPECT_NE(a, c);
    // Duplicate keys: the last occurrence wins, matching the order
    // Pass::option calls are applied.
    EXPECT_EQ(cache::normalizePipelineSpec(
                  "compile-control[encoding=binary,encoding=one-hot]"),
              cache::normalizePipelineSpec(
                  "compile-control[encoding=one-hot]"));
    // Unknown pass names still fail loudly with the registry's
    // did-you-mean.
    try {
        cache::normalizePipelineSpec("colapse-control");
        FAIL() << "expected Error";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("collapse-control"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ProgramDigests, TransitiveInvalidation)
{
    Context base = Parser::parseProgram(chainProgram("3", "7"));
    Context edit = Parser::parseProgram(chainProgram("4", "7"));
    cache::ProgramDigests db = cache::digestProgram(base);
    cache::ProgramDigests de = cache::digestProgram(edit);
    ASSERT_EQ(db.transitive.size(), 4u);
    ASSERT_EQ(de.transitive.size(), 4u);
    for (size_t i = 0; i < 4; ++i) {
        const std::string name = db.transitive[i].first.str();
        ASSERT_EQ(name, de.transitive[i].first.str());
        if (name == "island")
            EXPECT_EQ(db.transitive[i].second, de.transitive[i].second);
        else // leaf changed; mid and main depend on it transitively.
            EXPECT_NE(db.transitive[i].second, de.transitive[i].second)
                << name;
    }
    EXPECT_NE(db.program, de.program);
}

TEST(ProgramDigests, WhitespaceInsensitive)
{
    // Digests come from the *printed* canonical text, so reformatting
    // the source does not split cache keys.
    std::string src = chainProgram("3", "7");
    std::string squeezed;
    for (char c : src) // Collapse the indentation runs.
        if (c != ' ' || (squeezed.size() && squeezed.back() != ' '))
            squeezed += c;
    Context a = Parser::parseProgram(src);
    Context b = Parser::parseProgram(squeezed);
    EXPECT_EQ(cache::digestProgram(a).program,
              cache::digestProgram(b).program);
}

TEST(CompileCache, LruEvictionAndDisable)
{
    cache::CompileCache::Config cfg;
    cfg.maxEntries = 2;
    cache::CompileCache cc(cfg);
    cc.put("a", "1");
    cc.put("b", "2");
    cc.put("c", "3"); // Evicts "a", the least recently used.
    EXPECT_FALSE(cc.get("a").has_value());
    EXPECT_EQ(cc.get("b").value_or(""), "2");
    EXPECT_EQ(cc.get("c").value_or(""), "3");
    cache::CompileCache::Stats st = cc.stats();
    EXPECT_EQ(st.evictions, 1u);
    EXPECT_EQ(st.entries, 2u);
    // get() refreshes recency: touch "b", insert "d", "c" goes.
    cc.get("b");
    cc.put("d", "4");
    EXPECT_TRUE(cc.get("b").has_value());
    EXPECT_FALSE(cc.get("c").has_value());

    cache::CompileCache::Config off;
    off.enabled = false;
    cache::CompileCache disabled(off);
    disabled.put("k", "v");
    EXPECT_FALSE(disabled.get("k").has_value());
}

TEST(CompileService, RawTextFastPath)
{
    cache::CompileService svc((cache::CompileCache::Config()));
    cache::CompileRequest req;
    req.source = chainProgram("3", "7");
    req.pipeline = "all";
    cache::CompileResult first = svc.compile(req);
    EXPECT_FALSE(first.artifactFromCache);
    EXPECT_FALSE(first.passInfos.empty());
    cache::CompileResult second = svc.compile(req);
    EXPECT_TRUE(second.rawTextHit);
    EXPECT_TRUE(second.artifactFromCache);
    EXPECT_TRUE(second.passInfos.empty()); // No parse, no passes.
    EXPECT_EQ(second.artifact, first.artifact);
    EXPECT_EQ(svc.counters().rawHits, 1u);

    // Reformatted source misses tier 1 but hits the canonical
    // artifact tier: same digests, same artifact, still no passes.
    cache::CompileRequest spaced = req;
    spaced.source = "\n\n" + req.source + "\n";
    cache::CompileResult third = svc.compile(spaced);
    EXPECT_FALSE(third.rawTextHit);
    EXPECT_TRUE(third.artifactFromCache);
    EXPECT_TRUE(third.passInfos.empty());
    EXPECT_EQ(third.artifact, first.artifact);
    EXPECT_EQ(svc.counters().artifactHits, 1u);
}

TEST(CompileService, MutatedStreamByteIdenticalBothBackends)
{
    // The acceptance gate: a warm service answering a stream of
    // mutated programs emits byte-identical artifacts to a cold serial
    // compile of each variant — for the calyx form *and* the verilog
    // backend.
    for (const std::string backend : {"calyx", "verilog"}) {
        const std::string spec =
            backend == "verilog" ? "all" : "default";
        cache::CompileService svc((cache::CompileCache::Config()));
        for (int v = 0; v < 6; ++v) {
            std::string src = chainProgram(
                std::to_string(3 + (v % 3)), std::to_string(7 + v / 3));
            cache::CompileRequest req;
            req.source = src;
            req.pipeline = spec;
            req.backend = backend;
            cache::CompileResult res = svc.compile(req);
            EXPECT_EQ(res.artifact, coldCompile(src, spec, backend))
                << backend << " variant " << v;
        }
        // The stream revisits constants, so later variants reuse
        // cached components instead of re-running passes on all four.
        EXPECT_GT(svc.counters().componentHits, 0u);
    }
}

TEST(CompileService, DependencyEditInvalidatesTransitively)
{
    cache::CompileService svc((cache::CompileCache::Config()));
    cache::CompileRequest req;
    req.pipeline = "all";
    req.source = chainProgram("3", "7");
    svc.compile(req);
    EXPECT_EQ(svc.counters().componentMisses, 4u);

    // Edit the leaf: main and mid are invalidated through the
    // dependency chain; only the island's cached text is reusable.
    req.source = chainProgram("4", "7");
    cache::CompileResult res = svc.compile(req);
    EXPECT_EQ(res.componentsFromCache, 1u);
    EXPECT_EQ(svc.counters().componentHits, 1u);
    EXPECT_EQ(svc.counters().componentMisses, 7u);
    EXPECT_EQ(res.artifact, coldCompile(req.source, "all", "calyx"));

    // Edit the island: leaf and mid are untouched and reused; main
    // instantiates the island, so it is invalidated along with it.
    req.source = chainProgram("4", "9");
    res = svc.compile(req);
    EXPECT_EQ(res.componentsFromCache, 2u);
    EXPECT_EQ(res.artifact, coldCompile(req.source, "all", "calyx"));
}

TEST(CompileService, DiskTierSurvivesRestart)
{
    char tmpl[] = "/tmp/calyx-compile-test-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;

    cache::CompileCache::Config cfg;
    cfg.diskDir = dir;
    std::string artifact;
    {
        cache::CompileService svc(cfg);
        cache::CompileRequest req;
        req.source = chainProgram("3", "7");
        req.pipeline = "all";
        artifact = svc.compile(req).artifact;
    }
    // A fresh service — a "restarted" process — warms from disk: the
    // artifact comes back without running any pass.
    cache::CompileService svc(cfg);
    cache::CompileRequest req;
    req.source = chainProgram("3", "7");
    req.pipeline = "all";
    cache::CompileResult res = svc.compile(req);
    EXPECT_TRUE(res.artifactFromCache);
    EXPECT_TRUE(res.passInfos.empty());
    EXPECT_EQ(res.artifact, artifact);
    EXPECT_GT(svc.cacheStats().diskHits, 0u);

    std::string cmd = "rm -rf " + dir;
    (void)std::system(cmd.c_str());
}

/**
 * A disk entry that cannot be written whole is not published. A 64-byte
 * file-size limit, with SIGXFSZ ignored so the write fails with EFBIG
 * instead of killing the process, stands in for a full disk. The
 * service still answers from its memory tier, and a fresh service on
 * the same directory must miss rather than serve a truncated artifact.
 */
TEST(CompileService, FailedDiskWritePublishesNothing)
{
    char tmpl[] = "/tmp/calyx-compile-test-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;

    std::ifstream in(std::string(CALYX_EXAMPLES_DIR) + "/counter.futil");
    std::ostringstream text;
    text << in.rdbuf();
    cache::CompileRequest req;
    req.source = text.str();
    req.pipeline = "all";
    req.backend = "verilog";
    const std::string cold = coldCompile(req.source, "all", "verilog");
    ASSERT_GT(cold.size(), 64u);

    cache::CompileCache::Config cfg;
    cfg.diskDir = dir;
    std::string first;
    {
        cache::CompileService svc(cfg);
        struct rlimit saved;
        ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
        struct rlimit small = saved;
        small.rlim_cur = 64;
        void (*prev)(int) = std::signal(SIGXFSZ, SIG_IGN);
        ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &small), 0);
        first = svc.compile(req).artifact;
        ::setrlimit(RLIMIT_FSIZE, &saved);
        std::signal(SIGXFSZ, prev);
    }
    EXPECT_EQ(first, cold);

    cache::CompileService fresh(cfg);
    cache::CompileResult res = fresh.compile(req);
    EXPECT_FALSE(res.rawTextHit);
    EXPECT_FALSE(res.artifactFromCache);
    EXPECT_EQ(res.artifact, cold);

    std::string cmd = "rm -rf " + dir;
    (void)std::system(cmd.c_str());
}

TEST(CompileService, ErrorsDoNotPoisonTheCache)
{
    cache::CompileService svc((cache::CompileCache::Config()));
    cache::CompileRequest bad;
    bad.source = "component main() -> () {"; // Truncated program.
    EXPECT_THROW(svc.compile(bad), Error);
    cache::CompileRequest worse;
    worse.source = chainProgram("3", "7");
    worse.backend = "verilgo"; // Unknown backend, did-you-mean.
    try {
        svc.compile(worse);
        FAIL() << "expected Error";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("verilog"),
                  std::string::npos)
            << e.what();
    }
    // The failed requests left nothing behind; a good compile still
    // runs cold.
    cache::CompileRequest good;
    good.source = chainProgram("3", "7");
    cache::CompileResult res = svc.compile(good);
    EXPECT_FALSE(res.artifactFromCache);
    EXPECT_EQ(res.artifact,
              coldCompile(good.source, "default", "calyx"));
}

} // namespace
} // namespace calyx
