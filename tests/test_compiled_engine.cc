/**
 * Compiled-engine unit tests (ISSUE 6): the cppsim backend and the JIT
 * driver behind `--sim-engine=compiled`. Covers engine-name parsing
 * with did-you-mean, backend registration, end-to-end equivalence on
 * the canonical counter program, the content-addressed disk cache
 * (second load must not recompile or add files; other compile flags
 * must miss), rejection of forces on computed ports, and rejection of
 * unlowered programs.
 *
 * Everything that invokes the host toolchain is skipped — not failed —
 * when compiledEngineUnavailableReason() reports no compiler.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <unistd.h>

#include "emit/backend.h"
#include "emit/cppsim.h"
#include "helpers.h"
#include "ir/builder.h"
#include "sim/compiled.h"
#include "sim/cycle_sim.h"
#include "sim/env.h"
#include "support/error.h"

namespace calyx {
namespace {

namespace fs = std::filesystem;

#define SKIP_WITHOUT_TOOLCHAIN()                                          \
    do {                                                                  \
        std::string reason = sim::compiledEngineUnavailableReason();      \
        if (!reason.empty())                                              \
            GTEST_SKIP() << reason;                                       \
    } while (0)

/** Set one environment variable (unset it for nullptr) for a scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        const char *old = std::getenv(name);
        hadOld = old != nullptr;
        if (hadOld)
            oldVal = old;
        set(value);
    }

    ~ScopedEnv() { set(hadOld ? oldVal.c_str() : nullptr); }

    void
    set(const char *value)
    {
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

  private:
    const char *name;
    std::string oldVal;
    bool hadOld = false;
};

/** Point $CALYX_CPPSIM_CACHE at a fresh directory for one test. */
class ScopedCacheDir
{
  public:
    ScopedCacheDir()
        : dir((fs::temp_directory_path() /
               ("calyx-cppsim-test-" + std::to_string(::getpid())))
                  .string()),
          env("CALYX_CPPSIM_CACHE", dir.c_str())
    {
        fs::remove_all(dir);
    }

    ~ScopedCacheDir()
    {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    const std::string &path() const { return dir; }

    size_t
    entryCount() const
    {
        size_t n = 0;
        std::error_code ec;
        for (auto it = fs::directory_iterator(dir, ec);
             !ec && it != fs::directory_iterator(); ++it)
            ++n;
        return n;
    }

  private:
    std::string dir;
    ScopedEnv env;
};

TEST(CompiledEngine, ParseEngineDidYouMean)
{
    EXPECT_EQ(sim::parseEngine("compiled"), sim::Engine::Compiled);
    EXPECT_EQ(sim::parseEngine("levelized"), sim::Engine::Levelized);
    try {
        sim::parseEngine("levelised");
        FAIL() << "unknown engine name was accepted";
    } catch (const Error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("levelized"), std::string::npos)
            << "no did-you-mean suggestion: " << msg;
    }
    // The registry names every engine exactly once.
    std::vector<std::string> names = sim::engineNames();
    EXPECT_EQ(names.size(), sim::engineInfos().size());
    for (const std::string &n : names)
        EXPECT_EQ(sim::engineName(sim::parseEngine(n)), n);
}

TEST(CompiledEngine, BackendRegistered)
{
    auto &reg = emit::BackendRegistry::instance();
    ASSERT_TRUE(reg.has("cppsim"));
    const auto *entry = reg.find("cppsim");
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(entry->requiresLowered);
    EXPECT_EQ(entry->fileExtension, ".cc");

    // Emitting a lowered program produces the C ABI the driver loads.
    Context ctx = testing::counterProgram(3, 2);
    passes::runPipeline(ctx, "all");
    std::string src = reg.create("cppsim")->emitString(ctx);
    for (const char *sym :
         {"cppsim_abi", "cppsim_new", "cppsim_bind", "cppsim_reset",
          "cppsim_eval", "cppsim_clk", "cppsim_error"})
        EXPECT_NE(src.find(sym), std::string::npos)
            << "generated module misses " << sym;
}

TEST(CompiledEngine, RejectsUnloweredProgram)
{
    // Programs that still have groups and control cannot be compiled;
    // the backend names the problem instead of emitting garbage.
    Context ctx = testing::counterProgram(3, 2);
    std::ostringstream os;
    sim::SimProgram sp(ctx, "main");
    EXPECT_THROW(emit::emitCppSim(sp, os), Error);
}

TEST(CompiledEngine, CounterMatchesInterpretedEngines)
{
    SKIP_WITHOUT_TOOLCHAIN();
    ScopedCacheDir cache;

    Context ctx = testing::counterProgram(5, 3);
    passes::runPipeline(ctx, "all");

    uint64_t cycles[2], regs[2];
    int i = 0;
    for (sim::Engine engine :
         {sim::Engine::Levelized, sim::Engine::Compiled}) {
        sim::SimProgram sp(ctx, "main");
        sim::CycleSim cs(sp, engine);
        cycles[i] = cs.run();
        regs[i] = *sp.findModel("x")->registerValue();
        ++i;
    }
    EXPECT_EQ(regs[0], 15u);
    EXPECT_EQ(regs[1], 15u);
    EXPECT_EQ(cycles[0], cycles[1]);
}

TEST(CompiledEngine, DiskCacheSkipsRecompilation)
{
    SKIP_WITHOUT_TOOLCHAIN();
    ScopedCacheDir cache;

    Context ctx = testing::counterProgram(4, 2);
    passes::runPipeline(ctx, "all");

    std::string so_path;
    size_t entries_after_first;
    {
        sim::SimProgram sp(ctx, "main");
        auto mod = sp.compiledModule();
        ASSERT_NE(mod, nullptr);
        EXPECT_FALSE(mod->fromCache()) << "first load found a stale cache";
        so_path = mod->objectPath();
        EXPECT_TRUE(fs::exists(so_path));
        entries_after_first = cache.entryCount();
    } // Release the module so the process-wide registry entry expires.

    {
        sim::SimProgram sp(ctx, "main");
        auto mod = sp.compiledModule();
        ASSERT_NE(mod, nullptr);
        EXPECT_TRUE(mod->fromCache()) << "second load recompiled";
        EXPECT_EQ(mod->objectPath(), so_path);
        // A cache hit must not leave new files behind (no temporary
        // sources, no duplicate objects).
        EXPECT_EQ(cache.entryCount(), entries_after_first);

        // The module still runs from cache.
        sim::CycleSim cs(sp, sim::Engine::Compiled);
        cs.run();
        EXPECT_EQ(*sp.findModel("x")->registerValue(), 8u);
    }
}

TEST(CompiledEngine, CacheKeyCoversCompileFlags)
{
    SKIP_WITHOUT_TOOLCHAIN();
    ScopedCacheDir cache;
    ScopedEnv flags("CALYX_CPPSIM_CXXFLAGS",
                    "-O0 -shared -fPIC -std=c++17");

    // The same source built under other flags is another object: a
    // cached -O0 build must not stand in for an -O1 one.
    Context ctx = testing::counterProgram(4, 2);
    passes::runPipeline(ctx, "all");
    std::string o0;
    {
        sim::SimProgram sp(ctx, "main");
        auto mod = sp.compiledModule();
        EXPECT_FALSE(mod->fromCache());
        o0 = mod->objectPath();
    } // Release the module so the process-wide registry entry expires.

    flags.set("-O1 -shared -fPIC -std=c++17");
    sim::SimProgram sp(ctx, "main");
    auto mod = sp.compiledModule();
    EXPECT_FALSE(mod->fromCache()) << "reused the object built with -O0";
    EXPECT_NE(mod->objectPath(), o0);
    sim::CycleSim cs(sp, sim::Engine::Compiled);
    cs.run();
    EXPECT_EQ(*sp.findModel("x")->registerValue(), 8u);
}

TEST(CompiledEngine, SharedModuleAcrossStates)
{
    SKIP_WITHOUT_TOOLCHAIN();
    ScopedCacheDir cache;

    // Two SimStates over one SimProgram share a single compiled module
    // (one codegen, one dlopen) but keep independent port values.
    Context ctx = testing::counterProgram(3, 1);
    passes::runPipeline(ctx, "all");
    sim::SimProgram sp(ctx, "main");

    sim::CycleSim a(sp, sim::Engine::Compiled);
    uint64_t cycles_a = a.run();
    sim::CycleSim b(sp, sim::Engine::Compiled);
    uint64_t cycles_b = b.run();
    EXPECT_EQ(cycles_a, cycles_b);
    EXPECT_EQ(*sp.findModel("x")->registerValue(), 3u);
}

TEST(CompiledEngine, RejectsForceOnComputedPort)
{
    SKIP_WITHOUT_TOOLCHAIN();
    ScopedCacheDir cache;

    // The generated eval() owns every driven port; forcing one would
    // silently diverge from the interpreted engines, so it is fatal
    // and names the port.
    Context ctx;
    Component &comp = ctx.addComponent("main");
    comp.addCell("w", "std_wire", {8}, ctx);
    comp.continuousAssignments().emplace_back(cellPort("w", "in"),
                                              constant(9, 8));

    sim::SimProgram sp(ctx, "main");
    sim::SimState st(sp, sim::Engine::Compiled);
    st.reset();
    st.beginCycle();
    st.activate(sp.root().continuous);
    st.force(sp.portId(Symbol("w.in")), 7);
    try {
        st.comb();
        FAIL() << "force on a computed port was not rejected";
    } catch (const Error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("w.in"), std::string::npos) << msg;
    }
}

} // namespace
} // namespace calyx
