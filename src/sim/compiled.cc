#include "sim/compiled.h"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

#include "emit/cppsim.h"
#include "sim/env.h"
#include "support/error.h"
#include "support/file.h"
#include "support/hash.h"
#include "support/pool.h"
#include "support/subprocess.h"

namespace calyx::sim {

namespace {

/** Host C++ compiler: $CXX, else the first common name on PATH. */
std::string
hostCompiler()
{
    if (const char *cxx = std::getenv("CXX"); cxx && *cxx) {
        std::string found = findProgram(cxx);
        if (!found.empty())
            return found;
    }
    for (const char *name : {"c++", "g++", "clang++"}) {
        std::string found = findProgram(name);
        if (!found.empty())
            return found;
    }
    return "";
}

/**
 * Flags for the host compile. $CALYX_CPPSIM_CXXFLAGS overrides wholesale;
 * the default scales the optimization level down as the generated source
 * grows — on big netlists the optimizer dominates JIT latency while the
 * straight-line code barely benefits, so trading a few x of eval speed
 * for minutes of compile time is the right default (the same knob
 * verilator exposes as -O0/-O3).
 */
std::vector<std::string>
compileFlags(size_t source_bytes, uint32_t lanes)
{
    std::string flags;
    if (const char *env = std::getenv("CALYX_CPPSIM_CXXFLAGS"); env && *env) {
        flags = env;
    } else if (lanes > 1) {
        // Lane modules live or die by the vectorizer: their statements
        // are per-lane loops over SoA planes, so they get the full
        // -O3 treatment plus the host's native vector ISA (the .so is
        // JIT-compiled for this machine, never shipped). The size
        // scaling below matters much less here because lane loops keep
        // per-function complexity near the scalar module's.
        const char *opt = source_bytes < 8u << 20 ? "-O3" : "-O1";
        flags = std::string(opt) + " -march=native -shared -fPIC"
                " -std=c++17";
        // GCC's if-converter refuses select chains longer than the
        // default phi-args cap, leaving FSM next-state loops scalar
        // ("control flow in loop"); raise it so they become blends.
        flags += " --param max-tree-if-conversion-phi-args=64";
    } else {
        const char *opt = source_bytes < 2u << 20   ? "-O2"
                          : source_bytes < 8u << 20 ? "-O1"
                                                    : "-O0";
        flags = std::string(opt) + " -shared -fPIC -std=c++17";
    }
    std::vector<std::string> out;
    std::istringstream is(flags);
    std::string tok;
    while (is >> tok)
        out.push_back(tok);
    return out;
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

/**
 * Process-wide registry of loaded modules by digest. weak_ptr
 * so a module unloads (dlclose) once every SimState using it is gone,
 * while concurrent users share one handle.
 */
std::mutex &
registryMutex()
{
    static std::mutex m;
    return m;
}

std::map<std::string, std::weak_ptr<CompiledModule>> &
registry()
{
    static std::map<std::string, std::weak_ptr<CompiledModule>> r;
    return r;
}

/**
 * Build shard translation units from the generated source: the common
 * prologue (everything before the first marker line, declarations only)
 * plus a contiguous, byte-balanced run of marker-delimited segments per
 * shard. At most `groups` shards come back. The prologue is a few KB
 * whatever the design's size, so an extra shard costs about one
 * compiler start-up, and the driver asks for two per usable core: one
 * segment can cost several times the average (a chunk full of select
 * chains), and smaller shards let the pool's stealing even that out.
 * A source without markers, or groups <= 1, comes back as one entry.
 */
std::vector<std::string>
splitShards(const std::string &source, size_t groups)
{
    const std::string marker = std::string(emit::cppsimShardMarker) + "\n";
    std::vector<size_t> cuts;
    for (size_t pos = source.find(marker); pos != std::string::npos;
         pos = source.find(marker, pos + marker.size())) {
        // Only match whole lines: start-of-file or right after '\n'.
        if (pos == 0 || source[pos - 1] == '\n')
            cuts.push_back(pos);
    }
    if (cuts.empty() || groups <= 1)
        return {source};
    groups = std::min(groups, cuts.size());
    std::string prologue = source.substr(0, cuts[0]);

    // Greedy contiguous packing toward an even byte split.
    size_t total = source.size() - cuts[0];
    size_t target = (total + groups - 1) / groups;
    std::vector<std::string> shards;
    std::string body;
    for (size_t i = 0; i < cuts.size(); ++i) {
        size_t begin = cuts[i];
        size_t end = i + 1 < cuts.size() ? cuts[i + 1] : source.size();
        body += source.substr(begin, end - begin);
        bool last = i + 1 == cuts.size();
        if (last || (body.size() >= target &&
                     shards.size() + 1 < groups)) {
            shards.push_back(prologue + body);
            body.clear();
        }
    }
    return shards;
}

/** Sources below this size build faster as one translation unit than
 * as parallel shards (compiler start-up and the link dominate). */
constexpr size_t shardSourceBytes = 64 * 1024;

/** Compile the source file `tmp`.cc (whose text is `source`) into the
 * shared object `tmp`.so with `cxx` and `flags`. It builds as a single
 * translation unit unless the process may run on several cores and the
 * source is big and marker-split: then two byte-balanced objects per
 * usable core are compiled in parallel and linked. Every file it writes
 * is named after `tmp`. fatal() on any failure. */
void
compileSource(const std::string &cxx, const std::vector<std::string> &flags,
              const std::string &source, const std::string &tmp)
{
    unsigned cores = WorkPool::defaultThreads();
    std::vector<std::string> shards =
        source.size() < shardSourceBytes || cores <= 1
            ? std::vector<std::string>{source}
            : splitShards(source, 2 * size_t(cores));
    std::string so = tmp + ".so";

    if (shards.size() <= 1) {
        std::vector<std::string> argv{cxx};
        for (const std::string &f : flags)
            argv.push_back(f);
        argv.insert(argv.end(), {"-o", so, tmp + ".cc"});
        ProcessResult res = runProcess(argv);
        if (!res.ok()) {
            unlink(so.c_str());
            fatal("compiled engine: host compile failed (exit ",
                  res.exitCode, "):\n  ", cxx, " ... -o ", so, " ", tmp,
                  ".cc\n", res.output);
        }
        return;
    }

    // Per-object flags: everything but the link-only -shared, plus -c.
    std::vector<std::string> objFlags;
    for (const std::string &f : flags) {
        if (f != "-shared")
            objFlags.push_back(f);
    }
    objFlags.push_back("-c");

    std::string stem = tmp + ".shard";
    std::vector<std::string> objs(shards.size());
    auto cleanup = [&] {
        for (size_t i = 0; i < shards.size(); ++i) {
            unlink((stem + std::to_string(i) + ".cc").c_str());
            unlink((stem + std::to_string(i) + ".o").c_str());
        }
    };

    // Shard compiles go through the process-wide WorkPool rather than a
    // private thread vector, so a serve host running simulations and
    // compiles at once keeps its combined thread count at the pool
    // width instead of spiking to 2x (see support/pool.h). One
    // participant per usable core; the shards outnumber them, and a
    // participant that drains its own range steals from the others.
    unsigned workers = static_cast<unsigned>(
        std::min<size_t>(shards.size(), cores));
    std::mutex failMutex;
    std::string failure;
    auto work = [&](size_t i) {
        {
            std::lock_guard<std::mutex> lock(failMutex);
            if (!failure.empty())
                return;
        }
        std::string src = stem + std::to_string(i) + ".cc";
        std::string obj = stem + std::to_string(i) + ".o";
        objs[i] = obj;
        if (!writeFile(src, shards[i])) {
            std::lock_guard<std::mutex> lock(failMutex);
            if (failure.empty())
                failure = "cannot write " + src;
            return;
        }
        std::vector<std::string> argv{cxx};
        for (const std::string &f : objFlags)
            argv.push_back(f);
        argv.insert(argv.end(), {"-o", obj, src});
        ProcessResult res = runProcess(argv);
        if (!res.ok()) {
            std::lock_guard<std::mutex> lock(failMutex);
            if (failure.empty()) {
                failure = "shard compile failed (exit " +
                          std::to_string(res.exitCode) + "): " + src +
                          "\n" + res.output;
            }
        }
    };
    WorkPool::global().parallelFor(shards.size(), workers, work);
    if (!failure.empty()) {
        cleanup();
        fatal("compiled engine: ", failure);
    }

    std::vector<std::string> argv{cxx};
    for (const std::string &f : flags)
        argv.push_back(f);
    argv.insert(argv.end(), {"-o", so});
    argv.insert(argv.end(), objs.begin(), objs.end());
    ProcessResult res = runProcess(argv);
    cleanup();
    if (!res.ok()) {
        unlink(so.c_str());
        fatal("compiled engine: shard link failed (exit ", res.exitCode,
              "):\n  ", cxx, " ... -o ", so, "\n", res.output);
    }
}

/** Move `from` to `to` with rename(), so readers of `to` see the old
 * file or the new one, never a partial write. fatal() on failure. */
void
publish(const std::string &from, const std::string &to)
{
    if (rename(from.c_str(), to.c_str()) != 0) {
        unlink(from.c_str());
        fatal("compiled engine: cannot move ", from, " to ", to, ": ",
              std::strerror(errno));
    }
}

template <typename Fn>
Fn
resolveSym(void *handle, const char *name, const std::string &so)
{
    void *sym = dlsym(handle, name);
    if (!sym) {
        fatal("compiled engine: symbol ", name, " missing from ", so,
              " (stale or foreign cache object; remove it and rerun)");
    }
    return reinterpret_cast<Fn>(sym);
}

} // namespace

std::string
compiledCacheDir()
{
    return cacheDir("CALYX_CPPSIM_CACHE", "calyx-cppsim");
}

std::string
compiledEngineUnavailableReason()
{
    if (hostCompiler().empty()) {
        return "no host C++ compiler found (set $CXX or install one of "
               "c++/g++/clang++)";
    }
    return "";
}

std::shared_ptr<CompiledModule>
CompiledModule::load(const SimProgram &prog, uint32_t lanes)
{
    std::ostringstream src;
    emit::CppSimOptions opts;
    opts.lanes = lanes;
    emit::emitCppSim(prog, src, opts);
    std::string source = src.str();
    // The object depends on the compile command as much as the source:
    // a module built under other flags or another compiler must miss.
    std::string cxx = hostCompiler();
    std::vector<std::string> flags = compileFlags(source.size(), lanes);
    std::string command = cxx;
    for (const std::string &f : flags)
        command += " " + f;
    std::string digest = contentDigest(command + "\n" + source);

    std::lock_guard<std::mutex> lock(registryMutex());
    if (auto existing = registry()[digest].lock())
        return existing;

    std::string dir = compiledCacheDir();
    if (!makeDirs(dir)) {
        fatal("compiled engine: cannot create cache directory ", dir, ": ",
              std::strerror(errno));
    }
    std::string so = dir + "/" + digest + ".so";

    auto mod = std::shared_ptr<CompiledModule>(new CompiledModule);
    mod->soPath = so;
    mod->cached = fileExists(so);

    if (!mod->cached) {
        if (cxx.empty())
            fatal("compiled engine: ", compiledEngineUnavailableReason());

        // Build from pid-unique files, then publish the source and the
        // object by rename. Concurrent builds of one digest never read
        // or truncate a file another process is still writing. A failed
        // build leaves its source behind for the diagnostic to name.
        std::string tmp =
            dir + "/" + digest + ".tmp." + std::to_string(getpid());
        if (!writeFile(tmp + ".cc", source))
            fatal("compiled engine: cannot write ", tmp, ".cc");
        compileSource(cxx, flags, source, tmp);
        publish(tmp + ".cc", dir + "/" + digest + ".cc");
        publish(tmp + ".so", so);
    }

    mod->handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!mod->handle)
        fatal("compiled engine: dlopen ", so, ": ", dlerror());

    auto abi = resolveSym<uint32_t (*)()>(mod->handle, "cppsim_abi", so);
    if (abi() != emit::cppsimAbiVersion) {
        fatal("compiled engine: ", so, " has ABI version ", abi(),
              ", expected ", emit::cppsimAbiVersion,
              " (stale cache object; remove it and rerun)");
    }

    mod->ports = resolveSym<uint32_t (*)()>(mod->handle,
                                            "cppsim_num_ports", so)();
    mod->regs = resolveSym<uint32_t (*)()>(mod->handle, "cppsim_num_regs",
                                           so)();
    mod->mems = resolveSym<uint32_t (*)()>(mod->handle, "cppsim_num_mems",
                                           so)();
    mod->lanes = resolveSym<uint32_t (*)()>(mod->handle,
                                            "cppsim_num_lanes", so)();
    if (mod->lanes != lanes) {
        fatal("compiled engine: ", so, " was built for ", mod->lanes,
              " lanes but ", lanes,
              " were requested (hash collision or stale cache; remove it "
              "and rerun)");
    }
    mod->fnMemSize = resolveSym<uint64_t (*)(uint32_t)>(
        mod->handle, "cppsim_mem_size", so);
    mod->drivenMask = resolveSym<const unsigned char *(*)()>(
        mod->handle, "cppsim_driven", so)();
    mod->fnNew = resolveSym<void *(*)()>(mod->handle, "cppsim_new", so);
    mod->fnFree = resolveSym<void (*)(void *)>(mod->handle, "cppsim_free",
                                               so);
    mod->fnBind = resolveSym<void (*)(void *, uint64_t **, uint64_t **)>(
        mod->handle, "cppsim_bind", so);
    mod->fnReset = resolveSym<void (*)(void *, uint64_t *)>(
        mod->handle, "cppsim_reset", so);
    mod->fnEval = resolveSym<void (*)(void *, uint64_t *)>(
        mod->handle, "cppsim_eval", so);
    mod->fnClock = resolveSym<void (*)(void *, uint64_t *)>(
        mod->handle, "cppsim_clock", so);
    mod->fnError = resolveSym<const char *(*)(void *)>(
        mod->handle, "cppsim_error", so);

    if (mod->ports != prog.numPorts()) {
        fatal("compiled engine: ", so, " was built for ", mod->ports,
              " ports but the program has ", prog.numPorts(),
              " (hash collision or stale cache; remove it and rerun)");
    }

    registry()[digest] = mod;
    return mod;
}

CompiledModule::~CompiledModule()
{
    if (handle)
        dlclose(handle);
}

void *
CompiledModule::newInstance() const
{
    void *inst = fnNew();
    if (!inst)
        fatal("compiled engine: instance allocation failed");
    return inst;
}

void
CompiledModule::freeInstance(void *inst) const
{
    if (inst)
        fnFree(inst);
}

void
CompiledModule::bind(void *inst, uint64_t **reg_storage,
                     uint64_t **mem_storage) const
{
    fnBind(inst, reg_storage, mem_storage);
}

void
CompiledModule::reset(void *inst, uint64_t *vals) const
{
    fnReset(inst, vals);
}

void
CompiledModule::eval(void *inst, uint64_t *vals) const
{
    fnEval(inst, vals);
}

void
CompiledModule::clock(void *inst, uint64_t *vals) const
{
    fnClock(inst, vals);
}

const char *
CompiledModule::error(void *inst) const
{
    return fnError(inst);
}

} // namespace calyx::sim
