#ifndef CALYX_SIM_COMPILED_H
#define CALYX_SIM_COMPILED_H

#include <cstdint>
#include <memory>
#include <string>

namespace calyx::sim {

class SimProgram;

/**
 * JIT driver for the compiled simulation engine
 * (`--sim-engine=compiled`): takes the C++ module generated by the
 * `cppsim` backend (emit/cppsim.h), compiles it with the host
 * toolchain into a shared object, dlopen()s it, and exposes the
 * `cppsim_*` C ABI behind a typed interface consumed by SimState.
 *
 * Modules are content-addressed: the compile command (compiler and
 * flags) and the generated source are hashed together
 * (support/hash.h), and the object cached on disk under
 *
 *   $CALYX_CPPSIM_CACHE, else $XDG_CACHE_HOME/calyx-cppsim,
 *   else $HOME/.cache/calyx-cppsim, else /tmp/calyx-cppsim
 *
 * as `<digest>.so`, beside its source `<digest>.cc`. A second run of
 * the same program dlopen()s the cached object without invoking the
 * compiler. A build compiles from files named after its process id and
 * rename()s the source and the object into place, so concurrent
 * processes building one digest never read each other's partial
 * files. Loaded modules are additionally shared process-wide
 * through a weak_ptr registry keyed by the same digest, so many
 * SimStates over the same program share one dlopen() handle.
 *
 * The toolchain is `$CXX` when set, else the first of c++/g++/clang++
 * on PATH, invoked as `<cxx> -O<n> -shared -fPIC -std=c++17`, where
 * the level falls as the source grows and lane modules add
 * `-march=native` (override the flags with $CALYX_CPPSIM_CXXFLAGS,
 * whitespace-separated). Sources of 64 KB and more build as two
 * shards per usable core, compiled in parallel and linked. When no compiler exists the
 * constructor fatal()s with the reason compiledEngineUnavailableReason()
 * reports, so callers can probe and fall back gracefully.
 */
class CompiledModule
{
  public:
    /**
     * Codegen `prog`, then reuse a process- or disk-cached object when
     * the generated source matches, else compile. fatal() on codegen
     * rejection (groups, unconditional combinational cycles), missing
     * toolchain, compiler failure (with the compiler's output), or an
     * ABI/shape mismatch in a loaded object.
     *
     * `lanes` > 1 requests a lane module (CppSimOptions::lanes): one
     * eval()/clock() advances `lanes` independent stimulus sets over
     * SoA port planes (`vals[port * lanes + lane]`), with per-lane
     * register/memory storage behind bind(). Each lane count is its
     * own source, digest, and cache entry.
     *
     * Every module runs one eval() per settle on the calling thread;
     * threads only ever run whole modules side by side (batch tiles,
     * sim/batch.h), each on its own instance.
     */
    static std::shared_ptr<CompiledModule> load(const SimProgram &prog,
                                                uint32_t lanes = 1);

    ~CompiledModule();

    CompiledModule(const CompiledModule &) = delete;
    CompiledModule &operator=(const CompiledModule &) = delete;

    /** True when the object came from cache (no compiler invocation). */
    bool fromCache() const { return cached; }

    /** Path of the cached shared object backing this module. */
    const std::string &objectPath() const { return soPath; }

    uint32_t numPorts() const { return ports; }
    uint32_t numRegs() const { return regs; }
    uint32_t numMems() const { return mems; }

    /** Stimulus lanes one eval()/clock() advances (1 = scalar). */
    uint32_t numLanes() const { return lanes; }

    /** Flattened word count of memory slot `i` for ONE lane. */
    uint64_t memSize(uint32_t i) const { return fnMemSize(i); }

    /** Per-port mask: 1 when eval() computes the port (forces on such
     * ports are rejected by the engine). */
    const unsigned char *driven() const { return drivenMask; }

    /** Opaque per-SimState instance of the generated module. */
    void *newInstance() const;
    void freeInstance(void *inst) const;

    /**
     * Point the instance's register and memory state at the
     * interpreter's PrimModel storage (model order). Sizes must match
     * numRegs()/numMems().
     */
    void bind(void *inst, uint64_t **reg_storage,
              uint64_t **mem_storage) const;

    /** Zero internal state and write constant-folded port values. */
    void reset(void *inst, uint64_t *vals) const;

    /** One full combinational settle over `vals`. */
    void eval(void *inst, uint64_t *vals) const;

    /** One clock edge for every stateful primitive. */
    void clock(void *inst, uint64_t *vals) const;

    /** Sticky runtime error (unsettled SCC, OOB write), or nullptr. */
    const char *error(void *inst) const;

  private:
    CompiledModule() = default;

    void *handle = nullptr;
    std::string soPath;
    bool cached = false;

    uint32_t ports = 0, regs = 0, mems = 0, lanes = 1;
    const unsigned char *drivenMask = nullptr;

    uint64_t (*fnMemSize)(uint32_t) = nullptr;
    void *(*fnNew)() = nullptr;
    void (*fnFree)(void *) = nullptr;
    void (*fnBind)(void *, uint64_t **, uint64_t **) = nullptr;
    void (*fnReset)(void *, uint64_t *) = nullptr;
    void (*fnEval)(void *, uint64_t *) = nullptr;
    void (*fnClock)(void *, uint64_t *) = nullptr;
    const char *(*fnError)(void *) = nullptr;
};

/**
 * "" when the compiled engine can run here, else a one-line reason
 * (no host C++ compiler found). Probed by tests, the bench harness,
 * and the CI smoke script to skip instead of fail.
 */
std::string compiledEngineUnavailableReason();

/** The cache directory currently in effect (created on demand). */
std::string compiledCacheDir();

} // namespace calyx::sim

#endif // CALYX_SIM_COMPILED_H
