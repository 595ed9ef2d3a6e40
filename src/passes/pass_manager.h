#ifndef CALYX_PASSES_PASS_MANAGER_H
#define CALYX_PASSES_PASS_MANAGER_H

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "ir/context.h"
#include "passes/design_stats.h"

namespace calyx::passes {

/**
 * Base class for compiler passes (paper §4: "an open-source pass-based
 * compiler"). Most passes are per-component; whole-program passes
 * override runOnContext. The default context traversal visits components
 * in dependency order so information can flow from callees to callers
 * (e.g. inferred component latencies).
 */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Stable kebab-case name, also the registry key. */
    virtual std::string name() const = 0;

    /**
     * Configure the pass from a string key/value (the `[k=v]` syntax of
     * pipeline specs and the driver's `-x`). The default implementation
     * rejects every key; passes with options override it.
     */
    virtual void option(const std::string &key, const std::string &value);

    virtual void runOnComponent(Component &comp, Context &ctx);

    virtual void runOnContext(Context &ctx);
};

/** Instrumentation record for one executed pass. */
struct PassRunInfo
{
    std::string pass;
    /** Wall-clock time spent in the pass. */
    double seconds = 0.0;
    /** Whole-program stats around the pass (only with collectStats). */
    DesignStats before, after;
};

/** Instrumentation and validation settings for PassManager::run. */
struct RunOptions
{
    /** Run the WellFormed checker after every pass; failures name the
     * offending pass and component. */
    bool verify = false;
    /** Gather DesignStats before/after each pass (extra IR walks). */
    bool collectStats = false;
    /** When non-empty, print the IR after every pass with this name. */
    std::string dumpIrAfter;
    /** Stream for dumpIrAfter (defaults to std::cerr when null). */
    std::ostream *dumpTo = nullptr;
};

/** Runs a pipeline of passes with optional validation/instrumentation. */
class PassManager
{
  public:
    /** Append a pass. Returns *this for chaining. */
    PassManager &add(std::unique_ptr<Pass> pass);

    template <typename P, typename... Args>
    PassManager &
    add(Args &&...args)
    {
        return add(std::make_unique<P>(std::forward<Args>(args)...));
    }

    /**
     * Run all passes in order, returning one timing/stats record per
     * pass. With opts.verify, the WellFormed checker runs after every
     * pass and failures name the offending pass and component.
     */
    std::vector<PassRunInfo> run(Context &ctx,
                                 const RunOptions &opts) const;

    /** Compatibility overload: run with only verification configured. */
    void run(Context &ctx, bool verify = false) const;

    /** The passes in execution order. */
    const std::vector<std::unique_ptr<Pass>> &pipeline() const
    {
        return passes;
    }

  private:
    std::vector<std::unique_ptr<Pass>> passes;
};

} // namespace calyx::passes

#endif // CALYX_PASSES_PASS_MANAGER_H
