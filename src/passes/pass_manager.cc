#include "passes/pass_manager.h"

#include <chrono>
#include <iostream>

#include "ir/printer.h"
#include "passes/wellformed.h"
#include "support/error.h"

namespace calyx::passes {

void
Pass::option(const std::string &key, const std::string &value)
{
    fatal("pass '", name(), "' has no option '", key, "' (got '", key, "=",
          value, "')");
}

void
Pass::runOnComponent(Component &, Context &)
{}

void
Pass::runOnContext(Context &ctx)
{
    for (Component *comp : ctx.topologicalOrder())
        runOnComponent(*comp, ctx);
}

PassManager &
PassManager::add(std::unique_ptr<Pass> pass)
{
    passes.push_back(std::move(pass));
    return *this;
}

std::vector<PassRunInfo>
PassManager::run(Context &ctx, const RunOptions &opts) const
{
    using clock = std::chrono::steady_clock;
    std::vector<PassRunInfo> infos;
    infos.reserve(passes.size());
    WellFormed checker;

    for (const auto &pass : passes) {
        PassRunInfo info;
        info.pass = pass->name();
        if (opts.collectStats)
            info.before = gatherStats(ctx);

        auto start = clock::now();
        pass->runOnContext(ctx);
        info.seconds =
            std::chrono::duration<double>(clock::now() - start).count();

        if (opts.collectStats)
            info.after = gatherStats(ctx);

        if (opts.verify) {
            // Check component-by-component so failures can name both
            // the pass that produced the bad IR and the component it
            // broke.
            for (Component *comp : ctx.topologicalOrder()) {
                try {
                    checker.runOnComponent(*comp, ctx);
                } catch (const Error &e) {
                    fatal("verification failed after pass '", pass->name(),
                          "' in component '", comp->name(), "': ",
                          e.what());
                }
            }
        }

        if (!opts.dumpIrAfter.empty() && opts.dumpIrAfter == info.pass) {
            std::ostream &os = opts.dumpTo ? *opts.dumpTo : std::cerr;
            os << "// IR after pass '" << info.pass << "'\n";
            Printer::print(ctx, os);
        }

        infos.push_back(std::move(info));
    }
    return infos;
}

void
PassManager::run(Context &ctx, bool verify) const
{
    RunOptions opts;
    opts.verify = verify;
    run(ctx, opts);
}

} // namespace calyx::passes
