/**
 * @file
 * futil: command-line driver for the Calyx compiler (the artifact's
 * `futil` binary). Reads a textual Calyx program, runs a configurable
 * pass pipeline, and emits the result through a registered backend, or
 * simulates the design.
 *
 * Usage:
 *   futil [options] file.futil
 *     -b <backend>           backend by registry name (default calyx);
 *                            unknown names are a hard error with a
 *                            did-you-mean suggestion
 *     -o <file>              write the emitted artifact to <file>
 *                            (default stdout)
 *     -p <spec>              pipeline spec: comma-separated pass and
 *                            alias names; '-pass' disables a pass,
 *                            'pass[key=val,...]' sets per-pass options
 *                            (default 'default'; repeatable — later
 *                            specs append in order)
 *     -d <pass>              disable a pass (same as appending '-pass')
 *     -x pass[key=val,...]   set options on a pass already in the
 *                            pipeline
 *     --list-passes          list registered passes and aliases, exit
 *     --list-backends        list registered backends, exit
 *     --emit-stats           print emitted line/byte counts and, after
 *                            control lowering, per-component FSM
 *                            statistics (states, registers, encoding,
 *                            seed-equivalent registers, lowering wall
 *                            time) on stderr
 *     --dump-fsm             print the FSM machines built by control
 *                            lowering (states, actions, transitions)
 *                            instead of emitting a backend artifact
 *     --pass-timings         print per-pass wall time and stats deltas
 *     --pass-timings=json    same, as the JSON report envelope on stdout
 *                            (docs/observability.md)
 *     --dump-ir-after <pass> print the IR after the named pass (stderr)
 *     --verify               run the well-formed checker between passes
 *     --no-compile           emit the program without lowering control
 *     --sim                  compile, simulate, report the cycle count
 *     --sim-engine=<e>       combinational engine: levelized (default),
 *                            jacobi (the reference fixed-point), or
 *                            compiled (codegen + JIT via the host CXX)
 *     --batch <N>            batched simulation of N stimulus sets
 *                            (sim/batch.h lane planes); stimuli come
 *                            from --stimuli or default to N copies of
 *                            the zero-initialized design
 *     --stimuli <file>       JSON stimulus batch ({"batch": [...]},
 *                            serve/protocol.h schema) for --batch
 *     --threads <N>          worker threads: partitioned single-
 *                            stimulus simulation, batched simulation,
 *                            and parallel per-component pass execution
 *     --lane-tile <N>        widest compiled tile, in lanes (default
 *                            16; short batch tails run scalar)
 *     --serve                stimulus-stream service: read
 *                            length-prefixed JSON requests on stdin,
 *                            answer on stdout, keep the JIT module
 *                            resident (serve/server.h)
 *     --trace <file>         simulate and write a VCD waveform trace
 *     --trace-scope=<s>      trace scope: top, state, or all (default)
 *     --profile <file>       simulate and write the profile report
 *                            (JSON envelope: compile + sim sections)
 *     --profile-summary      simulate and print the profile table
 *     --area                 print the area estimate
 *     --stats                print cells/groups/control statistics
 *
 * Example:
 *   futil -b firrtl -o design.fir -p all,-collapse-control \
 *         --emit-stats file.futil
 */
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <algorithm>

#include <chrono>

#include "cache/compile_cache.h"
#include "emit/backend.h"
#include "estimate/area.h"
#include "ir/fsm.h"
#include "ir/parser.h"
#include "obs/profile.h"
#include "obs/report.h"
#include "obs/vcd.h"
#include "passes/pipeline.h"
#include "passes/registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/batch.h"
#include "sim/cycle_sim.h"
#include "sim/interp.h"
#include "support/error.h"
#include "support/text.h"

namespace {

/** "jacobi, levelized, or compiled" from the engine registry. */
std::string
engineList()
{
    const auto &infos = calyx::sim::engineInfos();
    std::string s;
    for (size_t i = 0; i < infos.size(); ++i) {
        if (i > 0)
            s += i + 1 == infos.size() ? ", or " : ", ";
        s += infos[i].name;
    }
    return s;
}

int
usage()
{
    std::cerr
        << "usage: futil [options] file.futil\n"
           "  -b <backend>           backend by name (default calyx);\n"
           "                         see --list-backends\n"
           "  -o <file>              write emitted output to <file>\n"
           "  -p <spec>              pipeline spec: comma-separated pass\n"
           "                         and alias names; '-pass' disables,\n"
           "                         'pass[key=val,...]' sets options\n"
           "                         (default 'default'; repeatable)\n"
           "  -d <pass>              disable a pass\n"
           "  -x pass[key=val,...]   set options on a pipeline pass\n"
           "  --list-passes          list passes and aliases, then exit\n"
           "  --list-backends        list backends, then exit\n"
           "  --emit-stats           print emitted line/byte counts and\n"
           "                         FSM lowering statistics\n"
           "  --dump-fsm             print lowered FSM machines\n"
           "  --pass-timings         print per-pass time + stats deltas\n"
           "  --pass-timings=json    same, as a JSON report envelope\n"
           "  --dump-ir-after <pass> print IR after the named pass\n"
           "  --verify               run well-formed checker per pass\n"
           "  --no-compile           emit without lowering control\n"
           "  --sim                  simulate and report cycles\n"
           "  --sim-engine=<e>       "
        << engineList()
        << " (default levelized)\n"
           "  --batch <N>            batched simulation of N stimuli\n"
           "  --stimuli <file>       JSON stimulus batch for --batch\n"
           "  --threads <N>          worker threads: partitioned --sim,\n"
           "                         batch lanes, and per-component\n"
           "                         passes (default 1)\n"
           "  --lane-tile <N>        widest compiled tile, in lanes\n"
           "                         (default 16)\n"
           "  --serve                stimulus-stream service on\n"
           "                         stdin/stdout (length-prefixed JSON)\n"
           "  --trace <file>         simulate, write a VCD trace\n"
           "  --trace-scope=<s>      top, state, or all (default all)\n"
           "  --profile <file>       simulate, write the JSON profile\n"
           "  --profile-summary      simulate, print the profile table\n"
           "  --area                 print the area estimate\n"
           "  --stats                print cells/groups/control stats\n";
    return 2;
}

int
listPasses()
{
    auto &registry = calyx::passes::PassRegistry::instance();
    std::cout << "passes:\n";
    for (const std::string &name : registry.passNames()) {
        const auto *entry = registry.findPass(name);
        std::string aliases;
        for (const std::string &a : registry.aliasesOf(name))
            aliases += (aliases.empty() ? "" : ", ") + a;
        std::printf("  %-20s %s%s\n", name.c_str(),
                    entry->description.c_str(),
                    aliases.empty() ? "" : ("  [" + aliases + "]").c_str());
    }
    std::cout << "\naliases:\n";
    for (const std::string &name : registry.aliasNames()) {
        std::string desc = registry.aliasDescription(name);
        std::printf("  %-10s -> %s\n", name.c_str(),
                    registry.aliasExpansion(name).c_str());
        if (!desc.empty())
            std::printf("  %-10s    (%s)\n", "", desc.c_str());
    }
    return 0;
}

int
listBackends()
{
    auto &registry = calyx::emit::BackendRegistry::instance();
    std::cout << "backends:\n";
    for (const std::string &name : registry.names()) {
        const auto *entry = registry.find(name);
        std::printf("  %-14s %-7s %s%s\n", name.c_str(),
                    entry->fileExtension.c_str(),
                    entry->description.c_str(),
                    entry->requiresLowered ? "" : "  [any stage]");
    }
    return 0;
}

void
printTimings(const std::vector<calyx::passes::PassRunInfo> &infos)
{
    std::printf("%-20s %10s %8s %8s %9s\n", "pass", "time(ms)", "d-cells",
                "d-groups", "d-control");
    double total = 0;
    for (const auto &info : infos) {
        total += info.seconds;
        std::printf("%-20s %10.3f %+8d %+8d %+9d\n", info.pass.c_str(),
                    info.seconds * 1e3, info.after.cells - info.before.cells,
                    info.after.groups - info.before.groups,
                    info.after.controlStatements -
                        info.before.controlStatements);
    }
    std::printf("%-20s %10.3f\n", "total", total * 1e3);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string backend = "calyx";
    std::string file;
    std::string output;
    std::string spec_text;
    std::vector<std::string> disables;
    std::vector<std::string> overrides;
    bool compile = true, simulate = false, area = false, stats = false;
    bool emit_stats = false, dump_fsm = false;
    calyx::sim::Engine sim_engine = calyx::sim::Engine::Levelized;
    bool engine_set = false;
    bool serve = false;
    uint64_t batch = 0; ///< 0 = scalar simulation.
    unsigned threads = 1;
    uint32_t lane_tile = 0; ///< 0 = BatchOptions default.
    std::string stimuli_file;
    calyx::passes::RunOptions run_options;
    bool timings = false, timings_json = false;
    std::string trace_file, profile_file;
    bool profile_summary = false;
    calyx::obs::VcdScope trace_scope = calyx::obs::VcdScope::All;

    auto append_spec = [&spec_text](const std::string &item) {
        if (!spec_text.empty())
            spec_text += ",";
        spec_text += item;
    };

    std::vector<std::string> args(argv + 1, argv + argc);
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "-b") {
            if (++i >= args.size())
                return usage();
            backend = args[i];
        } else if (a == "-o") {
            if (++i >= args.size())
                return usage();
            output = args[i];
        } else if (a == "-p") {
            if (++i >= args.size())
                return usage();
            append_spec(args[i]);
        } else if (a == "-d") {
            if (++i >= args.size())
                return usage();
            disables.push_back(args[i]);
        } else if (a == "-x") {
            if (++i >= args.size())
                return usage();
            overrides.push_back(args[i]);
        } else if (a == "--list-passes") {
            return listPasses();
        } else if (a == "--list-backends") {
            return listBackends();
        } else if (a == "--emit-stats") {
            emit_stats = true;
        } else if (a == "--dump-fsm") {
            dump_fsm = true;
        } else if (a == "--pass-timings") {
            timings = true;
        } else if (a == "--pass-timings=json") {
            timings = true;
            timings_json = true;
        } else if (a == "--trace") {
            if (++i >= args.size())
                return usage();
            trace_file = args[i];
            simulate = true;
        } else if (a.rfind("--trace-scope=", 0) == 0) {
            try {
                trace_scope = calyx::obs::parseVcdScope(
                    a.substr(std::string("--trace-scope=").size()));
            } catch (const calyx::Error &e) {
                std::cerr << "error: " << e.what() << "\n";
                return 2;
            }
        } else if (a == "--profile") {
            if (++i >= args.size())
                return usage();
            profile_file = args[i];
            simulate = true;
        } else if (a == "--profile-summary") {
            profile_summary = true;
            simulate = true;
        } else if (a == "--dump-ir-after") {
            if (++i >= args.size())
                return usage();
            run_options.dumpIrAfter = args[i];
        } else if (a == "--verify") {
            run_options.verify = true;
        } else if (a == "--no-compile") {
            compile = false;
        } else if (a == "--sim") {
            simulate = true;
        } else if (a.rfind("--sim-engine=", 0) == 0) {
            try {
                sim_engine = calyx::sim::parseEngine(
                    a.substr(std::string("--sim-engine=").size()));
                engine_set = true;
            } catch (const calyx::Error &e) {
                std::cerr << "error: " << e.what() << "\n";
                return 2;
            }
        } else if (a == "--sim-engine") {
            if (++i >= args.size())
                return usage();
            try {
                sim_engine = calyx::sim::parseEngine(args[i]);
                engine_set = true;
            } catch (const calyx::Error &e) {
                std::cerr << "error: " << e.what() << "\n";
                return 2;
            }
        } else if (a == "--serve") {
            serve = true;
        } else if (a == "--batch") {
            if (++i >= args.size())
                return usage();
            batch = std::strtoull(args[i].c_str(), nullptr, 10);
            if (batch == 0) {
                std::cerr << "error: --batch wants a positive count\n";
                return 2;
            }
        } else if (a == "--stimuli") {
            if (++i >= args.size())
                return usage();
            stimuli_file = args[i];
        } else if (a == "--threads") {
            if (++i >= args.size())
                return usage();
            threads = static_cast<unsigned>(
                std::strtoul(args[i].c_str(), nullptr, 10));
            if (threads == 0) {
                std::cerr << "error: --threads wants a positive count\n";
                return 2;
            }
        } else if (a == "--lane-tile") {
            if (++i >= args.size())
                return usage();
            lane_tile = static_cast<uint32_t>(
                std::strtoul(args[i].c_str(), nullptr, 10));
            if (lane_tile == 0) {
                std::cerr << "error: --lane-tile wants a positive "
                             "count\n";
                return 2;
            }
        } else if (a == "--area") {
            area = true;
        } else if (a == "--stats") {
            stats = true;
        } else if (!a.empty() && a[0] == '-') {
            return usage();
        } else {
            file = a;
        }
    }
    if (file.empty())
        return usage();

    std::ifstream in(file);
    if (!in) {
        std::cerr << "cannot open " << file << "\n";
        return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();

    bool batched = batch > 0 || !stimuli_file.empty();
    try {
        // Flag conflicts are hard errors before any compilation work:
        // observers hook one scalar trajectory and have no meaning
        // over lane planes (docs/observability.md).
        if (serve || batched) {
            const std::string mode = serve ? "--serve" : "--batch";
            if (!trace_file.empty())
                calyx::serve::rejectObserverFlag("--trace", mode);
            if (!profile_file.empty() || profile_summary)
                calyx::serve::rejectObserverFlag("--profile", mode);
            if (serve && batched)
                calyx::fatal("--serve reads stimulus batches from "
                             "stdin; drop --batch/--stimuli");
        }

        // Resolve the backend up front so `futil -b nonsense` is a hard
        // error before any compilation work happens.
        std::unique_ptr<calyx::emit::Backend> emitter =
            calyx::emit::BackendRegistry::instance().create(backend);

        if (spec_text.empty())
            spec_text = "default";
        // Disables go last so `-d pass` works no matter where it
        // appears relative to -p on the command line.
        for (const std::string &d : disables)
            append_spec("-" + d);
        calyx::passes::PipelineSpec spec =
            calyx::passes::parsePipelineSpec(spec_text);
        for (const std::string &item : overrides)
            calyx::passes::applyPassOptions(spec, item);
        if (!run_options.dumpIrAfter.empty()) {
            if (!calyx::passes::PassRegistry::instance().hasPass(
                    run_options.dumpIrAfter))
                calyx::fatal("--dump-ir-after: unknown pass '",
                             run_options.dumpIrAfter, "'");
            bool scheduled = false;
            for (const auto &inv : spec.passes)
                scheduled |= inv.name == run_options.dumpIrAfter;
            if (!scheduled)
                calyx::fatal("--dump-ir-after: pass '",
                             run_options.dumpIrAfter,
                             "' is not in the pipeline '", spec.str(),
                             "'");
        }
        // The profile envelope embeds the compile section, so collect
        // stats whenever either consumer wants them.
        run_options.collectStats = timings || !profile_file.empty();
        run_options.threads = threads;

        calyx::Context ctx =
            calyx::Parser::parseProgram(buffer.str());
        if (stats) {
            auto s = calyx::passes::gatherStats(ctx);
            std::cout << "cells: " << s.cells << "\ngroups: " << s.groups
                      << "\ncontrol statements: " << s.controlStatements
                      << "\n";
        }
        std::vector<calyx::passes::PassRunInfo> pass_infos;
        if (compile) {
            pass_infos =
                calyx::passes::runPipeline(ctx, spec, run_options);
            if (timings) {
                if (timings_json) {
                    calyx::json::Value env =
                        calyx::obs::reportEnvelope(file);
                    env.set("compile", calyx::obs::passTimingsJson(
                                           spec.str(), pass_infos));
                    env.write(std::cout);
                    std::cout << "\n";
                } else {
                    printTimings(pass_infos);
                }
            }
        }
        if (emit_stats) {
            // Deterministic order: components sorted by name, not the
            // registration/hash order the context happens to hold.
            std::vector<const calyx::Component *> stat_comps;
            for (const auto &comp : ctx.components())
                stat_comps.push_back(comp.get());
            std::sort(stat_comps.begin(), stat_comps.end(),
                      [](const calyx::Component *a,
                         const calyx::Component *b) {
                          return a->name().str() < b->name().str();
                      });
            for (const calyx::Component *comp : stat_comps) {
                calyx::FsmStats fs = calyx::fsmStats(*comp);
                if (fs.machines == 0)
                    continue;
                const char *enc = "binary";
                for (const auto &m : comp->fsms())
                    if (m->encoding() == calyx::FsmEncoding::OneHot)
                        enc = "one-hot";
                std::fprintf(
                    stderr,
                    "fsm[%s]: machines=%d states=%d codes=%lld "
                    "transitions=%lld counter-states=%lld registers=%d "
                    "helpers=%d control-registers=%d seed-registers=%d "
                    "encoding=%s lowering=%.3fms\n",
                    comp->name().str().c_str(), fs.machines, fs.states,
                    static_cast<long long>(fs.codes),
                    static_cast<long long>(fs.transitions),
                    static_cast<long long>(fs.counterStates),
                    fs.registers, fs.helperRegisters,
                    fs.controlRegisters, fs.seedRegisters, enc,
                    fs.loweringSeconds * 1e3);
            }
        }
        if (dump_fsm) {
            for (const auto &comp : ctx.components()) {
                if (comp->fsms().empty())
                    continue;
                std::cout << "component " << comp->name().str() << ":\n";
                for (const auto &m : comp->fsms())
                    std::cout << m->str();
            }
        }
        if (area) {
            calyx::estimate::AreaEstimator est(ctx);
            auto a = est.estimateProgram();
            std::cout << "LUTs: " << a.luts << "\nFFs: " << a.ffs
                      << "\nDSPs: " << a.dsps
                      << "\nregisters: " << a.registers << "\n";
        }
        if (serve) {
            calyx::sim::SimProgram sp(ctx, ctx.entrypoint());
            calyx::serve::ServeOptions so;
            // A resident service wants the resident-module engine
            // unless the user explicitly asked for another one.
            so.engine = engine_set ? sim_engine
                                   : calyx::sim::Engine::Compiled;
            so.threads = threads;
            so.laneTile = lane_tile;
            so.file = file;
            // Opt into the persistent compile-cache tier the same way
            // the cppsim module cache does: via environment.
            if (const char *dir = std::getenv("CALYX_COMPILE_CACHE");
                dir && *dir)
                so.compileCache.diskDir =
                    calyx::cache::compileCacheDir();
            calyx::serve::ServeStats st =
                calyx::serve::serve(sp, std::cin, std::cout, so);
            std::cerr << "serve: " << st.requests << " requests ("
                      << st.runs << " runs, " << st.stimuli
                      << " stimuli, " << st.compiles << " compiles, "
                      << st.errors << " rejected)\n";
        }
        if (batched) {
            calyx::sim::SimProgram sp(ctx, ctx.entrypoint());
            calyx::sim::BatchOptions bo;
            bo.engine = engine_set ? sim_engine
                                   : calyx::sim::Engine::Compiled;
            bo.threads = threads;
            if (lane_tile)
                bo.laneTile = lane_tile;

            std::vector<calyx::sim::Stimulus> stimuli;
            if (!stimuli_file.empty()) {
                std::ifstream sin(stimuli_file);
                if (!sin)
                    calyx::fatal("cannot open ", stimuli_file);
                std::stringstream sbuf;
                sbuf << sin.rdbuf();
                calyx::json::Value doc = calyx::json::parse(sbuf.str());
                const calyx::json::Value *arr =
                    doc.kind() == calyx::json::Value::Kind::Obj
                        ? doc.find("batch")
                        : &doc;
                if (!arr)
                    calyx::fatal(stimuli_file,
                                 ": no 'batch' array in stimulus file");
                stimuli = calyx::serve::parseStimuli(*arr);
                if (stimuli.empty())
                    calyx::fatal(stimuli_file, ": empty stimulus batch");
                // --batch N with a shorter file cycles the stimuli.
                if (batch == 0)
                    batch = stimuli.size();
                size_t given = stimuli.size();
                stimuli.reserve(batch);
                for (size_t s = given; s < batch; ++s)
                    stimuli.push_back(stimuli[s % given]);
                stimuli.resize(batch);
            } else {
                stimuli.assign(batch, calyx::sim::Stimulus{});
            }

            calyx::sim::BatchRunner runner(sp, bo);
            auto t0 = std::chrono::steady_clock::now();
            std::vector<calyx::sim::LaneResult> lanes =
                runner.run(stimuli);
            double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
            uint64_t lo = lanes.front().cycles, hi = lo;
            for (const auto &lane : lanes) {
                lo = std::min(lo, lane.cycles);
                hi = std::max(hi, lane.cycles);
            }
            std::cout << "batch: " << lanes.size() << " stimuli, "
                      << "cycles: " << lo;
            if (hi != lo)
                std::cout << ".." << hi;
            std::cout << ", " << std::fixed << std::setprecision(1)
                      << (secs > 0 ? double(lanes.size()) / secs : 0.0)
                      << " stimuli/s ("
                      << calyx::sim::engineName(bo.engine) << ", tile "
                      << bo.laneTile << ", " << bo.threads
                      << (bo.threads == 1 ? " thread)" : " threads)")
                      << "\n";
        }
        if (simulate) {
            calyx::sim::SimProgram sp(ctx, ctx.entrypoint());

            std::ofstream trace_out;
            std::unique_ptr<calyx::obs::VcdWriter> vcd;
            if (!trace_file.empty()) {
                trace_out.open(trace_file);
                if (!trace_out)
                    calyx::fatal("cannot write ", trace_file);
                vcd = std::make_unique<calyx::obs::VcdWriter>(
                    sp, trace_out, trace_scope);
            }
            std::unique_ptr<calyx::obs::Profiler> profiler;
            if (!profile_file.empty() || profile_summary)
                profiler = std::make_unique<calyx::obs::Profiler>(sp);

            auto attach = [&](calyx::sim::SimState &state) {
                if (vcd)
                    state.addObserver(vcd.get());
                if (profiler)
                    state.addObserver(profiler.get());
            };

            // Programs that still have groups (--no-compile, partial
            // pipelines) run under the control interpreter; lowered
            // ones under the cycle simulator.
            uint64_t cycles;
            if (sp.hasGroups()) {
                calyx::sim::Interp interp(sp, sim_engine);
                interp.state().setThreads(threads);
                attach(interp.state());
                cycles = interp.run();
            } else {
                calyx::sim::CycleSim cs(sp, sim_engine);
                cs.state().setThreads(threads);
                attach(cs.state());
                cycles = cs.run();
            }
            std::cout << "cycles: " << cycles << "\n";

            if (profiler && profile_summary)
                profiler->printSummary(std::cout);
            if (profiler && !profile_file.empty()) {
                calyx::json::Value env = calyx::obs::reportEnvelope(file);
                if (!pass_infos.empty())
                    env.set("compile", calyx::obs::passTimingsJson(
                                           spec.str(), pass_infos));
                calyx::json::Value sim_obj = calyx::json::Value::object();
                sim_obj.set("engine", calyx::json::Value::str(
                                          calyx::sim::engineName(
                                              sim_engine)));
                sim_obj.set("profile", profiler->report());
                env.set("sim", std::move(sim_obj));
                std::ofstream out(profile_file);
                if (!out)
                    calyx::fatal("cannot write ", profile_file);
                env.write(out);
                out << "\n";
            }
        }
        bool emits = !output.empty() ||
                     (!simulate && !area && !stats && !timings &&
                      !dump_fsm && !serve && !batched);
        if (emits) {
            if (output.empty() && !emit_stats) {
                emitter->emit(ctx, std::cout); // stream large artifacts
            } else {
                // -o materializes first so a failing backend cannot
                // leave a truncated artifact behind; --emit-stats needs
                // the whole text anyway.
                std::string text = emitter->emitString(ctx);
                if (output.empty()) {
                    std::cout << text;
                } else {
                    std::ofstream out(output);
                    if (!out)
                        calyx::fatal("cannot write ", output);
                    out << text;
                }
                if (emit_stats) {
                    std::fprintf(stderr, "%s: %d lines, %zu bytes%s%s\n",
                                 backend.c_str(), calyx::countLines(text),
                                 text.size(),
                                 output.empty() ? "" : " -> ",
                                 output.c_str());
                }
            }
        }
    } catch (const calyx::Error &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
