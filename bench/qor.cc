/**
 * @file
 * Quality of results for the paper's evaluation (§7): figure 7
 * (systolic arrays against HLS), figure 8 (the 19 PolyBench kernels and
 * 11 unrolled variants against HLS), figures 9a-c (resource sharing,
 * register sharing, Sensitive) and the §9 resource-sharing threshold.
 *
 * Each summary line is one row of kRows: the geomean over a set of
 * designs of a metric under one pipeline divided by a metric under
 * another, or under the HLS model. Each design is compiled and
 * simulated on the levelized engine once per distinct pass list, and
 * every run's final memories are checked against a reference; a
 * mismatch names the design and the pipeline and exits nonzero.
 *
 * Writes BENCH_qor.json in the working directory: each pipeline's pass
 * list, cycles, LUTs and registers per design and pipeline, then the
 * rows. Nothing in it depends on the host or on timing, so CI reruns
 * the driver and diffs the file against the committed copy.
 *
 * Usage: bench_qor   (takes no arguments)
 */
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "estimate/area.h"
#include "frontends/dahlia/parser.h"
#include "frontends/systolic/systolic.h"
#include "hls/scheduler.h"
#include "sim/cycle_sim.h"
#include "support/error.h"
#include "support/json.h"
#include "workloads/harness.h"
#include "workloads/polybench.h"

using namespace calyx;

namespace {

enum Metric { Cycles, Luts, Registers };
const char *const kMetricNames[] = {"cycles", "luts", "registers"};

/** Cycles, LUTs and registers of one design under one pipeline. */
using Qor = std::array<double, 3>;

/** The pseudo-pipeline naming the HLS model (hls::scheduleProgram). */
const std::string kHls = "hls";

struct Design
{
    std::string name;
    std::string set; ///< "systolic", "polybench" or "unrolled"
    int dim = 0;     ///< systolic array size; 0 for a Dahlia design
    dahlia::Program program;
    workloads::MemState inputs, expected;
    std::map<std::string, Qor> runs; ///< by pipeline name
};

/** One summary line: `metric` under `num` over `metric` under `den`. */
struct Row
{
    const char *figure, *label;
    const char *designs; ///< a design set, or one design's name
    Metric metric;
    /** Pipelines, spelled as for futil: a `-p` spec, then optionally
     * ` -x pass[k=v]`; or kHls. */
    std::string num, den;
    std::optional<double> paper;
    bool count = false; ///< count the ratios above 1 instead
};

const std::string kSensitive = "all,-resource-sharing,-register-sharing";
const std::string kNoSharing =
    "all,-static,-resource-sharing,-register-sharing";
const std::string kShareRegs = "all,-resource-sharing,-static";
const std::string kThreshold = "all,-register-sharing,-static";

const std::vector<Row> kRows = {
    {"fig7", "speedup over HLS", "systolic", Cycles, kHls, kSensitive, 4.6},
    {"fig7", "LUT factor vs HLS", "systolic", Luts, kSensitive, kHls, 1.11},
    {"fig7", "8x8 speedup over HLS", "systolic_8x8", Cycles, kHls,
     kSensitive, 10.78},
    {"fig7", "8x8 LUT factor vs HLS", "systolic_8x8", Luts, kSensitive,
     kHls, 1.3},
    {"fig7", "Sensitive speedup", "systolic", Cycles, "default", kSensitive,
     1.9},
    {"fig7", "Sensitive area ratio (insens/sens)", "systolic", Luts,
     "default", kSensitive, 1.1},
    {"fig8", "cycle slowdown", "polybench", Cycles, "all", kHls, 3.1},
    {"fig8", "LUT increase", "polybench", Luts, "all", kHls, 1.2},
    {"fig8", "unrolled cycle slowdown", "unrolled", Cycles, "all", kHls, 2.3},
    {"fig8", "unrolled LUT increase", "unrolled", Luts, "all", kHls, 2.2},
    {"fig9a", "resource sharing LUTs", "polybench", Luts,
     "all,-static,-register-sharing", kNoSharing, 1.03},
    {"fig9a", "register sharing LUTs", "polybench", Luts,
     "all,-static,-resource-sharing", kNoSharing, 1.11},
    {"fig9a", "both LUTs", "polybench", Luts, "all,-static", kNoSharing, {}},
    {"fig9b", "register decrease", "polybench", Registers, "default",
     kShareRegs, 1.14},
    {"fig9b", "kernels with sharing opportunities", "polybench", Registers,
     "default", kShareRegs, 19, true},
    {"fig9c", "Sensitive speedup", "polybench", Cycles, "default",
     kSensitive, 1.43},
    {"fig9c", "LUT ratio", "polybench", Luts, kSensitive, "default", {}},
    // min-width=0 is the pass default: fig 9a's resource-sharing run.
    {"ablation", "threshold 0 LUTs", "polybench", Luts, kThreshold,
     "default", {}},
    {"ablation", "threshold 8 LUTs", "polybench", Luts,
     kThreshold + " -x resource-sharing[min-width=8]", "default", {}},
    {"ablation", "threshold 16 LUTs", "polybench", Luts,
     kThreshold + " -x resource-sharing[min-width=16]", "default", {}},
    {"ablation", "threshold 33 LUTs", "polybench", Luts,
     kThreshold + " -x resource-sharing[min-width=33]", "default", {}},
};

/**
 * The HLS model of a design. For an n×n systolic array it is a matmul
 * kernel whose two outer loops the paper's HLS design fully unrolls.
 * That binds one MAC per output, but the design is memory-port bound,
 * so its throughput is the sequential nest's: cycles come from the
 * sequential nest, area from the outer-unrolled one.
 */
Qor
runHls(const Design &d)
{
    if (!d.dim) {
        hls::HlsReport h = hls::scheduleProgram(d.program);
        return {static_cast<double>(h.cycles), h.luts, 0};
    }
    std::string n = std::to_string(d.dim);
    std::string mat = ": ubit<32>[" + n + "][" + n + "];\n";
    auto schedule = [&](const std::string &unroll) {
        std::string loop = ": ubit<6> = 0.." + n + ")" + unroll + " {\n";
        return hls::scheduleProgram(dahlia::parse(
            "decl A" + mat + "decl B" + mat + "decl C" + mat + "for (let i" +
            loop + "for (let j" + loop + "let acc: ubit<32> = 0;\n---\n" +
            "for (let k: ubit<6> = 0.." + n + ") {\n" +
            "acc := acc + A[i][k] * B[k][j];\n}\n---\nC[i][j] := acc;\n}\n}"));
    };
    return {static_cast<double>(schedule("").cycles),
            schedule(" unroll " + n).luts, 0};
}

/** A pipeline's name in the output and its parsed pass list. */
struct Pipeline
{
    std::string name;
    passes::PipelineSpec spec;
};

/** Pass list (PipelineSpec::str) → the first spelling that asked for
 * it, which names the pipeline in the output. */
std::map<std::string, std::string> pipelineNames;

Pipeline
resolve(const std::string &spelling)
{
    if (spelling == kHls)
        return {kHls, {}};
    size_t x = spelling.find(" -x ");
    Pipeline p{spelling, passes::parsePipelineSpec(spelling.substr(0, x))};
    if (x != std::string::npos)
        passes::applyPassOptions(p.spec, spelling.substr(x + 4));
    p.name = pipelineNames.emplace(p.spec.str(), spelling).first->second;
    return p;
}

/** `d` compiled under `p` and simulated; its final memories must
 * equal `d.expected`. */
Qor
runCalyx(const Design &d, const Pipeline &p)
{
    workloads::MemState final_state;
    uint64_t cycles = 0;
    estimate::Area area;
    if (d.dim) {
        Context ctx;
        systolic::Config cfg;
        cfg.rows = cfg.cols = cfg.inner = d.dim;
        systolic::generate(ctx, cfg);
        passes::runPipeline(ctx, p.spec);
        area = estimate::AreaEstimator(ctx).estimateProgram();
        sim::SimProgram sp(ctx, "main");
        for (const auto &[mem, data] : d.inputs)
            *sp.findModel(mem)->memory() = data;
        cycles = sim::CycleSim(sp, sim::Engine::Levelized).run();
        final_state[systolic::outMemName] =
            *sp.findModel(systolic::outMemName)->memory();
    } else {
        workloads::HardwareResult hw = workloads::runOnHardware(
            d.program, p.spec, d.inputs, &final_state);
        cycles = hw.cycles;
        area = hw.area;
    }
    for (const auto &[mem, data] : d.expected) {
        if (final_state.at(mem) != data)
            fatal(d.name, " under ", p.name, ": memory ", mem,
                  " differs from the reference");
    }
    return {static_cast<double>(cycles), area.luts,
            static_cast<double>(area.registers)};
}

/** `d` under `p`, measured once per design and distinct pass list. */
const Qor &
measure(Design &d, const Pipeline &p)
{
    auto [it, fresh] = d.runs.try_emplace(p.name);
    if (fresh)
        it->second = p.name == kHls ? runHls(d) : runCalyx(d, p);
    return it->second;
}

/**
 * The systolic arrays take A[i][k] = i + k + 1 into left memory i and
 * B[k][j] = 2j + k + 1 into top memory j, and are checked against the
 * row-major product in `out_mem`. A Dahlia design is checked against
 * the Dahlia interpreter on every memory.
 */
std::vector<Design>
allDesigns()
{
    std::vector<Design> designs;
    for (int n : {2, 4, 6, 8}) {
        Design d;
        d.name = "systolic_" + std::to_string(n) + "x" + std::to_string(n);
        d.set = "systolic";
        d.dim = n;
        auto &out = d.expected[systolic::outMemName];
        out.assign(n * n, 0);
        for (int i = 0; i < n; ++i) {
            for (int k = 0; k < n; ++k) {
                d.inputs[systolic::leftMemName(i)].push_back(i + k + 1);
                d.inputs[systolic::topMemName(i)].push_back(2 * i + k + 1);
                for (int j = 0; j < n; ++j)
                    out[i * n + j] += uint64_t(i + k + 1) * (2 * j + k + 1);
            }
        }
        designs.push_back(std::move(d));
    }
    auto dahlia = [&designs](const workloads::Kernel &k, bool unrolled) {
        Design d;
        d.name = unrolled ? k.name + "_unrolled" : k.name;
        d.set = unrolled ? "unrolled" : "polybench";
        d.program = dahlia::parse(unrolled ? k.unrolledSource : k.source);
        d.inputs = workloads::makeInputs(k.name, d.program);
        d.expected = workloads::runOnInterp(d.program, d.inputs);
        designs.push_back(std::move(d));
    };
    for (const workloads::Kernel &k : workloads::kernels()) {
        dahlia(k, false);
        if (!k.unrolledSource.empty())
            dahlia(k, true);
    }
    return designs;
}

} // namespace

int
main(int argc, char **)
{
    if (argc > 1) {
        std::fprintf(stderr, "usage: bench_qor (takes no arguments)\n");
        return 2;
    }
    try {
        std::vector<Design> designs = allDesigns();
        json::Value rows = json::Value::array();
        std::printf("%-9s %-36s %9s  [paper]\n", "figure", "summary",
                    "value");
        for (const Row &r : kRows) {
            Pipeline num = resolve(r.num), den = resolve(r.den);
            double logs = 0;
            int n = 0, above = 0;
            for (Design &d : designs) {
                if (d.set != r.designs && d.name != r.designs)
                    continue;
                double ratio =
                    measure(d, num)[r.metric] / measure(d, den)[r.metric];
                logs += std::log(ratio);
                above += ratio > 1;
                ++n;
            }
            double value = r.count ? above : std::exp(logs / n);
            std::printf("%-9s %-36s ", r.figure, r.label);
            if (r.count)
                std::printf("%6d/%-2d", above, n);
            else
                std::printf("%8.3fx", value);
            if (r.paper)
                std::printf("  [%g]\n", *r.paper);
            else
                std::printf("  [-]\n");

            json::Value row = json::Value::object();
            row.set("figure", json::Value::str(r.figure));
            row.set("label", json::Value::str(r.label));
            row.set("designs", json::Value::str(r.designs));
            row.set("statistic", json::Value::str(r.count ? "count above 1"
                                                          : "geomean"));
            row.set("metric", json::Value::str(kMetricNames[r.metric]));
            row.set("numerator", json::Value::str(num.name));
            row.set("denominator", json::Value::str(den.name));
            row.set("value", json::Value::real(value));
            row.set("paper", r.paper ? json::Value::real(*r.paper)
                                     : json::Value());
            rows.push(std::move(row));
        }

        json::Value doc = json::Value::object();
        json::Value pipelines = json::Value::object();
        for (const auto &[passes, name] : pipelineNames)
            pipelines.set(name, json::Value::str(passes));
        doc.set("pipelines", std::move(pipelines));
        json::Value runs = json::Value::array();
        for (const Design &d : designs) {
            for (const auto &[pipeline, q] : d.runs) {
                json::Value run = json::Value::object();
                run.set("design", json::Value::str(d.name));
                run.set("pipeline", json::Value::str(pipeline));
                run.set("cycles", json::Value::number(uint64_t(q[Cycles])));
                run.set("luts", json::Value::real(q[Luts]));
                if (pipeline != kHls)
                    run.set("registers",
                            json::Value::number(uint64_t(q[Registers])));
                runs.push(std::move(run));
            }
        }
        doc.set("runs", std::move(runs));
        doc.set("rows", std::move(rows));
        std::ofstream out("BENCH_qor.json");
        doc.write(out);
        if (!(out << "\n").flush())
            fatal("cannot write BENCH_qor.json");
    } catch (const Error &e) {
        std::fprintf(stderr, "bench_qor: %s\n", e.what());
        return 1;
    }
    return 0;
}
