#include "workload.h"

#include <cctype>

#include "estimate/area.h"
#include "frontends/dahlia/codegen.h"
#include "frontends/dahlia/parser.h"
#include "frontends/systolic/systolic.h"
#include "hls/scheduler.h"
#include "ir/printer.h"
#include "passes/pipeline_spec.h"
#include "sim/cycle_sim.h"
#include "support/error.h"
#include "workloads/harness.h"
#include "workloads/polybench.h"

namespace calyx::bench {

namespace {

constexpr int systolicDim = 16;

/** The eight kernels of the PolyBench workloads, in invocation order. */
const std::vector<std::string> polyKernels = {
    "gemm", "atax", "mvt", "bicg", "2mm", "gesummv", "syrk", "trmm"};

bool
isPoly(const std::string &name)
{
    return name == "polybench-8" || name == "polybench-8-unrolled";
}

const std::string &
kernelSource(const workloads::Kernel &k, const std::string &workload)
{
    return workload == "polybench-8-unrolled" ? k.unrolledSource : k.source;
}

uint64_t
fnv(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (char c : s)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    return h;
}

/** Inputs of one kernel for one case: values in [1, 13] like
 * workloads::inputData, drawn per (seed, case, kernel, memory), so the
 * rolled and unrolled kernels see the same data. */
workloads::MemState
kernelInputs(uint64_t seed, size_t c, const std::string &kernel,
             const dahlia::Program &prog)
{
    workloads::MemState mems;
    for (const auto &d : prog.decls) {
        Rng rng(seed, "case" + std::to_string(c) + "/" + kernel + "/" +
                          d.name);
        std::vector<uint64_t> data(d.type.totalSize());
        for (uint64_t &v : data)
            v = 1 + rng.below(13);
        mems[d.name] = std::move(data);
    }
    return mems;
}

std::vector<MemImage>
prefixed(const std::string &prefix, sim::Stimulus images)
{
    std::vector<MemImage> out;
    for (auto &[path, words] : images.mems)
        out.emplace_back(prefix + path, std::move(words));
    return out;
}

std::vector<Case>
polyCases(const std::string &workload, uint64_t seed, size_t num_cases)
{
    std::vector<Case> cases(num_cases);
    for (size_t i = 0; i < polyKernels.size(); ++i) {
        const workloads::Kernel &k = workloads::kernel(polyKernels[i]);
        dahlia::Program prog = dahlia::parse(kernelSource(k, workload));
        std::string prefix = "k" + std::to_string(i) + "/";
        for (size_t c = 0; c < num_cases; ++c) {
            workloads::MemState in = kernelInputs(seed, c, k.name, prog);
            // Oracle: the Dahlia AST interpreter on the kernel alone.
            workloads::MemState out = workloads::runOnInterp(prog, in);
            for (MemImage &m :
                 prefixed(prefix, workloads::makeStimulus(prog, in)))
                cases[c].stimulus.mems.push_back(std::move(m));
            for (MemImage &m :
                 prefixed(prefix, workloads::makeStimulus(prog, out)))
                cases[c].expect.push_back(std::move(m));
        }
    }
    return cases;
}

std::vector<Case>
systolicCases(uint64_t seed, size_t num_cases)
{
    const size_t n = systolicDim;
    std::vector<Case> cases(num_cases);
    for (size_t c = 0; c < num_cases; ++c) {
        Rng rng(seed, "systolic/case" + std::to_string(c));
        std::vector<uint64_t> a(n * n), b(n * n);
        for (uint64_t &v : a)
            v = rng.next() & 0xffffffffu;
        for (uint64_t &v : b)
            v = rng.next() & 0xffffffffu;
        Case &cs = cases[c];
        for (size_t i = 0; i < n; ++i) {
            std::vector<uint64_t> row(n), col(n);
            for (size_t k = 0; k < n; ++k) {
                row[k] = a[i * n + k];
                col[k] = b[k * n + i];
            }
            cs.stimulus.mems.emplace_back(systolic::leftMemName(int(i)),
                                          std::move(row));
            cs.stimulus.mems.emplace_back(systolic::topMemName(int(i)),
                                          std::move(col));
        }
        cs.stimulus.mems.emplace_back(systolic::outMemName,
                                      std::vector<uint64_t>(n * n, 0));
        // Oracle: a naive matmul, mod 2^32 like the 32-bit datapath.
        std::vector<uint64_t> out(n * n);
        for (size_t i = 0; i < n; ++i) {
            for (size_t j = 0; j < n; ++j) {
                uint64_t acc = 0;
                for (size_t k = 0; k < n; ++k)
                    acc += a[i * n + k] * b[k * n + j];
                out[i * n + j] = acc & 0xffffffffu;
            }
        }
        cs.expect.emplace_back(systolic::outMemName, std::move(out));
    }
    return cases;
}

/** Every `<w>'d<n>` literal of `source` that the workload edits: the
 * 32-bit constants of the PolyBench kernels; the index-counter
 * constants of the systolic array, which has no 32-bit literal. */
std::vector<Literal>
findLiterals(const std::string &source, bool poly)
{
    std::vector<Literal> out;
    for (size_t q = source.find("'d"); q != std::string::npos;
         q = source.find("'d", q + 2)) {
        size_t w = q;
        while (w > 0 && std::isdigit(static_cast<unsigned char>(source[w - 1])))
            --w;
        size_t end = q + 2;
        while (end < source.size() &&
               std::isdigit(static_cast<unsigned char>(source[end])))
            ++end;
        if (w == q || end == q + 2)
            continue;
        Literal lit;
        lit.width = static_cast<Width>(std::stoul(source.substr(w, q - w)));
        lit.pos = q + 2;
        lit.len = end - lit.pos;
        lit.value = std::stoull(source.substr(lit.pos, lit.len));
        if (poly ? lit.width == 32 : lit.width >= 4)
            out.push_back(lit);
    }
    return out;
}

/** The fig 7 HLS baseline for an n x n x n matmul: cycles of the plain
 * loop nest, resources of the outer-unrolled binding. */
hls::HlsReport
systolicHls(int dim)
{
    std::string n = std::to_string(dim);
    auto source = [&n](const std::string &unroll) {
        return "decl A: ubit<32>[" + n + "][" + n + "];\n" +
               "decl B: ubit<32>[" + n + "][" + n + "];\n" +
               "decl C: ubit<32>[" + n + "][" + n + "];\n" +
               "for (let i: ubit<6> = 0.." + n + ")" + unroll + " {\n" +
               "  for (let j: ubit<6> = 0.." + n + ")" + unroll + " {\n" +
               "    let acc: ubit<32> = 0;\n    ---\n" +
               "    for (let k: ubit<6> = 0.." + n + ") {\n" +
               "      acc := acc + A[i][k] * B[k][j];\n    }\n" +
               "    ---\n    C[i][j] := acc;\n  }\n}\n";
    };
    hls::HlsReport report = hls::scheduleProgram(dahlia::parse(source("")));
    hls::HlsReport bound =
        hls::scheduleProgram(dahlia::parse(source(" unroll " + n)));
    report.luts = bound.luts;
    report.ffs = bound.ffs;
    report.dsps = bound.dsps;
    return report;
}

} // namespace

Rng::Rng(uint64_t seed, const std::string &salt)
    : state(fnv(salt) ^ (seed * 0x9e3779b97f4a7c15ull))
{}

uint64_t
Rng::next()
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "systolic-16", "polybench-8", "polybench-8-unrolled"};
    return names;
}

std::string
generateSource(const std::string &name)
{
    if (name == "systolic-16") {
        Context ctx;
        systolic::Config cfg;
        cfg.rows = cfg.cols = cfg.inner = systolicDim;
        systolic::generate(ctx, cfg);
        return Printer::toString(ctx);
    }
    if (!isPoly(name))
        fatal("unknown workload '", name, "'");
    std::string src, cells, wires, control;
    for (size_t i = 0; i < polyKernels.size(); ++i) {
        const workloads::Kernel &k = workloads::kernel(polyKernels[i]);
        Context ctx =
            dahlia::compileDahlia(dahlia::parse(kernelSource(k, name)));
        std::string text = Printer::toString(ctx.main());
        const std::string from = "component main";
        size_t at = text.find(from);
        if (at == std::string::npos)
            fatal("kernel ", k.name, ": no 'component main' to rename");
        std::string comp = "poly_" + k.name;
        text.replace(at, from.size(), "component " + comp);
        src += text + "\n";
        std::string cell = "k" + std::to_string(i);
        std::string group = "call" + std::to_string(i);
        cells += "    " + cell + " = " + comp + "();\n";
        wires += "    group " + group + " { " + cell + ".go = 1'd1; " +
                 group + "[done] = " + cell + ".done; }\n";
        control += " " + group + ";";
    }
    return src + "component main() -> () {\n  cells {\n" + cells +
           "  }\n  wires {\n" + wires + "  }\n  control { seq {" +
           control + " } }\n}\n";
}

Workload
makeWorkload(const std::string &name, uint64_t seed, size_t num_cases)
{
    Workload w;
    w.name = name;
    w.source = generateSource(name);
    bool poly = isPoly(name);
    w.cases = poly ? polyCases(name, seed, num_cases)
                   : systolicCases(seed, num_cases);
    w.literals = findLiterals(w.source, poly);
    if (w.literals.empty())
        fatal(name, ": no literal for compile requests to edit");
    // 60 requests per stream: 75%, 25% and 10% runs; compile requests
    // split evenly between revisits and fresh variants.
    if (name == "systolic-16") {
        w.mix = {45, 7, 8};
        w.compiledStimuliPerSample = 20;
    } else if (name == "polybench-8") {
        w.mix = {15, 22, 23};
        w.compiledStimuliPerSample = 3;
    } else {
        w.mix = {6, 27, 27};
        w.compiledStimuliPerSample = 3;
    }
    return w;
}

std::string
editLiteral(const std::string &source, const Literal &lit, uint64_t value)
{
    std::string out = source;
    out.replace(lit.pos, lit.len, std::to_string(value));
    return out;
}

std::vector<KernelQor>
kernelQor(const std::string &name, uint64_t seed, uint64_t design_cycles,
          double design_luts)
{
    std::vector<KernelQor> out;
    if (!isPoly(name)) {
        hls::HlsReport h = systolicHls(systolicDim);
        out.push_back(
            {name, design_cycles, design_luts, h.cycles, h.luts});
        return out;
    }
    for (const std::string &kname : polyKernels) {
        const workloads::Kernel &k = workloads::kernel(kname);
        dahlia::Program prog = dahlia::parse(kernelSource(k, name));
        workloads::HardwareResult hw = workloads::runOnHardware(
            prog, passes::parsePipelineSpec("all"),
            kernelInputs(seed, 0, kname, prog));
        hls::HlsReport h = hls::scheduleProgram(prog);
        out.push_back({kname, hw.cycles, hw.area.luts, h.cycles, h.luts});
    }
    return out;
}

} // namespace calyx::bench
