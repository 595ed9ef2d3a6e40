/**
 * @file
 * Compile-service benchmark: requests/sec through the
 * content-addressed compile cache on a mutated PolyBench stream. The
 * workload
 * is one multi-component program — several PolyBench kernels compiled
 * from Dahlia, renamed, and invoked from a fresh `main` — mutated per
 * request by editing one kernel's constant, the request shape of
 * generated frontends and compile-in-the-loop tooling.
 *
 * Sections written to BENCH_service.json:
 *   host         hardware threads, compiler and build type
 *   cold         every request compiles from scratch (cache disabled)
 *   warm         the same variant set revisited: raw-text tier hits
 *   incremental  every request mints a never-seen variant of one
 *                kernel: the per-component tier recompiles only the
 *                edited kernel's dependency cone
 *
 * Usage:
 *   bench_service [--small] [--check] [--reps N] [--out FILE]
 *     --small    CI smoke configuration (2 kernels, short streams)
 *     --check    exit non-zero unless warm rps >= cold rps, warm is
 *                >= 5x cold, and every cached/incremental artifact is
 *                byte-identical to a cold compile
 *     --reps N   stream length multiplier (default 3)
 *     --out      output path (default BENCH_service.json)
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/compile_cache.h"
#include "emit/backend.h"
#include "frontends/dahlia/checker.h"
#include "frontends/dahlia/codegen.h"
#include "frontends/dahlia/parser.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "passes/pipeline_spec.h"
#include "support/error.h"
#include "support/json.h"
#include "support/time.h"
#include "workloads/polybench.h"

using namespace calyx;

namespace {

constexpr const char *kPipeline = "all";

/** One PolyBench kernel as a renamed Calyx component text. */
struct KernelText
{
    std::string name;
    std::string text;      ///< `component <name>() -> () { ... }`
    size_t constPos = 0;   ///< Offset of a mutable `32'd` constant.
    size_t constLen = 0;   ///< Digit count at constPos (0 = none).
};

KernelText
kernelText(const workloads::Kernel &k)
{
    dahlia::Program program = dahlia::parse(k.source);
    dahlia::check(program);
    Context ctx = dahlia::compileDahlia(program);
    KernelText kt;
    kt.name = "poly_" + k.name;
    kt.text = Printer::toString(ctx.main());
    const std::string from = "component main";
    size_t at = kt.text.find(from);
    if (at == std::string::npos)
        fatal("kernel ", k.name, ": no 'component main' to rename");
    kt.text.replace(at, from.size(), "component " + kt.name);
    // A mutable constant: the digits of the first `32'd<n>` literal.
    size_t c = kt.text.find("32'd");
    if (c != std::string::npos) {
        kt.constPos = c + 4;
        size_t end = kt.constPos;
        while (end < kt.text.size() && isdigit(kt.text[end]))
            ++end;
        kt.constLen = end - kt.constPos;
    }
    return kt;
}

/** The kernel text with its constant replaced by `value`; the base
 * text when the kernel has no constant to edit. */
std::string
mutated(const KernelText &kt, uint64_t value)
{
    if (kt.constLen == 0)
        return kt.text;
    std::string t = kt.text;
    t.replace(kt.constPos, kt.constLen, std::to_string(value));
    return t;
}

/** Whole-program source: every kernel component plus a main that
 * invokes each one in sequence. `edit` (when >= 0) selects the kernel
 * whose constant becomes `value`. */
std::string
assembleProgram(const std::vector<KernelText> &kernels, int edit,
                uint64_t value)
{
    std::string src;
    for (size_t i = 0; i < kernels.size(); ++i)
        src += (static_cast<int>(i) == edit ? mutated(kernels[i], value)
                                            : kernels[i].text) +
               "\n";
    std::string cells, wires, control;
    for (size_t i = 0; i < kernels.size(); ++i) {
        std::string cell = "k" + std::to_string(i);
        cells += "    " + cell + " = " + kernels[i].name + "();\n";
        wires += "    group call" + std::to_string(i) + " { " + cell +
                 ".go = 1'd1; call" + std::to_string(i) + "[done] = " +
                 cell + ".done; }\n";
        control += " call" + std::to_string(i) + ";";
    }
    src += "component main() -> () {\n  cells {\n" + cells +
           "  }\n  wires {\n" + wires + "  }\n  control { seq {" +
           control + " } }\n}\n";
    return src;
}

/** Cold reference: fresh pipeline + calyx emit, no cache anywhere. */
std::string
coldArtifact(const std::string &src)
{
    Context ctx = Parser::parseProgram(src);
    passes::runPipeline(ctx, kPipeline);
    return emit::BackendRegistry::instance().create("calyx")->emitString(
        ctx);
}

struct StreamResult
{
    uint64_t requests = 0;
    double seconds = 0;
    uint64_t componentsFromCache = 0;
    uint64_t rawHits = 0;
    bool artifactsIdentical = true;

    double rps() const { return seconds > 0 ? requests / seconds : 0; }
};

/** Run `sources` through one service, checking every artifact against
 * the cold reference in `expected` (same indexing). */
StreamResult
runStream(cache::CompileService &svc,
          const std::vector<const std::string *> &sources,
          const std::vector<const std::string *> &expected)
{
    StreamResult r;
    for (size_t i = 0; i < sources.size(); ++i) {
        cache::CompileRequest req;
        req.source = *sources[i];
        req.pipeline = kPipeline;
        double t0 = nowSeconds();
        cache::CompileResult res = svc.compile(req);
        r.seconds += nowSeconds() - t0;
        ++r.requests;
        r.componentsFromCache += res.componentsFromCache;
        r.rawHits += res.rawTextHit ? 1 : 0;
        if (res.artifact != *expected[i])
            r.artifactsIdentical = false;
    }
    return r;
}

json::Value
streamJson(const char *name, const StreamResult &r)
{
    json::Value s = json::Value::object();
    s.set("name", json::Value::str(name));
    s.set("requests", json::Value::number(r.requests));
    s.set("micros", json::Value::number(
                        static_cast<uint64_t>(r.seconds * 1e6 + 0.5)));
    s.set("requests_per_sec",
          json::Value::number(static_cast<uint64_t>(r.rps() + 0.5)));
    s.set("components_from_cache",
          json::Value::number(r.componentsFromCache));
    s.set("raw_text_hits", json::Value::number(r.rawHits));
    s.set("artifacts_identical",
          json::Value::boolean(r.artifactsIdentical));
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    bool small = false, check = false;
    int reps = 3;
    std::string out_path = "BENCH_service.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--small")) {
            small = true;
        } else if (!std::strcmp(argv[i], "--check")) {
            check = true;
        } else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
            reps = std::atoi(argv[++i]);
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_service [--small] [--check] "
                         "[--reps N] [--out FILE]\n");
            return 2;
        }
    }
    if (reps < 1)
        reps = 1;

    bool ok = true;
    json::Value doc = json::Value::object();
    try {
        // The workload: kernels with a mutable constant, so every
        // variant is a real source edit.
        std::vector<KernelText> kernels;
        for (const auto &k : workloads::kernels()) {
            if (small && k.name != "gemm" && k.name != "atax")
                continue;
            KernelText kt = kernelText(k);
            if (kt.constLen)
                kernels.push_back(std::move(kt));
            if (kernels.size() == (small ? 2u : 6u))
                break;
        }
        if (kernels.size() < 2)
            fatal("need at least two mutable PolyBench kernels");

        // Variant set: variant v edits kernel (v mod K). Cold
        // references are computed once, outside every timed region.
        const size_t variants = kernels.size() * 2;
        std::vector<std::string> sources;
        std::vector<std::string> references;
        for (size_t v = 0; v < variants; ++v) {
            sources.push_back(assembleProgram(
                kernels, static_cast<int>(v % kernels.size()), 100 + v));
            references.push_back(coldArtifact(sources.back()));
        }
        std::vector<const std::string *> stream, expected;
        for (int r = 0; r < reps; ++r) {
            for (size_t v = 0; v < variants; ++v) {
                stream.push_back(&sources[v]);
                expected.push_back(&references[v]);
            }
        }

        // Cold: the cache is disabled, every request runs the whole
        // pipeline. This is the baseline a non-resident compiler pays.
        cache::CompileCache::Config cold_cfg;
        cold_cfg.enabled = false;
        cache::CompileService cold_svc(cold_cfg);
        StreamResult cold = runStream(cold_svc, stream, expected);

        // Warm: same stream against a primed cache — one untimed lap
        // fills it, then every timed request is a raw-text hit. This
        // is the steady state a resident service reaches after first
        // contact with a variant set.
        cache::CompileService warm_svc((cache::CompileCache::Config()));
        for (size_t v = 0; v < variants; ++v) {
            cache::CompileRequest req;
            req.source = sources[v];
            req.pipeline = kPipeline;
            warm_svc.compile(req);
        }
        StreamResult warm = runStream(warm_svc, stream, expected);

        // Incremental: every request is a never-seen variant editing
        // one kernel, so only that kernel's dependency cone (itself +
        // main) re-runs passes; the other kernels come from the
        // per-component tier.
        std::vector<std::string> inc_sources;
        std::vector<std::string> inc_refs;
        const size_t inc_n = variants;
        for (size_t v = 0; v < inc_n; ++v) {
            inc_sources.push_back(assembleProgram(
                kernels, static_cast<int>(v % kernels.size()),
                1000 + v));
            inc_refs.push_back(coldArtifact(inc_sources.back()));
        }
        std::vector<const std::string *> inc_stream, inc_expected;
        for (size_t v = 0; v < inc_n; ++v) {
            inc_stream.push_back(&inc_sources[v]);
            inc_expected.push_back(&inc_refs[v]);
        }
        cache::CompileService inc_svc((cache::CompileCache::Config()));
        StreamResult inc = runStream(inc_svc, inc_stream, inc_expected);

        std::fprintf(stderr,
                     "bench_service: cold %.0f rps, warm %.0f rps "
                     "(%.1fx), incremental %.0f rps\n",
                     cold.rps(), warm.rps(),
                     cold.rps() > 0 ? warm.rps() / cold.rps() : 0,
                     inc.rps());

        // The host the rows were measured on, in the same shape
        // bench_sim_engines writes.
        json::Value host = json::Value::object();
        host.set("hardware_threads",
                 json::Value::number(std::thread::hardware_concurrency()));
        host.set("compiler", json::Value::str(
#if defined(__clang__)
                                 std::string("clang ") +
#elif defined(__GNUC__)
                                 std::string("gcc ") +
#endif
                                 __VERSION__));
        host.set("build_type", json::Value::str(CALYX_BUILD_TYPE));
        doc.set("host", std::move(host));
        doc.set("version", json::Value::number(1u));
        doc.set("pipeline", json::Value::str(
                                cache::normalizePipelineSpec(kPipeline)));
        doc.set("kernels",
                json::Value::number(
                    static_cast<uint64_t>(kernels.size())));
        doc.set("variants",
                json::Value::number(static_cast<uint64_t>(variants)));
        json::Value streams = json::Value::array();
        streams.push(streamJson("cold", cold));
        streams.push(streamJson("warm", warm));
        streams.push(streamJson("incremental", inc));
        doc.set("streams", std::move(streams));

        if (check) {
            auto gate = [&ok](bool cond, const char *what) {
                if (!cond) {
                    std::fprintf(stderr, "bench_service: CHECK FAILED: %s\n",
                                 what);
                    ok = false;
                }
            };
            gate(cold.artifactsIdentical && warm.artifactsIdentical &&
                     inc.artifactsIdentical,
                 "cached artifacts byte-identical to cold compiles");
            gate(warm.rps() >= cold.rps(),
                 "warm throughput >= cold throughput");
            gate(warm.rps() >= 5 * cold.rps(),
                 "warm throughput >= 5x cold throughput");
            gate(inc.componentsFromCache > 0,
                 "incremental stream reuses cached components");
        }
    } catch (const Error &e) {
        std::fprintf(stderr, "bench_service: %s\n", e.what());
        return 1;
    }

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "bench_service: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    doc.write(out);
    out << "\n";
    std::fprintf(stderr, "bench_service: wrote %s\n", out_path.c_str());
    return ok ? 0 : 1;
}
