#include "cache/compile_cache.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <unistd.h>
#include <unordered_set>

#include "emit/backend.h"
#include "ir/context.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "passes/pipeline_spec.h"
#include "support/error.h"
#include "support/file.h"
#include "support/hash.h"

namespace calyx::cache {

namespace {

std::optional<std::string>
readFileIfExists(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Write-to-temp + rename, same discipline as the cppsim JIT cache:
 * a concurrent reader sees either nothing or the whole entry. The disk
 * tier is best-effort: a failed write (a full disk) publishes nothing,
 * and the memory tier still holds the entry. */
void
writeFileAtomic(const std::string &path, const std::string &text)
{
    std::string tmp = path + ".tmp" + std::to_string(::getpid());
    if (writeFile(tmp, text) && ::rename(tmp.c_str(), path.c_str()) != 0)
        ::remove(tmp.c_str());
}

} // namespace

std::string
normalizePipelineSpec(const std::string &spec)
{
    passes::PipelineSpec parsed = passes::parsePipelineSpec(spec);
    for (passes::PassInvocation &inv : parsed.passes) {
        // Order-independent across distinct keys; for a duplicated key
        // the last occurrence wins (matching Pass::option application
        // order), then the stable sort keeps that survivor.
        for (size_t i = 0; i < inv.options.size(); ++i) {
            for (size_t j = inv.options.size(); j-- > i + 1;) {
                if (inv.options[j].first == inv.options[i].first) {
                    inv.options[i].second = inv.options[j].second;
                    inv.options.erase(inv.options.begin() + j);
                }
            }
        }
        std::stable_sort(inv.options.begin(), inv.options.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
    }
    return parsed.str();
}

ProgramDigests
digestProgram(const Context &ctx)
{
    // The extern declarations fold into every component's own digest:
    // changing a black-box primitive's interface changes what every
    // component compiles against.
    std::ostringstream ex;
    Printer::printExterns(ctx, ex);
    const std::string externs_digest = contentDigest(ex.str());

    std::unordered_map<Symbol, std::string> own;
    for (const auto &comp : ctx.components()) {
        own[comp->name()] =
            contentDigest(externs_digest + "\n" +
                          Printer::toString(*comp));
    }

    // Transitive digests, memoized over the instantiation DAG (the
    // parser requires components to be defined before use, so the
    // relation cannot cycle).
    std::unordered_map<Symbol, std::string> trans;
    std::function<const std::string &(const Component &)> rec =
        [&](const Component &comp) -> const std::string & {
        auto it = trans.find(comp.name());
        if (it != trans.end())
            return it->second;
        std::set<Symbol> deps;
        for (const auto &cell : comp.cells()) {
            if (!cell->isPrimitive())
                deps.insert(cell->type());
        }
        std::string acc = own[comp.name()];
        for (Symbol dep : deps) {
            const Component *def = ctx.findComponent(dep);
            if (def)
                acc += "\n" + dep.str() + "=" + rec(*def);
        }
        return trans.emplace(comp.name(), contentDigest(acc))
            .first->second;
    };

    ProgramDigests d;
    std::string acc = "entry=" + ctx.entrypoint().str();
    for (const auto &comp : ctx.components()) {
        const std::string &t = rec(*comp);
        d.transitive.emplace_back(comp->name(), t);
        acc += "\n" + comp->name().str() + "=" + t;
    }
    d.program = contentDigest(acc);
    return d;
}

std::string
compileCacheDir()
{
    return cacheDir("CALYX_COMPILE_CACHE", "calyx-compile");
}

std::optional<std::string>
CompileCache::get(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu);
    if (!cfg.enabled) {
        ++st.misses;
        return std::nullopt;
    }
    auto it = index.find(key);
    if (it != index.end()) {
        lru.splice(lru.begin(), lru, it->second);
        ++st.hits;
        return it->second->second;
    }
    if (!cfg.diskDir.empty()) {
        if (auto text = readFileIfExists(cfg.diskDir + "/" + key + ".txt")) {
            ++st.diskHits;
            lru.emplace_front(key, *text);
            index[key] = lru.begin();
            st.bytes += text->size();
            ++st.entries;
            evictOver();
            return text;
        }
    }
    ++st.misses;
    return std::nullopt;
}

void
CompileCache::put(const std::string &key, const std::string &value)
{
    std::lock_guard<std::mutex> lock(mu);
    if (!cfg.enabled)
        return;
    auto it = index.find(key);
    if (it != index.end()) {
        st.bytes += value.size();
        st.bytes -= it->second->second.size();
        it->second->second = value;
        lru.splice(lru.begin(), lru, it->second);
    } else {
        lru.emplace_front(key, value);
        index[key] = lru.begin();
        st.bytes += value.size();
        ++st.entries;
        evictOver();
    }
    if (!cfg.diskDir.empty() && makeDirs(cfg.diskDir))
        writeFileAtomic(cfg.diskDir + "/" + key + ".txt", value);
}

void
CompileCache::evictOver()
{
    while (!lru.empty() && (st.entries > cfg.maxEntries ||
                            st.bytes > cfg.maxBytes)) {
        auto &back = lru.back();
        st.bytes -= back.second.size();
        --st.entries;
        ++st.evictions;
        index.erase(back.first);
        lru.pop_back();
    }
}

CompileCache::Stats
CompileCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return st;
}

namespace {

CompileCache::Config
envCacheConfig()
{
    CompileCache::Config cfg;
    if (const char *dir = std::getenv("CALYX_COMPILE_CACHE"); dir && *dir)
        cfg.diskDir = compileCacheDir();
    return cfg;
}

} // namespace

CompileService::CompileService() : store(envCacheConfig()) {}

CompileResult
CompileService::compile(const CompileRequest &req)
{
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();
    auto elapsed = [&t0] {
        return std::chrono::duration<double>(clock::now() - t0).count();
    };
    ++counts.requests;

    CompileResult res;
    res.pipeline = normalizePipelineSpec(req.pipeline);
    // Resolve the backend up front: an unknown name is a hard error
    // (with a did-you-mean suggestion) before any cache state changes.
    std::unique_ptr<emit::Backend> backend =
        emit::BackendRegistry::instance().create(req.backend);

    // Tier 1: exact request bytes -> artifact. No parse.
    const std::string raw_key = contentDigest(
        "raw\n" + req.backend + "\n" + res.pipeline + "\n" + req.source);
    if (auto hit = store.get(raw_key)) {
        ++counts.rawHits;
        res.artifact = std::move(*hit);
        res.artifactFromCache = res.rawTextHit = true;
        res.seconds = elapsed();
        return res;
    }

    // Tier 2: canonical program digest -> artifact. Catches requests
    // that differ only in formatting.
    Context ctx = Parser::parseProgram(req.source);
    ProgramDigests digests = digestProgram(ctx);
    res.components = digests.transitive.size();
    const std::string art_key =
        contentDigest("artifact\n" + req.backend + "\n" + res.pipeline +
                      "\n" + digests.program);
    if (auto hit = store.get(art_key)) {
        ++counts.artifactHits;
        res.artifact = std::move(*hit);
        res.artifactFromCache = true;
        res.componentsFromCache = res.components;
        store.put(raw_key, res.artifact);
        res.seconds = elapsed();
        return res;
    }

    // Tier 3: per-component post-pipeline texts.
    const size_t n = digests.transitive.size();
    std::vector<std::string> keys(n), texts(n);
    std::vector<bool> cached(n, false);
    for (size_t i = 0; i < n; ++i) {
        keys[i] = contentDigest("component\n" + res.pipeline + "\n" +
                                digests.transitive[i].second);
        if (auto hit = store.get(keys[i])) {
            texts[i] = std::move(*hit);
            cached[i] = true;
            ++counts.componentHits;
            ++res.componentsFromCache;
        } else {
            ++counts.componentMisses;
        }
    }

    bool any_miss = false;
    for (size_t i = 0; i < n; ++i)
        any_miss |= !cached[i];

    if (any_miss) {
        // Recompile the dependency-closed miss cone from source. The
        // cone's own dependencies ride along in source form so every
        // cross-component read a pass performs (callee signatures,
        // inferred latencies) sees exactly what a cold whole-program
        // compile would show it; unrelated components are simply
        // absent, which is indistinguishable to a per-component pass.
        std::unordered_set<Symbol> cone;
        std::function<void(const Component &)> pull =
            [&](const Component &comp) {
                if (!cone.insert(comp.name()).second)
                    return;
                for (const auto &cell : comp.cells()) {
                    if (cell->isPrimitive())
                        continue;
                    if (const Component *def =
                            ctx.findComponent(cell->type()))
                        pull(*def);
                }
            };
        for (size_t i = 0; i < n; ++i) {
            if (!cached[i])
                pull(ctx.component(digests.transitive[i].first));
        }

        std::ostringstream sub;
        Printer::printExterns(ctx, sub);
        for (const auto &comp : ctx.components()) {
            if (cone.count(comp->name())) {
                Printer::print(*comp, sub);
                sub << "\n";
            }
        }
        Context sub_ctx = Parser::parseProgram(sub.str());
        res.passInfos = passes::runPipeline(sub_ctx, res.pipeline);

        for (size_t i = 0; i < n; ++i) {
            if (cached[i])
                continue;
            texts[i] = Printer::toString(
                sub_ctx.component(digests.transitive[i].first));
            store.put(keys[i], texts[i]);
        }
    }

    // Assemble hits + fresh results in source order and emit. The
    // printer/parser round-trip is idempotent (tests/test_roundtrip.cc),
    // so this reparse changes nothing the backends can see and the
    // artifact is byte-identical to a cold serial compile.
    std::ostringstream assembled;
    Printer::printExterns(ctx, assembled);
    for (size_t i = 0; i < n; ++i)
        assembled << texts[i] << "\n";
    Context final_ctx = Parser::parseProgram(assembled.str());
    final_ctx.setEntrypoint(ctx.entrypoint());
    res.artifact = backend->emitString(final_ctx);

    store.put(art_key, res.artifact);
    store.put(raw_key, res.artifact);
    res.seconds = elapsed();
    return res;
}

} // namespace calyx::cache
