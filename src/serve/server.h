#ifndef CALYX_SERVE_SERVER_H
#define CALYX_SERVE_SERVER_H

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "cache/compile_cache.h"
#include "sim/batch.h"

namespace calyx::sim {
class SimProgram;
}

namespace calyx::serve {

struct ServeOptions
{
    sim::Engine engine = sim::Engine::Compiled;
    unsigned threads = 1;
    /// 0 keeps the BatchOptions default (widest compiled tile).
    uint32_t laneTile = 0;
    uint64_t maxCycles = 50'000'000;
    /// Input path, echoed in the stats report envelope.
    std::string file;
    /// Compile-cache configuration for `compile` requests (the default
    /// is memory-only; set diskDir for a persistent tier).
    cache::CompileCache::Config compileCache;
};

/** Request counters, returned when the serve loop ends and reported
 * live by a `stats` request. */
struct ServeStats
{
    uint64_t requests = 0; ///< Well-framed requests (any outcome).
    uint64_t runs = 0;     ///< Completed run requests.
    uint64_t stimuli = 0;  ///< Stimuli across completed runs.
    uint64_t compiles = 0; ///< Completed compile requests.
    uint64_t errors = 0;   ///< Rejected requests (framing, JSON, shape).
};

/**
 * The `futil --serve` loop: a resident compile + stimulus-stream
 * service. One BatchRunner — schedule and driver tables up front, the
 * scalar and lane-tile-wide JIT modules on first use — serves every
 * `run` request, so a stream of stimulus batches loads at most two
 * modules (the `stats` request reports module_loads/modules_from_cache
 * to prove it, and scalar_tiles/lane_tiles/padded_lanes to show the
 * tile shapes run), and one cache::CompileService answers `compile`
 * requests (source + pipeline spec + backend in, emitted artifact out) with
 * content-addressed caching and incremental per-component reuse, so a
 * stream of mutated programs is served from memory (`stats` mirrors
 * the cache-hit counters under "compile"). Requests and responses are
 * length-prefixed JSON frames (serve/protocol.h) over plain streams:
 * stdin/stdout under futil, stringstreams under test, a socketpair
 * behind inetd-style supervision — the loop does not care.
 *
 * Error handling is two-tier: a frame that parses but holds a bad
 * request (malformed JSON, unknown type, bad stimulus shape, unknown
 * memory path) gets an {"ok": false} response and the loop continues
 * serving; broken framing gets one final error response and ends the
 * session, since frame boundaries are unrecoverable. A `shutdown`
 * request or clean EOF ends the loop normally.
 */
ServeStats serve(const sim::SimProgram &prog, std::istream &in,
                 std::ostream &out, const ServeOptions &opts);

/**
 * Reject an observer flag combined with batched execution. VCD
 * tracing (and the profiler) observe one scalar trajectory; a batched
 * or serve run advances many lanes at once and has no probe hookup
 * (docs/observability.md), so the combination fatal()s with both flag
 * names instead of silently observing lane 0.
 */
[[noreturn]] void rejectObserverFlag(const std::string &observer_flag,
                                     const std::string &mode_flag);

} // namespace calyx::serve

#endif // CALYX_SERVE_SERVER_H
