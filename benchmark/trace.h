#ifndef CALYX_BENCHMARK_TRACE_H
#define CALYX_BENCHMARK_TRACE_H

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace calyx::bench {

/** One closed (or still open) span. Times are steady-clock seconds. */
struct SpanRecord
{
    std::string name;
    double start = 0;
    double end = 0;
    int64_t parent = -1;  ///< Index of the enclosing span; -1 for a root.
    int64_t request = -1; ///< Serve request id; -1 outside the stream.
    uint64_t count = 1;   ///< Calls aggregated into this span.
};

/**
 * In-memory span recorder for the traced run. Spans sit at the call
 * boundaries into the compiler's layers (frontend, parser, passes,
 * emitters, simulation, serve); each names its parent, so a layer's
 * self time is its duration minus the time its children cover.
 * Per-cycle calls are never spanned one by one: a sample loop records
 * one span carrying a call count. A disabled tracer records nothing.
 */
class Tracer
{
  public:
    Tracer(bool enabled, std::string workload);

    bool enabled() const { return on; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int64_t open(const std::string &name, int64_t request = -1);

    /** Close span `id` (a no-op for -1). */
    void close(int64_t id, uint64_t count = 1);

    /** Record an interval measured elsewhere as a closed child of the
     * innermost open span. */
    void record(const std::string &name, double start, double end,
                uint64_t count = 1);

    /** (name, calls, total seconds, self seconds) per span name, in
     * first-seen order. */
    struct Totals
    {
        std::string name;
        uint64_t spans = 0;
        double total = 0;
        double self = 0;
    };
    std::vector<Totals> totals() const;

    /** The spans as JSON: {"workload", "spans": [{name, start, end,
     * parent, request, count}]}, times relative to the first span. */
    void write(std::ostream &os) const;

  private:
    bool on;
    std::string workloadName;
    std::vector<SpanRecord> spans;
    std::vector<int64_t> openStack;
};

/** RAII span: opens on construction, closes on destruction. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, int64_t request = -1)
        : tracer(tracer), id(tracer.open(name, request))
    {}
    ~Span() { tracer.close(id, count); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void setCount(uint64_t c) { count = c; }

  private:
    Tracer &tracer;
    int64_t id;
    uint64_t count = 1;
};

} // namespace calyx::bench

#endif // CALYX_BENCHMARK_TRACE_H
