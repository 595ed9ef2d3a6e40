#include "trace.h"

#include <algorithm>
#include <map>

#include "stats.h"
#include "support/time.h"

namespace calyx::bench {

Tracer::Tracer(bool enabled, std::string workload)
    : on(enabled), workloadName(std::move(workload))
{}

int64_t
Tracer::open(const std::string &name, int64_t request)
{
    if (!on)
        return -1;
    SpanRecord s;
    s.name = name;
    s.parent = openStack.empty() ? -1 : openStack.back();
    s.request = request;
    s.start = nowSeconds();
    spans.push_back(std::move(s));
    int64_t id = static_cast<int64_t>(spans.size()) - 1;
    openStack.push_back(id);
    return id;
}

void
Tracer::close(int64_t id, uint64_t count)
{
    if (id < 0)
        return;
    SpanRecord &s = spans[static_cast<size_t>(id)];
    s.end = nowSeconds();
    s.count = count;
    // Spans close in LIFO order; tolerate an out-of-order close by
    // dropping everything opened after it.
    auto it = std::find(openStack.begin(), openStack.end(), id);
    if (it != openStack.end())
        openStack.erase(it, openStack.end());
}

void
Tracer::record(const std::string &name, double start, double end,
               uint64_t count)
{
    if (!on)
        return;
    SpanRecord s;
    s.name = name;
    s.parent = openStack.empty() ? -1 : openStack.back();
    s.start = start;
    s.end = end;
    s.count = count;
    spans.push_back(std::move(s));
}

std::vector<Tracer::Totals>
Tracer::totals() const
{
    // Self time: duration minus the time covered by direct children.
    // Children of one span never overlap (spans are recorded from one
    // thread), so their durations simply add.
    std::vector<double> childTime(spans.size(), 0);
    for (const SpanRecord &s : spans) {
        if (s.parent >= 0)
            childTime[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    std::vector<Totals> out;
    std::map<std::string, size_t> index;
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        auto [it, fresh] = index.emplace(s.name, out.size());
        if (fresh)
            out.push_back(Totals{s.name});
        Totals &t = out[it->second];
        double d = s.end - s.start;
        t.spans += 1;
        t.total += d;
        t.self += std::max(0.0, d - childTime[i]);
    }
    return out;
}

void
Tracer::write(std::ostream &os) const
{
    double origin = spans.empty() ? 0 : spans.front().start;
    for (const SpanRecord &s : spans)
        origin = std::min(origin, s.start);
    os << "{\"workload\": \"" << workloadName << "\", \"spans\": [";
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        os << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << s.name
           << "\", \"start\": " << fullDigits(s.start - origin)
           << ", \"end\": " << fullDigits(s.end - origin)
           << ", \"parent\": " << s.parent << ", \"workload\": \""
           << workloadName << "\", \"request\": " << s.request
           << ", \"count\": " << s.count << "}";
    }
    os << "\n]}\n";
}

} // namespace calyx::bench
