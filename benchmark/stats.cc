#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace calyx::bench {

double
Summary::spread() const
{
    return median != 0 ? (q3 - q1) / median : 0;
}

Summary
summarize(std::vector<double> values)
{
    Summary s;
    s.n = values.size();
    if (values.empty())
        return s;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    s.median = n % 2 ? values[n / 2]
                     : (values[n / 2 - 1] + values[n / 2]) / 2;
    if (n == 1) {
        s.q1 = s.q3 = s.median;
        return s;
    }
    // statistics.quantiles(method="exclusive"): m = n + 1, cut point i
    // sits at j = i*m // 4 (clamped to [1, n-1]), interpolated by
    // delta = i*m - 4j quarters toward the next value.
    auto cut = [&](long i) {
        long m = static_cast<long>(n) + 1;
        long j = std::clamp(i * m / 4, 1L, static_cast<long>(n) - 1);
        long delta = i * m - j * 4;
        return (values[j - 1] * static_cast<double>(4 - delta) +
                values[j] * static_cast<double>(delta)) /
               4.0;
    };
    s.q1 = cut(1);
    s.q3 = cut(3);
    return s;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(rank));
    size_t hi = std::min(lo + 1, values.size() - 1);
    if (std::isinf(values[lo]) || std::isinf(values[hi]))
        return std::max(values[lo], values[hi]);
    double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double logs = 0;
    for (double v : values)
        logs += std::log(v);
    return std::exp(logs / static_cast<double>(values.size()));
}

std::string
fullDigits(double value)
{
    if (!std::isfinite(value))
        value = 1e308;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace calyx::bench
