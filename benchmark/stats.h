#ifndef CALYX_BENCHMARK_STATS_H
#define CALYX_BENCHMARK_STATS_H

#include <cstddef>
#include <string>
#include <vector>

namespace calyx::bench {

/** Median and quartiles of a sample set. */
struct Summary
{
    double median = 0;
    double q1 = 0;
    double q3 = 0;
    size_t n = 0;

    /** (q3 - q1) / median: the run-to-run spread the bounds are held to. */
    double spread() const;
};

/**
 * Median plus first and third quartiles, the quartiles computed exactly
 * like Python's `statistics.quantiles(values, n=4)` (the "exclusive"
 * method), so numbers printed here match a check done in Python. One
 * value gives q1 = q3 = median; none gives all zeros.
 */
Summary summarize(std::vector<double> values);

/** Percentile `p` in [0, 100] by linear interpolation between closest
 * ranks. Infinite entries (failed requests) sort last. */
double percentile(std::vector<double> values, double p);

/** Geometric mean of positive values (0 for an empty set). */
double geomean(const std::vector<double> &values);

/** A double with every significant digit (`%.17g`), JSON-safe: non-finite
 * values, which JSON cannot spell, become 1e308. */
std::string fullDigits(double value);

} // namespace calyx::bench

#endif // CALYX_BENCHMARK_STATS_H
