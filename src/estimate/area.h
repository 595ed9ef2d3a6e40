#ifndef CALYX_ESTIMATE_AREA_H
#define CALYX_ESTIMATE_AREA_H

#include <map>
#include <string>

#include "ir/context.h"

namespace calyx::estimate {

/**
 * FPGA resource estimate. LUTs are fractional internally (a 6-input LUT
 * often packs more than one small function); round when reporting.
 */
struct Area
{
    double luts = 0.0;
    double ffs = 0.0;   ///< flip-flop bits
    double dsps = 0.0;
    int registers = 0;  ///< number of std_reg cells (paper Fig. 9b metric)

    Area &operator+=(const Area &other);
    Area operator+(const Area &other) const;
};

/**
 * Analytical area model over lowered netlists — the repository's
 * substitute for Vivado synthesis. The costs are set in area.cc;
 * BENCH_qor.json pins their effect on every design bench_qor compiles:
 *
 *  - functional units: per-primitive constants (adder W LUTs, comparator
 *    W, equality/logic W/2, divider 5W, multiplier -> DSPs, ...),
 *  - steering logic: a port with k guarded drivers costs a (k-1)-deep
 *    2:1 mux tree at W/2 LUTs per stage,
 *  - guard logic: 1/2 LUT per boolean connective, W/3 per comparison
 *    against a constant, W/2 per port-port comparison,
 *  - state: W+1 FF bits per register (payload + done).
 *
 * Component instances are costed recursively.
 */
class AreaEstimator
{
  public:
    explicit AreaEstimator(const Context &ctx) : ctx(&ctx) {}

    /** Area of one component including its sub-instances. */
    Area estimate(const Component &comp);

    /** Area of the entrypoint component. */
    Area estimateProgram();

  private:
    Area cellArea(const Cell &cell);

    const Context *ctx;
    std::map<std::string, Area> cache; // per-component memoization
};

} // namespace calyx::estimate

#endif // CALYX_ESTIMATE_AREA_H
