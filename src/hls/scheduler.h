#ifndef CALYX_HLS_SCHEDULER_H
#define CALYX_HLS_SCHEDULER_H

#include <cstdint>

#include "frontends/dahlia/ast.h"

namespace calyx::hls {

/**
 * Cycle count and resource estimate for an HLS implementation of a
 * mini-Dahlia program.
 */
struct HlsReport
{
    uint64_t cycles = 0;
    double luts = 0.0;
    double ffs = 0.0;
    double dsps = 0.0;
};

/**
 * Analytical model of a commercial HLS scheduler over the same source
 * program — the repository's substitute for Vivado HLS. The constants
 * below are set in scheduler.cc; BENCH_qor.json pins their effect on
 * every design bench_qor compiles.
 *
 * Schedule model (calibrated to Vivado HLS 2019.2-era behaviour on the
 * paper's kernels):
 *  - statements execute sequentially; a statement costs its critical
 *    dependency chain (memory read 1 cycle, multiply 3, divide and
 *    square root 16, combinational ops chain in groups of 8 per cycle,
 *    minimum 1);
 *  - reads of distinct memories proceed in parallel; extra same-cycle
 *    accesses to one dual-port memory serialize;
 *  - unordered (`;`) statements overlap when independent;
 *  - an unrolled loop (factor U, with matching cyclic partitioning)
 *    runs U lanes in parallel over trip/U iterations;
 *  - loops pay 2 cycles of entry/exit control and 1 cycle of
 *    per-iteration control like the paper era toolchain.
 *
 * Resource model: functional units are reused across sequential code
 * (the maximum concurrent demand is instantiated), multipliers map to
 * DSPs, and each loop adds a small control cost. Constants are in
 * scheduler.cc; only ratios against the Calyx area model are
 * meaningful.
 */
HlsReport scheduleProgram(const dahlia::Program &program);

} // namespace calyx::hls

#endif // CALYX_HLS_SCHEDULER_H
