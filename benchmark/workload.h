#ifndef CALYX_BENCHMARK_WORKLOAD_H
#define CALYX_BENCHMARK_WORKLOAD_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/batch.h"
#include "support/bits.h"

namespace calyx::bench {

/** Deterministic 64-bit generator (splitmix64): the same seed gives the
 * same inputs on every host and standard library. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state(seed) {}
    /** A generator for one named stream under `seed`. */
    Rng(uint64_t seed, const std::string &salt);

    uint64_t next();
    /** Uniform-ish in [0, n); n > 0. */
    uint64_t below(uint64_t n) { return next() % n; }

  private:
    uint64_t state;
};

/** A final memory image the oracle expects, by hierarchical cell path. */
using MemImage = std::pair<std::string, std::vector<uint64_t>>;

/** One seeded stimulus and the oracle's final memory images for it. */
struct Case
{
    sim::Stimulus stimulus;
    std::vector<MemImage> expect;
};

/** A `<width>'d<digits>` literal of the source that a compile request
 * may rewrite. */
struct Literal
{
    size_t pos = 0; ///< Offset of the digits.
    size_t len = 0; ///< Digit count.
    Width width = 0;
    uint64_t value = 0;
};

/** Request mix of the serve stream; the three counts sum to its length. */
struct ServeMix
{
    int runs = 0;   ///< `run` requests, batch 1, 4 or 16.
    int hits = 0;   ///< `compile` requests revisiting an earlier variant.
    int misses = 0; ///< `compile` requests of a never-seen variant.
};

/** Everything the benchmark derives from a workload name and a seed. */
struct Workload
{
    std::string name;
    std::string source;            ///< generateSource(name).
    std::vector<Case> cases;       ///< Seeded stimuli, oracle outputs.
    std::vector<Literal> literals; ///< Editable literals of `source`.
    ServeMix mix;
    /// Stimuli per sim_cps sample (one sample is ~0.1 s at HEAD).
    int compiledStimuliPerSample = 1;
};

/** systolic-16, polybench-8, polybench-8-unrolled. */
const std::vector<std::string> &workloadNames();

/**
 * The frontend, as timed by the benchmark: generator input to Calyx IL
 * text. systolic-16 runs the systolic generator (16x16x16) and prints
 * it; the PolyBench workloads compile each kernel from Dahlia, rename
 * its `main`, and assemble one program whose `main` invokes the kernels
 * in sequence.
 */
std::string generateSource(const std::string &name);

/** The workload's inputs and oracle outputs under `seed`; fatal() on an
 * unknown name. Untimed preparation. */
Workload makeWorkload(const std::string &name, uint64_t seed,
                      size_t num_cases);

/** `source` with literal `lit` set to `value`. */
std::string editLiteral(const std::string &source, const Literal &lit,
                        uint64_t value);

/** Quality of results of one kernel against the HLS model. */
struct KernelQor
{
    std::string name;
    uint64_t cycles = 0;
    double luts = 0;
    uint64_t hlsCycles = 0;
    double hlsLuts = 0;
};

/**
 * Per-kernel quality of results (paper figs 7 and 8). PolyBench kernels
 * are compiled standalone with `-p all` and simulated on the seed's
 * first stimulus; systolic-16 is one kernel whose Calyx numbers are the
 * caller's `design_cycles`/`design_luts`. The HLS numbers come from the
 * repository's HLS model over the same loop nest.
 */
std::vector<KernelQor> kernelQor(const std::string &name, uint64_t seed,
                                 uint64_t design_cycles,
                                 double design_luts);

} // namespace calyx::bench

#endif // CALYX_BENCHMARK_WORKLOAD_H
