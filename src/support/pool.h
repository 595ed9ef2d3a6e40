#ifndef CALYX_SUPPORT_POOL_H
#define CALYX_SUPPORT_POOL_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace calyx {

/**
 * Persistent work-stealing thread pool shared by the toolchain's two
 * parallel loops: batch simulation spreads independent tiles over it
 * (sim/batch.h), and compiled-module shard builds run over it
 * (sim/compiled.h). In both cases the work items' state is disjoint by
 * construction, so the pool needs no per-item locking — only job
 * distribution is synchronized.
 *
 * Work distribution is index-range stealing: parallelFor(n, w, fn)
 * splits [0, n) into `w` contiguous ranges, one per participant, each
 * with an atomic cursor. A participant drains its own range first
 * (contiguous indices: lane tiles sharing cache lines stay on one
 * core), then steals from the range with the most work left. The
 * calling thread participates as worker 0, so `threads == 1` runs
 * entirely on the caller with no synchronization beyond the atomics,
 * and a 1-core machine never context-switches per item.
 *
 * The pool is the process-wide occupancy cap: jobs from concurrent
 * callers (e.g. two threads each running a batch) serialize on a
 * single publication slot instead of stacking thread counts, and a
 * parallelFor issued from *inside* a worker runs serially on that
 * worker rather than deadlocking on the slot — so a `--threads N`
 * process never runs more than N items at once, however the subsystems
 * nest. peakParticipants() exposes the observed high-water mark for
 * tests asserting exactly that.
 *
 * Workers persist for the process lifetime (detached at exit), so a
 * `futil --serve` session pays thread startup once, not per request.
 * A worker inherits the affinity mask of the thread that spawns it:
 * reserve() spawns them up front, on the thread that chose the width,
 * up to its usable cores, and a job wider than any reservation spawns
 * the rest lazily, up to its item count. Every spread job is timed
 * from publication until all of its participants are running;
 * dispatchSeconds() is the cost a caller weighs a short job against.
 * Exceptions thrown by `fn` are captured; the first one is rethrown on
 * the caller after every participant has drained.
 */
class WorkPool
{
  public:
    /** The process-wide pool. */
    static WorkPool &global();

    /**
     * Run `fn(i)` for every i in [0, n) across `threads` participants
     * (clamped to [1, n]; the caller is one of them). Returns when all
     * items are done. When called from inside a pool worker the loop
     * runs serially on that worker (nested parallelism is capped, not
     * stacked).
     */
    void parallelFor(size_t n, unsigned threads,
                     const std::function<void(size_t)> &fn);

    /**
     * Spawn now, on the calling thread, the workers a `threads`-wide
     * job needs, so they inherit this thread's affinity mask rather
     * than that of whichever thread first dispatches. Spawns at most
     * defaultThreads() - 1: a wider request reserves the usable cores.
     */
    void reserve(unsigned threads);

    /**
     * High-water mark of simultaneously active participants since the
     * last reset — the observable for "no 2N-thread spike" tests.
     */
    static unsigned peakParticipants();
    static void resetPeakParticipants();

    /** Dispatch counters, process-wide. */
    struct Counters
    {
        uint64_t jobs = 0; ///< Jobs spread over >= 2 participants.
        /// Wake latency of those jobs, seconds: from publication until
        /// every participant runs. 0 before the first.
        double wakeMin = 0, wakeTotal = 0;
    };
    Counters counters() const;

    /**
     * The dispatch cost a caller weighs a short job against: the least
     * wake latency seen, the cost of waking workers whose CPUs are
     * ready. A pool idle long enough for its CPUs to sleep pays more,
     * once; a loaded host pays more on every job. 0 before the first
     * job.
     */
    double dispatchSeconds() const
    {
        return wakeMin.load(std::memory_order_relaxed);
    }

    /** Usable cores: the CPUs in the calling thread's affinity mask,
     * >= 1. */
    static unsigned defaultThreads();

  private:
    WorkPool() = default;

    struct Range
    {
        std::atomic<size_t> next{0};
        size_t end = 0;
        // Cursors are hammered by their owner and occasional thieves;
        // keep each range on its own cache line.
        char pad[64 - sizeof(std::atomic<size_t>) - sizeof(size_t)];
    };

    struct Job
    {
        const std::function<void(size_t)> *fn = nullptr;
        std::vector<Range> ranges;
        std::atomic<size_t> started{0}; ///< Participants running.
        std::atomic<size_t> done{0};    ///< Participants finished.
        size_t parts = 0;
        /// Set by the last participant to start; read after `done`.
        std::chrono::steady_clock::time_point allRunning;
    };

    void ensureWorkers(unsigned count);
    void workerLoop(unsigned id);
    void runAs(Job &job, size_t self);
    void dispatch(Job &j);

    std::mutex mu;
    std::condition_variable cv;      ///< Wakes idle workers.
    std::condition_variable doneCv;  ///< Wakes the caller.
    Job *job = nullptr;              ///< Published under `mu`.
    uint64_t generation = 0;         ///< Bumped per job.
    unsigned spawned = 0;

    // Dispatch counters: written by the one dispatching caller, read
    // by anyone.
    std::atomic<uint64_t> jobs{0};
    std::atomic<double> wakeMin{0}, wakeTotal{0};
};

} // namespace calyx

#endif // CALYX_SUPPORT_POOL_H
