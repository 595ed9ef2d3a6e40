#include "support/pool.h"

#include <algorithm>
#include <exception>

#include <sched.h>

namespace calyx {

namespace {

/** First exception thrown by any participant, rethrown on the caller. */
struct ErrSlot
{
    std::mutex mu;
    std::exception_ptr err;

    void capture()
    {
        std::lock_guard<std::mutex> lk(mu);
        if (!err)
            err = std::current_exception();
    }
};

ErrSlot &
errSlot()
{
    static ErrSlot e;
    return e;
}

/** Set while this thread executes pool work (caller or worker). */
thread_local bool tlInPool = false;

/** Live participant count and its high-water mark. */
std::atomic<unsigned> activeParts{0};
std::atomic<unsigned> peakParts{0};

} // namespace

WorkPool &
WorkPool::global()
{
    // Leaked singleton: worker threads block on the condvar for the
    // process lifetime, so the pool (and its synchronization objects)
    // must never be destroyed under them.
    static WorkPool *pool = new WorkPool;
    return *pool;
}

unsigned
WorkPool::defaultThreads()
{
    // The affinity mask, not hardware_concurrency(): a process pinned
    // to one CPU (taskset, a bench round) has one core to spread over.
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

unsigned
WorkPool::peakParticipants()
{
    return peakParts.load(std::memory_order_relaxed);
}

void
WorkPool::resetPeakParticipants()
{
    peakParts.store(0, std::memory_order_relaxed);
}

void
WorkPool::reserve(unsigned threads)
{
    // At most the usable cores: a wider job spawns the rest lazily,
    // never more than it has items.
    unsigned width = std::min(threads, defaultThreads());
    std::lock_guard<std::mutex> lk(mu);
    ensureWorkers(width > 1 ? width - 1 : 0);
}

WorkPool::Counters
WorkPool::counters() const
{
    Counters c;
    c.jobs = jobs.load(std::memory_order_relaxed);
    c.wakeMin = wakeMin.load(std::memory_order_relaxed);
    c.wakeTotal = wakeTotal.load(std::memory_order_relaxed);
    return c;
}

void
WorkPool::ensureWorkers(unsigned count)
{
    while (spawned < count) {
        // Count a worker once it runs: a failed spawn throws and leaves
        // no job waiting for it.
        unsigned id = spawned;
        std::thread([this, id] { workerLoop(id); }).detach();
        ++spawned;
    }
}

void
WorkPool::workerLoop(unsigned id)
{
    uint64_t lastGen = 0;
    for (;;) {
        Job *j = nullptr;
        size_t slot = 0;
        {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return job && generation != lastGen; });
            lastGen = generation;
            // Worker `id` owns participant slot id + 1 (the caller is
            // slot 0); workers beyond the job's width sit this one out.
            if (id + 1 < job->parts) {
                j = job;
                slot = id + 1;
            }
        }
        if (!j)
            continue;
        runAs(*j, slot);
        j->done.fetch_add(1);
        // Empty critical section orders the increment before the
        // notify so the caller's predicate re-check cannot miss it.
        { std::lock_guard<std::mutex> lk(mu); }
        doneCv.notify_all();
    }
}

void
WorkPool::runAs(Job &job, size_t self)
{
    bool wasInPool = tlInPool;
    tlInPool = true;
    if (job.started.fetch_add(1) + 1 == job.parts)
        job.allRunning = std::chrono::steady_clock::now();
    unsigned act = activeParts.fetch_add(1, std::memory_order_relaxed) + 1;
    unsigned peak = peakParts.load(std::memory_order_relaxed);
    while (act > peak &&
           !peakParts.compare_exchange_weak(peak, act,
                                            std::memory_order_relaxed))
        ;

    const auto &fn = *job.fn;
    auto run = [&](size_t i) {
        try {
            fn(i);
        } catch (...) {
            errSlot().capture();
        }
    };

    // Drain the own range front-to-back: contiguous indices keep one
    // participant on one cache-neighborhood of tiles.
    Range &own = job.ranges[self];
    for (size_t i;
         (i = own.next.fetch_add(1, std::memory_order_relaxed)) < own.end;)
        run(i);

    // Steal, one index at a time, from whichever range has the most
    // left. The claim is the same fetch_add the owner uses, so every
    // index is executed exactly once.
    for (;;) {
        size_t best = SIZE_MAX, bestLeft = 0;
        for (size_t r = 0; r < job.parts; ++r) {
            size_t nx = job.ranges[r].next.load(std::memory_order_relaxed);
            if (nx < job.ranges[r].end && job.ranges[r].end - nx > bestLeft) {
                bestLeft = job.ranges[r].end - nx;
                best = r;
            }
        }
        if (best == SIZE_MAX)
            break;
        Range &victim = job.ranges[best];
        size_t i = victim.next.fetch_add(1, std::memory_order_relaxed);
        if (i < victim.end)
            run(i);
    }

    activeParts.fetch_sub(1, std::memory_order_relaxed);
    tlInPool = wasInPool;
}

void
WorkPool::dispatch(Job &j)
{
    // One job at a time: the pool has a single publication slot. This
    // is also the process-wide occupancy cap — concurrent callers
    // queue here instead of stacking their thread counts.
    static std::mutex jobMu;
    std::lock_guard<std::mutex> serial(jobMu);

    {
        std::lock_guard<std::mutex> lk(errSlot().mu);
        errSlot().err = nullptr;
    }

    std::chrono::steady_clock::time_point published;
    {
        std::lock_guard<std::mutex> lk(mu);
        ensureWorkers(static_cast<unsigned>(j.parts) - 1);
        job = &j;
        ++generation;
        published = std::chrono::steady_clock::now();
    }
    cv.notify_all();

    runAs(j, 0);
    j.done.fetch_add(1);

    {
        std::unique_lock<std::mutex> lk(mu);
        doneCv.wait(lk, [&] { return j.done.load() == j.parts; });
        job = nullptr;
    }

    // jobMu makes this caller the counters' only writer.
    double wake =
        std::chrono::duration<double>(j.allRunning - published).count();
    if (jobs.load(std::memory_order_relaxed) == 0 ||
        wake < wakeMin.load(std::memory_order_relaxed))
        wakeMin.store(wake, std::memory_order_relaxed);
    wakeTotal.store(wakeTotal.load(std::memory_order_relaxed) + wake,
                    std::memory_order_relaxed);
    jobs.fetch_add(1, std::memory_order_relaxed);

    std::exception_ptr err;
    {
        std::lock_guard<std::mutex> lk(errSlot().mu);
        err = errSlot().err;
        errSlot().err = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

void
WorkPool::parallelFor(size_t n, unsigned threads,
                      const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    if (threads > n)
        threads = static_cast<unsigned>(n);
    if (threads <= 1 || tlInPool) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    Job j;
    j.fn = &fn;
    j.parts = threads;
    j.ranges = std::vector<Range>(threads);
    size_t chunk = (n + threads - 1) / threads;
    for (size_t r = 0; r < threads; ++r) {
        size_t start = r * chunk;
        j.ranges[r].next.store(start, std::memory_order_relaxed);
        j.ranges[r].end = std::min(n, start + chunk);
    }
    dispatch(j);
}

} // namespace calyx
