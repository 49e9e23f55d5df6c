#include "common/threadpool.hh"

#include <algorithm>
#include <cstdlib>

namespace forms {

namespace {

/** Which pool/shard the current thread is executing inside, if any. */
struct ActiveShard
{
    const ThreadPool *pool = nullptr;
    int shard = 0;
};

thread_local ActiveShard tl_active;

/** Innermost PoolScope override for this thread (null = global). */
thread_local ThreadPool *tl_current_pool = nullptr;

} // namespace

PoolScope::PoolScope(ThreadPool &pool) : previous_(tl_current_pool)
{
    tl_current_pool = &pool;
}

PoolScope::~PoolScope()
{
    tl_current_pool = previous_;
}

ThreadPool &
ThreadPool::current()
{
    return tl_current_pool ? *tl_current_pool : global();
}

ThreadPool::ThreadPool(int threads)
{
    nThreads_ = threads > 0 ? threads : defaultThreads();
    workers_.reserve(static_cast<size_t>(nThreads_ - 1));
    for (int s = 1; s < nThreads_; ++s)
        workers_.emplace_back([this, s] { workerLoop(s); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

int
ThreadPool::defaultThreads()
{
    if (const char *env = std::getenv("FORMS_THREADS")) {
        const int n = std::atoi(env);
        if (n > 0)
            return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

void
ThreadPool::runShard(const Job &job, int shard)
{
    // Claim chunks from the shared counter: a shard that finishes
    // early takes the next chunk instead of idling at the join. The
    // counter only grows, so a shard's indices still increase.
    const int64_t chunks =
        (job.end - job.begin + job.grain - 1) / job.grain;
    for (int64_t c = nextChunk_++; c < chunks; c = nextChunk_++) {
        const int64_t lo = job.begin + c * job.grain;
        const int64_t hi = std::min(job.end, lo + job.grain);
        for (int64_t i = lo; i < hi; ++i)
            (*job.fn)(i, shard);
    }
}

void
ThreadPool::recordError()
{
    std::lock_guard<std::mutex> lk(m_);
    if (!firstError_)
        firstError_ = std::current_exception();
}

void
ThreadPool::workerLoop(int shard)
{
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
        cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_)
            return;
        seen = generation_;
        const Job job = job_;
        lk.unlock();

        tl_active = {this, shard};
        try {
            runShard(job, shard);
        } catch (...) {
            recordError();
        }
        tl_active = {};

        lk.lock();
        if (--pending_ == 0)
            doneCv_.notify_all();
    }
}

void
ThreadPool::parallelFor(int64_t begin, int64_t end, int64_t grain,
                        const std::function<void(int64_t, int)> &fn)
{
    if (begin >= end)
        return;
    grain = std::max<int64_t>(1, grain);

    // Nested call from inside one of our own shards: run inline on
    // the caller's shard — reusing the workers would deadlock the
    // fork-join barrier, and the caller's shard id keeps per-thread
    // scratch indexing valid. A call into a *different* pool
    // falls through to normal dispatch: that pool's workers are free
    // and hand out their own unique shard ids. (Cyclic cross-pool
    // nesting — A's workers entering B while B's workers enter A —
    // is not supported.)
    if (tl_active.pool == this) {
        const int shard = tl_active.shard;
        for (int64_t i = begin; i < end; ++i)
            fn(i, shard);
        return;
    }

    const int64_t chunks = (end - begin + grain - 1) / grain;
    if (nThreads_ == 1 || chunks == 1) {
        // Single shard: no handoff, run on the caller as shard 0.
        // Restore the caller's own shard state afterwards — it may be
        // a worker of another pool.
        const ActiveShard prev = tl_active;
        tl_active = {this, 0};
        try {
            for (int64_t i = begin; i < end; ++i)
                fn(i, 0);
        } catch (...) {
            tl_active = prev;
            throw;
        }
        tl_active = prev;
        return;
    }

    // Outside callers racing on the same pool queue up here instead of
    // corrupting the fork-join state.
    std::lock_guard<std::mutex> dispatch(dispatchM_);

    Job job{begin, end, grain, &fn};
    {
        std::lock_guard<std::mutex> lk(m_);
        job_ = job;
        nextChunk_ = 0;
        firstError_ = nullptr;
        pending_ = nThreads_ - 1;
        ++generation_;
    }
    cv_.notify_all();

    // The calling thread is shard 0 (of this pool — it may be a
    // worker of another pool, so restore its state afterwards).
    const ActiveShard prev = tl_active;
    tl_active = {this, 0};
    try {
        runShard(job, 0);
    } catch (...) {
        recordError();
    }
    tl_active = prev;

    std::unique_lock<std::mutex> lk(m_);
    doneCv_.wait(lk, [&] { return pending_ == 0; });
    if (firstError_) {
        std::exception_ptr e = firstError_;
        firstError_ = nullptr;
        lk.unlock();
        std::rethrow_exception(e);
    }
}

} // namespace forms
