/**
 * @file
 * Deterministic fork-join thread pool used by the batched inference
 * runtime and the tensor kernels.
 *
 * Design goals, in order: reproducibility, simplicity, throughput.
 * parallelFor() splits [begin, end) into fixed chunks of `grain`
 * indices and assigns chunk c statically to shard (c % threads) — no
 * work stealing, so the (index -> worker) mapping is a pure function
 * of (range, grain, thread count) and per-worker accumulators are
 * reproducible run-to-run. The calling thread participates as shard 0;
 * a pool of T threads spawns T-1 workers. A nested parallelFor on the
 * *same* pool executes inline on the calling worker's shard (no
 * deadlock, accumulator indexing stays valid); a call into a
 * different pool dispatches normally to that pool's idle workers.
 * Cyclic cross-pool nesting is not supported.
 *
 * Exceptions thrown by the body are caught, the first one recorded,
 * and rethrown on the calling thread after the join.
 */

#ifndef FORMS_COMMON_THREADPOOL_HH
#define FORMS_COMMON_THREADPOOL_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace forms {

/** Fixed-size fork-join pool with static, deterministic sharding. */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 = defaultThreads(). */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of shards (calling thread included). */
    int threads() const { return nThreads_; }

    /**
     * Run fn(i, worker) for every i in [begin, end), in chunks of
     * `grain` (clamped to >= 1). `worker` is the shard index in
     * [0, threads()) executing the call — use it to index per-thread
     * accumulators. Within one shard, indices run in increasing
     * order. Blocks until the whole range is done; rethrows the first
     * exception the body threw.
     */
    void parallelFor(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int)> &fn);

    /** Process-wide shared pool (FORMS_THREADS or hardware size). */
    static ThreadPool &global();

    /**
     * Pool the free parallelFor() below dispatches to on this thread:
     * the innermost active PoolScope's pool, else global().
     */
    static ThreadPool &current();

    /** FORMS_THREADS env var if set, else hardware concurrency. */
    static int defaultThreads();

  private:
    struct Job
    {
        int64_t begin = 0, end = 0, grain = 1;
        const std::function<void(int64_t, int)> *fn = nullptr;
    };

    void workerLoop(int shard);
    void runShard(const Job &job, int shard);
    void recordError();

    int nThreads_ = 1;
    std::vector<std::thread> workers_;

    std::mutex dispatchM_;            //!< serializes concurrent callers
    std::mutex m_;
    std::condition_variable cv_;      //!< new generation posted
    std::condition_variable doneCv_;  //!< all shards finished
    uint64_t generation_ = 0;
    int pending_ = 0;
    bool stop_ = false;
    Job job_;
    std::exception_ptr firstError_;   //!< guarded by m_
};

/**
 * RAII override of the pool that free parallelFor() calls dispatch to
 * on the current thread. Lets a subsystem (e.g. PipelineRuntime) route
 * the shared tensor kernels through its own pool for the scope
 * of an operation. Nestable; restores the previous pool on exit.
 */
class PoolScope
{
  public:
    explicit PoolScope(ThreadPool &pool);
    ~PoolScope();

    PoolScope(const PoolScope &) = delete;
    PoolScope &operator=(const PoolScope &) = delete;

  private:
    ThreadPool *previous_;
};

/** parallelFor on the current thread's pool (PoolScope or global). */
inline void
parallelFor(int64_t begin, int64_t end, int64_t grain,
            const std::function<void(int64_t, int)> &fn)
{
    ThreadPool::current().parallelFor(begin, end, grain, fn);
}

} // namespace forms

#endif // FORMS_COMMON_THREADPOOL_HH
