/**
 * @file
 * ThreadPool unit tests: full range coverage, grain edge cases,
 * worker-id ranges, exception propagation, nested reuse, and the
 * by-index determinism of chunk claiming.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/threadpool.hh"

namespace forms {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h = 0;
    pool.parallelFor(0, 257, 3, [&](int64_t i, int) {
        hits[static_cast<size_t>(i)]++;
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, GrainEdgeCases)
{
    ThreadPool pool(3);

    // Empty and inverted ranges are no-ops.
    int calls = 0;
    pool.parallelFor(5, 5, 1, [&](int64_t, int) { ++calls; });
    pool.parallelFor(7, 2, 1, [&](int64_t, int) { ++calls; });
    EXPECT_EQ(calls, 0);

    // Nonpositive grain clamps to 1.
    std::atomic<int> n{0};
    pool.parallelFor(0, 10, 0, [&](int64_t, int) { ++n; });
    EXPECT_EQ(n.load(), 10);
    n = 0;
    pool.parallelFor(0, 10, -4, [&](int64_t, int) { ++n; });
    EXPECT_EQ(n.load(), 10);

    // Grain larger than the range: single chunk, runs on the caller
    // (worker 0).
    std::vector<int> workers;
    pool.parallelFor(0, 4, 100, [&](int64_t, int w) {
        workers.push_back(w);
    });
    ASSERT_EQ(workers.size(), 4u);
    for (int w : workers)
        EXPECT_EQ(w, 0);
}

TEST(ThreadPool, WorkerIdsStayInRange)
{
    ThreadPool pool(4);
    std::atomic<bool> ok{true};
    pool.parallelFor(0, 1000, 1, [&](int64_t, int w) {
        if (w < 0 || w >= pool.threads())
            ok = false;
    });
    EXPECT_TRUE(ok.load());
}

TEST(ThreadPool, ClaimedChunksGiveIdenticalByIndexOutputs)
{
    // Shards claim chunks from a shared counter, so which worker runs
    // an index varies run to run. The contract callers rely on does
    // not: every index runs exactly once, on a worker id in range,
    // each shard's indices increase, and results written by index are
    // the same for any thread count and any repeat.
    const int64_t n = 300;
    auto run = [&](int threads) {
        ThreadPool pool(threads);
        std::vector<uint64_t> out(static_cast<size_t>(n));
        std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
        for (auto &h : hits)
            h = 0;
        std::vector<int64_t> last(static_cast<size_t>(threads), -1);
        std::atomic<bool> ok{true};
        pool.parallelFor(0, n, 11, [&](int64_t i, int w) {
            if (w < 0 || w >= threads) {
                ok = false;
                return;
            }
            // Only shard w writes last[w].
            if (i <= last[static_cast<size_t>(w)])
                ok = false;
            last[static_cast<size_t>(w)] = i;
            hits[static_cast<size_t>(i)]++;
            uint64_t x = static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
            out[static_cast<size_t>(i)] = x ^ (x >> 29);
        });
        EXPECT_TRUE(ok.load()) << threads << " threads";
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1) << threads << " threads";
        return out;
    };
    const auto want = run(1);
    for (int threads = 1; threads <= 8; ++threads)
        for (int rep = 0; rep < 3; ++rep)
            EXPECT_EQ(run(threads), want) << threads << " threads";
}

TEST(ThreadPool, ExceptionsPropagateFromWorkers)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 100, 1, [&](int64_t i, int) {
            if (i == 57)
                throw std::runtime_error("boom");
        }),
        std::runtime_error);

    // The pool survives and stays usable after a failed launch.
    std::atomic<int> n{0};
    pool.parallelFor(0, 50, 1, [&](int64_t, int) { ++n; });
    EXPECT_EQ(n.load(), 50);
}

TEST(ThreadPool, ExceptionsPropagateFromCallerShard)
{
    ThreadPool pool(2);
    // Chunks go to whichever shard claims them first. The worker holds
    // its first chunk until the calling thread (shard 0) has claimed
    // one, so the throw comes from the caller's shard.
    std::atomic<bool> caller_in{false};
    EXPECT_THROW(
        pool.parallelFor(0, 100, 1, [&](int64_t, int w) {
            if (w == 0) {
                caller_in = true;
                throw std::logic_error("caller boom");
            }
            while (!caller_in.load())
                std::this_thread::yield();
        }),
        std::logic_error);
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(64);
    for (auto &h : hits)
        h = 0;
    // Inner calls reuse the caller's shard instead of re-entering the
    // fork-join barrier — no deadlock, full coverage.
    pool.parallelFor(0, 8, 1, [&](int64_t outer, int) {
        pool.parallelFor(0, 8, 1, [&](int64_t inner, int) {
            hits[static_cast<size_t>(outer * 8 + inner)]++;
        });
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, CrossPoolNestingDispatchesWithValidWorkerIds)
{
    // Workers of pool A entering pool B get B's own unique shard
    // ids (B serializes concurrent callers), so per-thread
    // accumulators sized to B stay race-free.
    ThreadPool a(3), b(2);
    std::vector<std::atomic<int>> hits(3 * 10);
    for (auto &h : hits)
        h = 0;
    std::atomic<bool> ids_ok{true};
    a.parallelFor(0, 3, 1, [&](int64_t outer, int) {
        b.parallelFor(0, 10, 1, [&](int64_t inner, int w) {
            if (w < 0 || w >= b.threads())
                ids_ok = false;
            hits[static_cast<size_t>(outer * 10 + inner)]++;
        });
    });
    EXPECT_TRUE(ids_ok.load());
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);

    // Back on the outer pool, the caller's shard state survived the
    // excursion: same-pool nesting still runs inline without deadlock.
    std::atomic<int> n{0};
    a.parallelFor(0, 6, 1, [&](int64_t, int) {
        a.parallelFor(0, 4, 1, [&](int64_t, int) { ++n; });
    });
    EXPECT_EQ(n.load(), 24);
}

TEST(ThreadPool, SingleThreadPoolRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1);
    int64_t sum = 0;   // no atomics needed: everything is inline
    pool.parallelFor(0, 100, 8, [&](int64_t i, int w) {
        EXPECT_EQ(w, 0);
        sum += i;
    });
    EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(ThreadPool, ReusableAcrossManyLaunches)
{
    ThreadPool pool(4);
    for (int round = 0; round < 50; ++round) {
        std::atomic<int64_t> sum{0};
        pool.parallelFor(0, 64, 5, [&](int64_t i, int) { sum += i; });
        ASSERT_EQ(sum.load(), 63 * 64 / 2);
    }
}

TEST(ThreadPool, PoolScopeRedirectsFreeParallelFor)
{
    ThreadPool inner(3), outer(2);
    EXPECT_EQ(&ThreadPool::current(), &ThreadPool::global());
    {
        PoolScope outer_scope(outer);
        EXPECT_EQ(&ThreadPool::current(), &outer);
        {
            PoolScope inner_scope(inner);
            EXPECT_EQ(&ThreadPool::current(), &inner);
            // Worker ids come from the scoped pool: max id 2.
            std::atomic<int> max_worker{-1};
            parallelFor(0, 30, 1, [&](int64_t, int w) {
                int prev = max_worker.load();
                while (w > prev &&
                       !max_worker.compare_exchange_weak(prev, w)) {
                }
            });
            EXPECT_LT(max_worker.load(), inner.threads());
        }
        EXPECT_EQ(&ThreadPool::current(), &outer);
    }
    EXPECT_EQ(&ThreadPool::current(), &ThreadPool::global());
}

TEST(ThreadPool, GlobalPoolExists)
{
    EXPECT_GE(ThreadPool::global().threads(), 1);
    std::atomic<int> n{0};
    parallelFor(0, 10, 1, [&](int64_t, int) { ++n; });
    EXPECT_EQ(n.load(), 10);
}

} // namespace
} // namespace forms
