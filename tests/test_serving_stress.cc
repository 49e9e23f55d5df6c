/**
 * @file
 * Serving-layer concurrency stress: many producer threads hammering
 * one server with a tiny coalescing window, shutdown racing in-flight
 * work, and concurrent shutdown calls. Every submitted request must
 * resolve exactly once — no lost futures, no duplicated responses, no
 * hangs — and requests accepted before shutdown must still be served.
 *
 * This suite (with tests/test_serving.cc and tests/test_threadpool.cc)
 * also runs under ThreadSanitizer in CI (the tsan lane,
 * -DFORMS_SANITIZE_THREAD=ON), which turns any data race in the
 * submit/batch/shutdown paths into a hard failure.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "compile/passes.hh"
#include "nn/layers.hh"
#include "obs/metrics.hh"
#include "serve/backends.hh"
#include "serve/server.hh"
#include "sim/graph_runtime.hh"

namespace forms {
namespace {

/** Echoes each request's id into a 1-element logits row. */
class EchoBackend : public serve::Backend
{
  public:
    std::atomic<uint64_t> served{0};

    Tensor run(const Tensor &batch, const uint64_t *ids,
               std::vector<sim::RuntimeReport> &per) override
    {
        const int64_t n = batch.dim(0);
        per.assign(static_cast<size_t>(n), sim::RuntimeReport{});
        Tensor out({n, 1});
        for (int64_t i = 0; i < n; ++i)
            out.data()[i] =
                static_cast<float>(ids[static_cast<size_t>(i)]);
        served.fetch_add(static_cast<uint64_t>(n));
        return out;
    }
};

TEST(ServingStress, ManyProducersNoLossNoDuplication)
{
    EchoBackend backend;
    serve::ServerConfig sc;
    sc.maxBatch = 5;
    sc.maxDelayUs = 200;      // tiny window: constant flush pressure
    sc.queueCapacity = 0;     // unbounded: nothing may be shed
    serve::Server server(backend, sc);

    constexpr int kThreads = 6, kPerThread = 40;
    std::vector<std::vector<std::future<serve::Response>>> futs(
        kThreads);
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t) {
        producers.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const uint64_t id =
                    static_cast<uint64_t>(t) * 1000 +
                    static_cast<uint64_t>(i);
                futs[static_cast<size_t>(t)].push_back(
                    server.submit(Tensor({2}, 0.0f), id));
            }
        });
    }
    for (auto &p : producers)
        p.join();

    std::set<uint64_t> seen;
    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kPerThread; ++i) {
            const uint64_t id =
                static_cast<uint64_t>(t) * 1000 +
                static_cast<uint64_t>(i);
            serve::Response r =
                futs[static_cast<size_t>(t)][static_cast<size_t>(i)]
                    .get();
            ASSERT_EQ(r.status, serve::Status::Ok) << "id " << id;
            EXPECT_EQ(r.requestId, id);
            EXPECT_EQ(r.logits.data()[0], static_cast<float>(id))
                << "response routed to the wrong request";
            EXPECT_GE(r.batchSize, 1);
            EXPECT_LE(r.batchSize, sc.maxBatch);
            EXPECT_TRUE(seen.insert(id).second)
                << "duplicate response for id " << id;
        }
    }
    EXPECT_EQ(seen.size(),
              static_cast<size_t>(kThreads) * kPerThread);
    EXPECT_EQ(backend.served.load(),
              static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ServingStress, ShutdownRacesInFlightSubmits)
{
    EchoBackend backend;
    serve::ServerConfig sc;
    sc.maxBatch = 4;
    sc.maxDelayUs = 100;
    sc.queueCapacity = 0;
    serve::Server server(backend, sc);

    constexpr int kThreads = 4, kPerThread = 60;
    std::vector<std::vector<std::future<serve::Response>>> futs(
        kThreads);
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t) {
        producers.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const uint64_t id =
                    static_cast<uint64_t>(t) * 1000 +
                    static_cast<uint64_t>(i);
                futs[static_cast<size_t>(t)].push_back(
                    server.submit(Tensor({2}, 0.0f), id));
                if (i % 8 == 0)
                    std::this_thread::yield();
            }
        });
    }
    // Race shutdown into the middle of the submit storm.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    server.shutdown();
    for (auto &p : producers)
        p.join();

    // Every future resolves exactly once: accepted requests are
    // served (shutdown drains), late ones get the typed refusal.
    uint64_t ok = 0, shut = 0;
    for (int t = 0; t < kThreads; ++t) {
        for (auto &f : futs[static_cast<size_t>(t)]) {
            serve::Response r = f.get();
            if (r.status == serve::Status::Ok) {
                EXPECT_EQ(r.logits.data()[0],
                          static_cast<float>(r.requestId));
                ++ok;
            } else {
                EXPECT_EQ(r.status, serve::Status::ShutDown);
                ++shut;
            }
        }
    }
    EXPECT_EQ(ok + shut,
              static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(backend.served.load(), ok);
}

TEST(ServingStress, ConcurrentShutdownIsSafe)
{
    EchoBackend backend;
    serve::ServerConfig sc;
    sc.maxBatch = 2;
    sc.maxDelayUs = 100;
    serve::Server server(backend, sc);

    auto f = server.submit(Tensor({2}, 0.0f), 7);
    std::vector<std::thread> closers;
    for (int i = 0; i < 4; ++i)
        closers.emplace_back([&] { server.shutdown(); });
    for (auto &c : closers)
        c.join();
    EXPECT_EQ(f.get().status, serve::Status::Ok);
    // The destructor's shutdown after explicit shutdown is also a
    // no-op; leaving scope must not crash or hang.
}

TEST(ServingStress, DestructorDrainsPendingWork)
{
    EchoBackend backend;
    std::vector<std::future<serve::Response>> futs;
    {
        serve::ServerConfig sc;
        sc.maxBatch = 100;
        sc.maxDelayUs = 60LL * 1000 * 1000;
        serve::Server server(backend, sc);
        for (int i = 0; i < 5; ++i)
            futs.push_back(server.submit(Tensor({2}, 0.0f),
                                         static_cast<uint64_t>(i)));
        // Destructor runs here with all 5 still queued.
    }
    for (int i = 0; i < 5; ++i) {
        serve::Response r = futs[static_cast<size_t>(i)].get();
        EXPECT_EQ(r.status, serve::Status::Ok);
        EXPECT_EQ(r.logits.data()[0], static_cast<float>(i));
    }
}

/** Throws ChipFailure on the first `failures` batches, then echoes. */
class FlakyBackend : public EchoBackend
{
  public:
    explicit FlakyBackend(int failures) : failures_(failures) {}

    Tensor run(const Tensor &batch, const uint64_t *ids,
               std::vector<sim::RuntimeReport> &per) override
    {
        if (failures_.fetch_sub(1) > 0)
            throw serve::ChipFailure(0);
        return EchoBackend::run(batch, ids, per);
    }

  private:
    std::atomic<int> failures_;
};

TEST(ServingStress, ChipFailureRequeuesWithoutLossOrDuplication)
{
    // The first 2 batches die with a chip; every request must still
    // resolve exactly once, Ok, in its original identity — and at
    // least the head of the queue has visibly survived requeues.
    FlakyBackend backend(2);
    serve::ServerConfig sc;
    sc.maxBatch = 4;
    sc.maxDelayUs = 200;
    sc.queueCapacity = 0;
    sc.maxRequeues = 3;
    serve::Server server(backend, sc);

    constexpr int kRequests = 24;
    std::vector<std::future<serve::Response>> futs;
    for (int i = 0; i < kRequests; ++i)
        futs.push_back(server.submit(Tensor({2}, 0.0f),
                                     static_cast<uint64_t>(i)));

    std::set<uint64_t> seen;
    int requeued_ok = 0;
    for (int i = 0; i < kRequests; ++i) {
        serve::Response r = futs[static_cast<size_t>(i)].get();
        ASSERT_EQ(r.status, serve::Status::Ok) << "id " << i;
        EXPECT_EQ(r.requestId, static_cast<uint64_t>(i));
        EXPECT_EQ(r.logits.data()[0], static_cast<float>(i));
        EXPECT_TRUE(seen.insert(r.requestId).second)
            << "duplicate response for id " << i;
        requeued_ok += r.requeues > 0;
    }
    EXPECT_EQ(seen.size(), static_cast<size_t>(kRequests));
    EXPECT_GT(requeued_ok, 0)
        << "two thrown batches left no visible requeue";
}

TEST(ServingStress, RequeueBudgetExhaustionIsTypedNotSilent)
{
    // A backend that always throws: every request burns its full
    // retry budget and resolves with Status::Requeued — never hangs,
    // never resolves twice.
    FlakyBackend backend(1 << 20);
    serve::ServerConfig sc;
    sc.maxBatch = 2;
    sc.maxDelayUs = 100;
    sc.maxRequeues = 2;
    serve::Server server(backend, sc);

    std::vector<std::future<serve::Response>> futs;
    for (int i = 0; i < 6; ++i)
        futs.push_back(server.submit(Tensor({2}, 0.0f),
                                     static_cast<uint64_t>(i)));
    for (int i = 0; i < 6; ++i) {
        serve::Response r = futs[static_cast<size_t>(i)].get();
        EXPECT_EQ(r.status, serve::Status::Requeued) << "id " << i;
        EXPECT_EQ(r.requestId, static_cast<uint64_t>(i));
        EXPECT_EQ(r.requeues, sc.maxRequeues);
    }
    EXPECT_EQ(backend.served.load(), 0u);
}

/**
 * Throws a plain std::runtime_error (not ChipFailure) on its first
 * batch, remembering that batch's ids, then echoes.
 */
class ThrowOnceBackend : public EchoBackend
{
  public:
    std::set<uint64_t> failedIds;   // written by the batcher only

    Tensor run(const Tensor &batch, const uint64_t *ids,
               std::vector<sim::RuntimeReport> &per) override
    {
        if (!thrown_.exchange(true)) {
            for (int64_t i = 0; i < batch.dim(0); ++i)
                failedIds.insert(ids[static_cast<size_t>(i)]);
            throw std::runtime_error("simulated backend fault");
        }
        return EchoBackend::run(batch, ids, per);
    }

  private:
    std::atomic<bool> thrown_{false};
};

TEST(ServingStress, BackendErrorFailsOnlyItsBatchAndServingContinues)
{
    // A non-ChipFailure exception must not escape the batcher thread:
    // the batch it hit resolves with the typed Status::BackendError,
    // and requests submitted afterwards are still served Ok.
    ThrowOnceBackend backend;
    obs::MetricsRegistry metrics;
    serve::ServerConfig sc;
    sc.maxBatch = 3;
    sc.maxDelayUs = 2000000;   // flush on a full batch
    sc.metrics = &metrics;
    serve::Server server(backend, sc);

    std::vector<std::future<serve::Response>> first;
    for (uint64_t id = 0; id < 3; ++id)
        first.push_back(server.submit(Tensor({2}, 0.0f), id));
    std::vector<serve::Response> first_rs;
    for (auto &f : first)
        first_rs.push_back(f.get());

    // Every future is resolved, so the batcher has finished writing
    // failedIds.
    ASSERT_FALSE(backend.failedIds.empty());
    for (const serve::Response &r : first_rs) {
        if (backend.failedIds.count(r.requestId)) {
            EXPECT_EQ(r.status, serve::Status::BackendError)
                << "id " << r.requestId;
            EXPECT_EQ(r.logits.numel(), 0);
        } else {
            EXPECT_EQ(r.status, serve::Status::Ok) << "id " << r.requestId;
        }
    }

    std::vector<std::future<serve::Response>> later;
    for (uint64_t id = 10; id < 13; ++id)
        later.push_back(server.submit(Tensor({2}, 0.0f), id));
    for (uint64_t i = 0; i < later.size(); ++i) {
        serve::Response r = later[i].get();
        ASSERT_EQ(r.status, serve::Status::Ok) << "id " << 10 + i;
        EXPECT_EQ(r.logits.data()[0], static_cast<float>(10 + i));
    }
    server.shutdown();

    uint64_t backend_errors = 0;
    for (const auto &[name, v] : metrics.snapshot().counters)
        if (name == "serve.backend_errors")
            backend_errors = v;
    EXPECT_EQ(backend_errors, 1u);
}

/** Small compiled conv net shared by the failover fleet tests. */
struct CompiledSmallNet
{
    std::unique_ptr<nn::Network> net;
    compile::Graph graph;
    std::vector<admm::LayerState> states;

    explicit CompiledSmallNet(uint64_t seed)
    {
        Rng rng(seed);
        net = std::make_unique<nn::Network>();
        net->emplace<nn::Conv2D>("stem", 3, 8, 3, 1, 1, rng);
        net->emplace<nn::ReLU>("relu0");
        net->emplace<nn::MaxPool2D>("pool", 2, 2);
        net->emplace<nn::Conv2D>("mid", 8, 4, 3, 1, 1, rng);
        net->emplace<nn::ReLU>("relu1");
        net->emplace<nn::Flatten>("flat");
        net->emplace<nn::Dense>("fc", 4 * 6 * 6, 3, rng);
        graph = compile::lowerNetwork(*net);
        graph.inferShapes({3, 12, 12});
        states = sim::snapshotCompress(*net, 8, 8);
    }
};

/** ADC quantization + device variation + read noise all on. */
sim::RuntimeConfig
noisyConfig(ThreadPool *pool)
{
    sim::RuntimeConfig cfg;
    cfg.mapping.xbarRows = 64;
    cfg.mapping.xbarCols = 64;
    cfg.mapping.fragSize = 8;
    cfg.mapping.inputBits = 8;
    cfg.engine.adcBits = 3;
    cfg.engine.cell.variationSigma = 0.1;
    cfg.engine.readNoiseSigma = 0.02;
    cfg.pool = pool;
    return cfg;
}

TEST(ServingStress, ChipDeathMidStormFailsOverBitExactly)
{
    // A 3-chip FailoverBackend loses chip 1 between two request
    // waves. Every request of both waves must resolve Ok exactly
    // once, and every served logits row must memcmp-equal the
    // request-keyed offline reference — the survivors' re-partitioned
    // fleet serves the same bits the full fleet would have
    // (docs/SERVING.md + serve/backends.hh).
    CompiledSmallNet c(501);
    Rng rng(502);
    constexpr int kWave = 8, kWaves = 2;
    Tensor all({kWave * kWaves, 3, 12, 12});
    all.fillUniform(rng, 0.0f, 1.0f);

    // Request-keyed offline reference on a single-chip GraphRuntime:
    // the serving contract makes fleet size and batching invisible.
    ThreadPool ref_pool(4);
    sim::GraphRuntime ref_rt(c.graph, c.states, noisyConfig(&ref_pool));
    std::vector<uint64_t> ids(kWave * kWaves);
    for (size_t i = 0; i < ids.size(); ++i)
        ids[i] = static_cast<uint64_t>(i);
    const Tensor ref = ref_rt.forwardRequests(all, ids.data(), nullptr);
    const int64_t elems = all.numel() / all.dim(0);
    const int64_t out_elems = ref.numel() / ref.dim(0);

    ThreadPool pool(4);
    sim::PipelineRuntimeConfig pcfg;
    pcfg.runtime = noisyConfig(&pool);
    pcfg.microBatch = 2;
    compile::ScheduleConfig scfg;
    scfg.chips = 3;
    serve::FailoverBackend backend(c.graph, c.states, pcfg, scfg);
    ASSERT_EQ(backend.fleetChips(), 3);

    serve::ServerConfig sc;
    sc.maxBatch = 4;
    sc.maxDelayUs = 200;
    sc.queueCapacity = 0;
    serve::Server server(backend, sc);

    auto submit_wave = [&](int wave) {
        std::vector<std::future<serve::Response>> futs;
        Shape sample_shape(all.shape().begin() + 1, all.shape().end());
        for (int i = wave * kWave; i < (wave + 1) * kWave; ++i) {
            Tensor img(sample_shape);
            std::memcpy(img.data(), all.data() + i * elems,
                        static_cast<size_t>(elems) * sizeof(float));
            futs.push_back(
                server.submit(std::move(img), static_cast<uint64_t>(i)));
        }
        return futs;
    };
    auto check_wave = [&](std::vector<std::future<serve::Response>> futs,
                          int wave, int *requeued) {
        for (int i = 0; i < kWave; ++i) {
            const int id = wave * kWave + i;
            serve::Response r = futs[static_cast<size_t>(i)].get();
            ASSERT_EQ(r.status, serve::Status::Ok) << "id " << id;
            EXPECT_EQ(r.requestId, static_cast<uint64_t>(id));
            ASSERT_EQ(r.logits.numel(), out_elems);
            EXPECT_EQ(0,
                      std::memcmp(r.logits.data(),
                                  ref.data() + id * out_elems,
                                  static_cast<size_t>(out_elems) *
                                      sizeof(float)))
                << "served logits diverge from the offline reference "
                   "for id " << id;
            if (requeued)
                *requeued += r.requeues > 0;
        }
    };

    check_wave(submit_wave(0), 0, nullptr);

    // The kill lands while the queue is empty, so the first wave-2
    // batch deterministically observes it, dies, and is requeued onto
    // the surviving 2-chip fleet.
    backend.killChip(1);
    int requeued = 0;
    check_wave(submit_wave(1), 1, &requeued);
    EXPECT_EQ(backend.failovers(), 1);
    EXPECT_EQ(backend.aliveChips(), 2);
    EXPECT_GT(requeued, 0) << "no wave-2 request saw the failover";

    // Killing the rest exhausts the fleet: further requests burn
    // their budget and resolve with the typed Status::Requeued.
    backend.killChip(0);
    backend.killChip(2);
    auto last = submit_wave(0);
    for (auto &f : last) {
        serve::Response r = f.get();
        EXPECT_EQ(r.status, serve::Status::Requeued);
    }
    EXPECT_EQ(backend.aliveChips(), 0);
}

} // namespace
} // namespace forms
