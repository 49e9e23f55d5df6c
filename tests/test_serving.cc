/**
 * @file
 * Serving-layer tests: the batch-invariance determinism contract
 * (docs/SERVING.md) and the server's batching/admission mechanics.
 *
 * The property under test is the hard one: a request's logits and
 * per-request stats must be bit-identical no matter which dynamic
 * batch the request lands in, what else rides in that batch, what
 * order requests arrived, or how many threads the backend shards
 * across — because every per-presentation RNG stream is keyed by the
 * stable request id, not the batch position. References come from
 * single-request forwardRequests() runs; everything is compared
 * bitwise (memcmp on logits, field-exact EngineStats).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "compile/passes.hh"
#include "compile/schedule.hh"
#include "nn/layers.hh"
#include "obs/metrics.hh"
#include "serve/backends.hh"
#include "serve/server.hh"
#include "sim/pipeline_runtime.hh"
#include "stats_testutil.hh"

namespace forms {
namespace {

constexpr int kHw = 12;

/** Small conv net with real noise sensitivity in every stage. */
std::unique_ptr<nn::Network>
makeTinyNet(Rng &rng, int *classes_out)
{
    auto net = std::make_unique<nn::Network>();
    net->emplace<nn::Conv2D>("conv1", 3, 4, 3, 1, 1, rng);
    net->emplace<nn::ReLU>("relu1");
    net->emplace<nn::MaxPool2D>("pool", 2, 2);
    net->emplace<nn::Flatten>("flat");
    *classes_out = 3;
    net->emplace<nn::Dense>("fc", 4 * (kHw / 2) * (kHw / 2), 3, rng);
    return net;
}

/** ADC quantization + device variation + read noise all on: any
 *  keying mistake shows up as a bitwise logits diff. */
sim::RuntimeConfig
noisyCfg(ThreadPool *pool)
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

/** One compiled/compressed tiny model, shared plumbing for runtimes. */
struct TinyModel
{
    Rng rng{4242};
    int classes = 0;
    std::unique_ptr<nn::Network> net;
    compile::Graph graph;
    std::vector<admm::LayerState> states;

    TinyModel()
        : net(makeTinyNet(rng, &classes)),
          graph(compile::lowerNetwork(*net))
    {
        graph.inferShapes({3, kHw, kHw});
        compile::foldBatchNorm(graph);
        states = sim::snapshotCompress(*net, 8, 8);
    }
};

/** Copy image `i` of an NCHW batch into a batch-of-one tensor. */
Tensor
imageRow(const Tensor &batch, int64_t i)
{
    Shape s = batch.shape();
    s[0] = 1;
    Tensor one(s);
    std::memcpy(one.data(), batch.data() + i * one.numel(),
                static_cast<size_t>(one.numel()) * sizeof(float));
    return one;
}

/** Bitwise row comparison (memcmp: stricter than float ==). */
void
expectRowBitIdentical(const float *got, const float *want, int64_t n,
                      const std::string &what)
{
    EXPECT_EQ(0, std::memcmp(got, want,
                             static_cast<size_t>(n) * sizeof(float)))
        << what;
}

void
expectReportIdentical(const sim::RuntimeReport &got,
                      const sim::RuntimeReport &want)
{
    ASSERT_EQ(got.layers.size(), want.layers.size());
    for (size_t i = 0; i < got.layers.size(); ++i) {
        EXPECT_EQ(got.layers[i].name, want.layers[i].name);
        EXPECT_EQ(got.layers[i].crossbars, want.layers[i].crossbars);
        expectStatsIdentical(got.layers[i].stats, want.layers[i].stats);
    }
    EXPECT_EQ(got.presentations, want.presentations);
}

TEST(Serving, GraphForwardRequestsIsBatchInvariant)
{
    TinyModel m;
    ThreadPool ref_pool(2);
    sim::RuntimeConfig cfg = noisyCfg(&ref_pool);
    sim::PipelineRuntime rt(m.graph, m.states, cfg);

    Rng rng(77);
    const int64_t n = 6;
    Tensor batch({n, 3, kHw, kHw});
    batch.fillUniform(rng, 0.0f, 1.0f);
    // Deliberately non-consecutive, unordered ids: the stream key is
    // the id, not the arrival or batch position.
    const std::vector<uint64_t> ids = {100, 5, 42, 0, 9999, 17};

    // Reference: every image served alone under its id.
    std::vector<Tensor> ref(static_cast<size_t>(n));
    std::vector<sim::RuntimeReport> ref_rep(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
        std::vector<sim::RuntimeReport> pr;
        ref[static_cast<size_t>(i)] = rt.forwardRequests(
            imageRow(batch, i), &ids[static_cast<size_t>(i)], &pr);
        ASSERT_EQ(pr.size(), 1u);
        ref_rep[static_cast<size_t>(i)] = pr[0];
    }
    const int64_t out_elems = ref[0].numel();

    // Randomly composed batches across seeds and thread counts — on
    // the same runtime (whose engines have executed plenty already:
    // history must not matter) and on freshly constructed ones.
    Rng trial_rng(31);
    for (int trial = 0; trial < 8; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        ThreadPool tp(1 + static_cast<int>(trial_rng.below(4)));
        sim::RuntimeConfig tcfg = noisyCfg(&tp);
        sim::PipelineRuntime fresh(m.graph, m.states, tcfg);
        sim::PipelineRuntime &use = trial % 2 == 0 ? rt : fresh;

        // Random subset in random order (Fisher-Yates).
        std::vector<int64_t> order;
        for (int64_t i = 0; i < n; ++i)
            if (trial_rng.bernoulli(0.7))
                order.push_back(i);
        if (order.empty())
            order.push_back(static_cast<int64_t>(trial_rng.below(n)));
        for (size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[trial_rng.below(i)]);

        const int64_t bn = static_cast<int64_t>(order.size());
        Tensor composed({bn, 3, kHw, kHw});
        std::vector<uint64_t> bids(static_cast<size_t>(bn));
        const int64_t elems = composed.numel() / bn;
        for (int64_t j = 0; j < bn; ++j) {
            const int64_t src = order[static_cast<size_t>(j)];
            std::memcpy(composed.data() + j * elems,
                        batch.data() + src * elems,
                        static_cast<size_t>(elems) * sizeof(float));
            bids[static_cast<size_t>(j)] =
                ids[static_cast<size_t>(src)];
        }

        std::vector<sim::RuntimeReport> per;
        const Tensor out =
            use.forwardRequests(composed, bids.data(), &per);
        ASSERT_EQ(per.size(), static_cast<size_t>(bn));
        for (int64_t j = 0; j < bn; ++j) {
            const int64_t src = order[static_cast<size_t>(j)];
            expectRowBitIdentical(
                out.data() + j * out_elems,
                ref[static_cast<size_t>(src)].data(), out_elems,
                "row " + std::to_string(j) + " (image " +
                    std::to_string(src) + ")");
            expectReportIdentical(per[static_cast<size_t>(j)],
                                  ref_rep[static_cast<size_t>(src)]);
        }
    }
}

TEST(Serving, PipelineForwardRequestsMatchesGraphSingleRequest)
{
    TinyModel m;
    ThreadPool ref_pool(1);
    sim::RuntimeConfig cfg = noisyCfg(&ref_pool);
    sim::PipelineRuntime ref_rt(m.graph, m.states, cfg);

    Rng rng(101);
    const int64_t n = 5;
    Tensor batch({n, 3, kHw, kHw});
    batch.fillUniform(rng, 0.0f, 1.0f);
    const std::vector<uint64_t> ids = {7, 3, 0, 1234, 8};

    std::vector<Tensor> ref(static_cast<size_t>(n));
    std::vector<sim::RuntimeReport> ref_rep(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
        std::vector<sim::RuntimeReport> pr;
        ref[static_cast<size_t>(i)] = ref_rt.forwardRequests(
            imageRow(batch, i), &ids[static_cast<size_t>(i)], &pr);
        ref_rep[static_cast<size_t>(i)] = pr[0];
    }
    const int64_t out_elems = ref[0].numel();

    // A multi-chip pipeline with micro-batching: the same requests,
    // batched together, must reproduce each single-request reference
    // bitwise — across micro-batch boundaries and chips.
    for (int chips = 1; chips <= 3; ++chips) {
        SCOPED_TRACE("chips " + std::to_string(chips));
        ThreadPool tp(3);
        compile::ScheduleConfig scfg;
        scfg.chips = chips;
        sim::PipelineRuntimeConfig pcfg;
        pcfg.runtime = noisyCfg(&tp);
        pcfg.microBatch = 2;
        sim::PipelineRuntime pr(
            m.graph, compile::Schedule::partition(m.graph, scfg),
            m.states, pcfg);

        std::vector<sim::RuntimeReport> per;
        const Tensor out = pr.forwardRequests(batch, ids.data(), &per);
        ASSERT_EQ(per.size(), static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i) {
            expectRowBitIdentical(out.data() + i * out_elems,
                                  ref[static_cast<size_t>(i)].data(),
                                  out_elems,
                                  "row " + std::to_string(i));
            expectReportIdentical(per[static_cast<size_t>(i)],
                                  ref_rep[static_cast<size_t>(i)]);
        }
    }
}

TEST(Serving, OfflineForwardUnchangedByKeyedStreams)
{
    // forward() keys streams by consecutive runtime-lifetime ids —
    // which must replay exactly after resetPresentationStreams(),
    // and two consecutive single-image forwards must equal one
    // two-image forward (ids continue across forward() calls).
    TinyModel m;
    ThreadPool pool(2);
    sim::RuntimeConfig cfg = noisyCfg(&pool);
    sim::PipelineRuntime rt(m.graph, m.states, cfg);

    Rng rng(55);
    Tensor batch({2, 3, kHw, kHw});
    batch.fillUniform(rng, 0.0f, 1.0f);

    const Tensor whole = rt.forward(batch);
    rt.resetPresentationStreams();
    const Tensor first = rt.forward(imageRow(batch, 0));
    const Tensor second = rt.forward(imageRow(batch, 1));

    const int64_t out_elems = whole.numel() / 2;
    expectRowBitIdentical(first.data(), whole.data(), out_elems,
                          "image 0: split vs whole batch");
    expectRowBitIdentical(second.data(), whole.data() + out_elems,
                          out_elems, "image 1: split vs whole batch");

    rt.resetPresentationStreams();
    const Tensor replay = rt.forward(batch);
    EXPECT_TRUE(replay.equals(whole));
}

TEST(Serving, ServerMatchesSingleRequestReference)
{
    TinyModel m;
    ThreadPool srv_pool(4);
    sim::RuntimeConfig cfg = noisyCfg(&srv_pool);
    sim::PipelineRuntime rt(m.graph, m.states, cfg);
    serve::PipelineBackend backend(rt);

    obs::MetricsRegistry metrics;
    serve::ServerConfig sc;
    sc.maxBatch = 3;
    sc.maxDelayUs = 500;
    sc.metrics = &metrics;
    serve::Server server(backend, sc);

    // Reference runtime: separate engines, one thread — the server
    // must match it bitwise anyway.
    ThreadPool ref_pool(1);
    sim::RuntimeConfig rcfg = noisyCfg(&ref_pool);
    sim::PipelineRuntime ref_rt(m.graph, m.states, rcfg);

    constexpr int kThreads = 4, kPerThread = 6;
    constexpr int kReq = kThreads * kPerThread;
    std::vector<Tensor> images(kReq);
    std::vector<Tensor> ref(kReq);
    std::vector<sim::RuntimeReport> ref_rep(kReq);
    for (int i = 0; i < kReq; ++i) {
        Rng irng(500 + static_cast<uint64_t>(i));
        Tensor one({1, 3, kHw, kHw});
        one.fillUniform(irng, 0.0f, 1.0f);
        const uint64_t id = static_cast<uint64_t>(i);
        std::vector<sim::RuntimeReport> pr;
        ref[static_cast<size_t>(i)] =
            ref_rt.forwardRequests(one, &id, &pr);
        ref_rep[static_cast<size_t>(i)] = pr[0];
        // The submitted image is the single sample (no batch dim).
        Tensor img({3, kHw, kHw});
        std::memcpy(img.data(), one.data(),
                    static_cast<size_t>(img.numel()) * sizeof(float));
        images[static_cast<size_t>(i)] = std::move(img);
    }
    const int64_t out_elems = ref[0].numel();

    std::vector<std::future<serve::Response>> futs(kReq);
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t) {
        producers.emplace_back([&, t] {
            for (int j = 0; j < kPerThread; ++j) {
                const int i = t * kPerThread + j;
                futs[static_cast<size_t>(i)] = server.submit(
                    images[static_cast<size_t>(i)],
                    static_cast<uint64_t>(i));
            }
        });
    }
    for (auto &p : producers)
        p.join();

    for (int i = 0; i < kReq; ++i) {
        serve::Response r = futs[static_cast<size_t>(i)].get();
        ASSERT_EQ(r.status, serve::Status::Ok) << "request " << i;
        EXPECT_EQ(r.requestId, static_cast<uint64_t>(i));
        EXPECT_GE(r.batchSize, 1);
        EXPECT_LE(r.batchSize, sc.maxBatch);
        EXPECT_GE(r.totalUs, r.queueUs);
        ASSERT_EQ(r.logits.numel(), out_elems);
        expectRowBitIdentical(r.logits.data(),
                              ref[static_cast<size_t>(i)].data(),
                              out_elems,
                              "request " + std::to_string(i));
        expectReportIdentical(r.report,
                              ref_rep[static_cast<size_t>(i)]);
    }

    server.shutdown();
    const auto snap = metrics.snapshot();
    for (const auto &[name, v] : snap.counters) {
        if (name == "serve.accepted" || name == "serve.completed")
            EXPECT_EQ(v, static_cast<uint64_t>(kReq)) << name;
    }
}

/** Controllable backend: echoes each request's id into its logits. */
class EchoBackend : public serve::Backend
{
  public:
    std::atomic<int> entered{0};
    bool block = false;   //!< set before the server starts

    Tensor run(const Tensor &batch, const uint64_t *ids,
               std::vector<sim::RuntimeReport> &per) override
    {
        entered.fetch_add(1);
        if (block) {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [this] { return released_; });
        }
        const int64_t n = batch.dim(0);
        {
            std::lock_guard<std::mutex> lk(sizes_mu_);
            sizes_.push_back(static_cast<int>(n));
        }
        per.assign(static_cast<size_t>(n), sim::RuntimeReport{});
        Tensor out({n, 1});
        for (int64_t i = 0; i < n; ++i)
            out.data()[i] =
                static_cast<float>(ids[static_cast<size_t>(i)]);
        return out;
    }

    void release()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            released_ = true;
        }
        cv_.notify_all();
    }

    std::vector<int> sizes()
    {
        std::lock_guard<std::mutex> lk(sizes_mu_);
        return sizes_;
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool released_ = false;
    std::mutex sizes_mu_;
    std::vector<int> sizes_;
};

/**
 * A bad batching knob stops the Server constructor with a message
 * naming the field, instead of being silently rewritten.
 */
TEST(ServerConfigValidate, EachBadFieldDiesNamingIt)
{
    EchoBackend backend;
    const auto dies = [&](void (*spoil)(serve::ServerConfig &),
                          const char *name) {
        serve::ServerConfig sc;
        spoil(sc);
        EXPECT_DEATH(serve::Server srv(backend, sc),
                     std::string("ServerConfig::") + name);
    };
    dies([](serve::ServerConfig &c) { c.maxBatch = 0; }, "maxBatch");
    dies([](serve::ServerConfig &c) { c.maxBatch = -3; }, "maxBatch");
    dies([](serve::ServerConfig &c) { c.maxDelayUs = -1; }, "maxDelayUs");
    dies([](serve::ServerConfig &c) { c.maxRequeues = -1; },
         "maxRequeues");
    // The boundary values are valid.
    serve::ServerConfig edge;
    edge.maxBatch = 1;
    edge.maxDelayUs = 0;
    edge.maxRequeues = 0;
    serve::Server srv(backend, edge);
}

TEST(Serving, FlushesWhenBatchFills)
{
    EchoBackend backend;
    serve::ServerConfig sc;
    sc.maxBatch = 4;
    sc.maxDelayUs = 60LL * 1000 * 1000;   // never: size must trigger
    serve::Server server(backend, sc);

    std::vector<std::future<serve::Response>> futs;
    for (int i = 0; i < 4; ++i)
        futs.push_back(server.submit(Tensor({1}, 0.0f),
                                     static_cast<uint64_t>(i)));
    for (int i = 0; i < 4; ++i) {
        serve::Response r = futs[static_cast<size_t>(i)].get();
        EXPECT_EQ(r.status, serve::Status::Ok);
        EXPECT_EQ(r.batchSize, 4) << "the full batch should flush as "
                                     "one, well before the deadline";
        EXPECT_EQ(r.logits.data()[0], static_cast<float>(i));
    }
    EXPECT_EQ(backend.sizes(), std::vector<int>{4});
}

TEST(Serving, FlushesOnDeadlineWithPartialBatch)
{
    EchoBackend backend;
    serve::ServerConfig sc;
    sc.maxBatch = 100;                    // never: deadline must trigger
    sc.maxDelayUs = 10 * 1000;            // 10 ms
    serve::Server server(backend, sc);

    auto f0 = server.submit(Tensor({1}, 0.0f), 0);
    auto f1 = server.submit(Tensor({1}, 0.0f), 1);
    serve::Response r0 = f0.get();
    serve::Response r1 = f1.get();
    EXPECT_EQ(r0.status, serve::Status::Ok);
    EXPECT_EQ(r1.status, serve::Status::Ok);
    EXPECT_GE(r0.batchSize, 1);
    EXPECT_LE(r0.batchSize, 2);
    // The flush can only have come from the oldest request's
    // deadline: its queue wait is at least maxDelayUs (the batcher
    // cannot time out earlier on a steady clock).
    EXPECT_GE(r0.queueUs, 9000.0);
}

TEST(Serving, AdmissionRejectsWhenQueueFull)
{
    EchoBackend backend;
    backend.block = true;
    obs::MetricsRegistry metrics;
    serve::ServerConfig sc;
    sc.maxBatch = 1;
    sc.maxDelayUs = 0;
    sc.queueCapacity = 2;
    sc.metrics = &metrics;
    serve::Server server(backend, sc);

    // First request occupies the backend (blocked inside run()).
    auto fa = server.submit(Tensor({1}, 0.0f), 1);
    while (backend.entered.load() < 1)
        std::this_thread::yield();

    // Two more fill the bounded queue; the fourth is shed.
    auto fb = server.submit(Tensor({1}, 0.0f), 2);
    auto fc = server.submit(Tensor({1}, 0.0f), 3);
    auto fd = server.submit(Tensor({1}, 0.0f), 4);

    // Rejection is immediate — a typed error in the future, resolved
    // without waiting on the backend.
    ASSERT_EQ(fd.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    serve::Response rd = fd.get();
    EXPECT_EQ(rd.status, serve::Status::Rejected);
    EXPECT_EQ(rd.requestId, 4u);

    backend.release();
    EXPECT_EQ(fa.get().status, serve::Status::Ok);
    EXPECT_EQ(fb.get().status, serve::Status::Ok);
    EXPECT_EQ(fc.get().status, serve::Status::Ok);

    server.shutdown();
    uint64_t rejected = 0, accepted = 0;
    for (const auto &[name, v] : metrics.snapshot().counters) {
        if (name == "serve.rejected")
            rejected = v;
        if (name == "serve.accepted")
            accepted = v;
    }
    EXPECT_EQ(rejected, 1u);
    EXPECT_EQ(accepted, 3u);
}

TEST(Serving, ShutdownDrainsQueuedWorkThenRefuses)
{
    EchoBackend backend;
    serve::ServerConfig sc;
    sc.maxBatch = 100;
    sc.maxDelayUs = 60LL * 1000 * 1000;
    serve::Server server(backend, sc);

    std::vector<std::future<serve::Response>> futs;
    for (int i = 0; i < 3; ++i)
        futs.push_back(server.submit(Tensor({1}, 0.0f),
                                     static_cast<uint64_t>(i)));
    server.shutdown();   // must serve the 3 queued, not drop them

    for (int i = 0; i < 3; ++i) {
        serve::Response r = futs[static_cast<size_t>(i)].get();
        EXPECT_EQ(r.status, serve::Status::Ok) << "request " << i;
        EXPECT_EQ(r.logits.data()[0], static_cast<float>(i));
    }

    auto late = server.submit(Tensor({1}, 0.0f), 99);
    ASSERT_EQ(late.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(late.get().status, serve::Status::ShutDown);
}

TEST(Serving, MetricNamesAreDocumented)
{
    // Exercise every serve.* instrument (including a rejection and a
    // wrong-shaped request), then require each emitted name to appear
    // in docs/OBSERVABILITY.md — the doc table and the code cannot
    // drift apart.
    EchoBackend backend;
    backend.block = true;
    obs::MetricsRegistry metrics;
    serve::ServerConfig sc;
    sc.maxBatch = 1;
    sc.queueCapacity = 1;
    sc.metrics = &metrics;
    serve::Server server(backend, sc);

    auto fa = server.submit(Tensor({1}, 0.0f), 1);
    while (backend.entered.load() < 1)
        std::this_thread::yield();
    auto fb = server.submit(Tensor({1}, 0.0f), 2);   // fills the queue
    auto fc = server.submit(Tensor({1}, 0.0f), 3);   // shed
    EXPECT_EQ(fc.get().status, serve::Status::Rejected);
    auto fd = server.submit(Tensor({2}, 0.0f), 4);   // wrong shape
    EXPECT_EQ(fd.get().status, serve::Status::Invalid);
    backend.release();
    fa.get();
    fb.get();
    server.shutdown();

    std::ifstream doc(std::string(FORMS_SOURCE_DIR) +
                      "/docs/OBSERVABILITY.md");
    ASSERT_TRUE(doc.good()) << "docs/OBSERVABILITY.md not readable";
    std::stringstream ss;
    ss << doc.rdbuf();
    const std::string text = ss.str();

    const auto snap = metrics.snapshot();
    std::vector<std::string> names;
    for (const auto &[name, v] : snap.counters)
        names.push_back(name);
    for (const auto &[name, v] : snap.gauges)
        names.push_back(name);
    for (const auto &[name, v] : snap.histograms)
        names.push_back(name);
    ASSERT_FALSE(names.empty());
    for (const std::string &name : names) {
        EXPECT_NE(text.find(name), std::string::npos)
            << "metric `" << name
            << "` is not documented in docs/OBSERVABILITY.md";
    }

    // ...and the full instrument set actually fired.
    const std::vector<std::string> expected = {
        "serve.accepted",  "serve.rejected",   "serve.completed",
        "serve.batches",   "serve.queue_depth", "serve.batch_size",
        "serve.queue_us",  "serve.latency_us", "serve.invalid",
    };
    for (const std::string &e : expected)
        EXPECT_NE(std::find(names.begin(), names.end(), e),
                  names.end())
            << "expected instrument `" << e << "` was never recorded";
}

} // namespace
} // namespace forms
