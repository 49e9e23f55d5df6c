/**
 * @file
 * Online-serving bench: Poisson request arrivals against the dynamic
 * micro-batching serve::Server over a GraphRuntime backend.
 *
 * Sweeps offered load from well under to well over the measured
 * offline capacity and reports, per rate: achieved throughput,
 * completion/rejection counts, p50/p95/p99 end-to-end latency and the
 * mean served batch size — the classic latency/throughput knee. The
 * knee (max achieved rps) and the sweep land in BENCH_serving.json
 * (schema: scripts/check_bench_schema.py) under an obs::RunManifest
 * header.
 *
 * The bench doubles as the serving determinism gate: every response's
 * logits are compared bitwise against a single-request reference
 * forward under the same request id; ANY divergence — across batch
 * compositions the arrival process produced — fails the bench with a
 * non-zero exit.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "compile/passes.hh"
#include "nn/layers.hh"
#include "obs/metrics.hh"
#include "obs/run_manifest.hh"
#include "serve/backends.hh"
#include "serve/server.hh"
#include "sim/graph_runtime.hh"

using namespace forms;

namespace {

constexpr int kHw = 12;
constexpr int kRequests = 80;     //!< per sweep point
constexpr int kMaxBatch = 4;
constexpr int64_t kMaxDelayUs = 400;
constexpr size_t kQueueCapacity = 64;

/** One sweep point's measurements. */
struct SweepPoint
{
    double offeredRps = 0.0;
    double achievedRps = 0.0;
    int completed = 0;
    int rejected = 0;
    double p50Us = 0.0, p95Us = 0.0, p99Us = 0.0;
    double meanBatch = 0.0;
};

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace

int
main()
{
    obs::printBenchBanner("bench_serving");
    std::printf("Online serving: Poisson arrivals vs dynamic "
                "micro-batching (maxBatch %d, deadline %lld us)\n",
                kMaxBatch, static_cast<long long>(kMaxDelayUs));

    // Small conv net under the full noise model (quantized ADC,
    // device variation, read noise): the determinism gate below is
    // only meaningful when per-presentation randomness is live.
    Rng rng(21);
    nn::Network net;
    net.emplace<nn::Conv2D>("conv1", 3, 8, 3, 1, 1, rng);
    net.emplace<nn::ReLU>("relu1");
    net.emplace<nn::MaxPool2D>("pool", 2, 2);
    net.emplace<nn::Flatten>("flat");
    net.emplace<nn::Dense>("fc", 8 * (kHw / 2) * (kHw / 2), 10, rng);

    auto graph = compile::lowerNetwork(net);
    graph.inferShapes({3, kHw, kHw});
    compile::foldBatchNorm(graph);
    auto states = sim::snapshotCompress(net, 8, 8);

    sim::RuntimeConfig rcfg;
    rcfg.mapping.fragSize = 8;
    rcfg.mapping.inputBits = 8;
    rcfg.engine.adcBits = 3;
    rcfg.engine.cell.variationSigma = 0.1;
    rcfg.engine.readNoiseSigma = 0.02;
    sim::GraphRuntime rt(graph, states, rcfg);
    serve::GraphBackend backend(rt);

    // Reference: separately programmed engines, single requests.
    sim::GraphRuntime ref_rt(graph, states, rcfg);

    // Request corpus, shared across sweep points: request i is
    // (image_i, id=i), so one reference forward per id suffices.
    std::vector<Tensor> images(kRequests);
    std::vector<Tensor> ref(kRequests);
    for (int i = 0; i < kRequests; ++i) {
        Rng irng(1000 + static_cast<uint64_t>(i));
        Tensor img({3, kHw, kHw});
        img.fillUniform(irng, 0.0f, 1.0f);
        Tensor one({1, 3, kHw, kHw});
        std::memcpy(one.data(), img.data(),
                    static_cast<size_t>(img.numel()) * sizeof(float));
        const uint64_t id = static_cast<uint64_t>(i);
        ref[static_cast<size_t>(i)] =
            ref_rt.forwardRequests(one, &id, nullptr);
        images[static_cast<size_t>(i)] = std::move(img);
    }
    const int64_t out_elems = ref[0].numel();

    // Capacity estimate: serve the whole corpus back to back at full
    // batch size, no idle time.
    double cap_rps = 0.0;
    {
        const auto t0 = std::chrono::steady_clock::now();
        serve::Server warm(backend, [] {
            serve::ServerConfig c;
            c.maxBatch = kMaxBatch;
            c.maxDelayUs = kMaxDelayUs;
            c.queueCapacity = 0;
            return c;
        }());
        std::vector<std::future<serve::Response>> futs;
        for (int i = 0; i < kRequests; ++i)
            futs.push_back(warm.submit(images[static_cast<size_t>(i)],
                                       static_cast<uint64_t>(i)));
        for (auto &f : futs)
            f.get();
        const double s = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count();
        cap_rps = s > 0.0 ? kRequests / s : 1000.0;
    }
    std::printf("measured closed-loop capacity: %.0f req/s\n", cap_rps);

    const double fractions[] = {0.25, 0.5, 1.0, 2.0};
    std::vector<SweepPoint> sweep;
    bool bit_identical = true;
    Rng arrival_rng(99);

    for (const double frac : fractions) {
        SweepPoint pt;
        pt.offeredRps = cap_rps * frac;

        obs::MetricsRegistry metrics;
        serve::ServerConfig sc;
        sc.maxBatch = kMaxBatch;
        sc.maxDelayUs = kMaxDelayUs;
        sc.queueCapacity = kQueueCapacity;
        sc.metrics = &metrics;
        serve::Server server(backend, sc);

        std::vector<std::future<serve::Response>> futs(kRequests);
        const auto t0 = std::chrono::steady_clock::now();
        double clock_s = 0.0;
        for (int i = 0; i < kRequests; ++i) {
            // Poisson process: exponential inter-arrival times.
            clock_s += -std::log(1.0 - arrival_rng.uniform()) /
                       pt.offeredRps;
            const auto due =
                t0 + std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(clock_s));
            std::this_thread::sleep_until(due);
            futs[static_cast<size_t>(i)] = server.submit(
                images[static_cast<size_t>(i)],
                static_cast<uint64_t>(i));
        }

        std::vector<double> lat_us;
        double batch_sum = 0.0;
        for (int i = 0; i < kRequests; ++i) {
            serve::Response r = futs[static_cast<size_t>(i)].get();
            if (r.status == serve::Status::Rejected) {
                ++pt.rejected;
                continue;
            }
            ++pt.completed;
            lat_us.push_back(r.totalUs);
            batch_sum += r.batchSize;
            if (r.logits.numel() != out_elems ||
                std::memcmp(r.logits.data(),
                            ref[static_cast<size_t>(i)].data(),
                            static_cast<size_t>(out_elems) *
                                sizeof(float)) != 0) {
                warn("request %d: dynamically batched logits diverge "
                     "bitwise from the single-request reference "
                     "(batch size %d)", i, r.batchSize);
                bit_identical = false;
            }
        }
        const double span_s = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count();
        pt.achievedRps =
            span_s > 0.0 ? pt.completed / span_s : 0.0;
        std::sort(lat_us.begin(), lat_us.end());
        pt.p50Us = percentile(lat_us, 0.50);
        pt.p95Us = percentile(lat_us, 0.95);
        pt.p99Us = percentile(lat_us, 0.99);
        pt.meanBatch =
            pt.completed > 0 ? batch_sum / pt.completed : 0.0;
        sweep.push_back(pt);
        server.shutdown();
    }

    Table t({"Offered rps", "Achieved rps", "Done", "Shed", "p50 us",
             "p95 us", "p99 us", "Mean batch"});
    double knee_rps = 0.0;
    for (const SweepPoint &pt : sweep) {
        knee_rps = std::max(knee_rps, pt.achievedRps);
        t.row().cell(pt.offeredRps, 0)
            .cell(pt.achievedRps, 0)
            .cell(static_cast<int64_t>(pt.completed))
            .cell(static_cast<int64_t>(pt.rejected))
            .cell(pt.p50Us, 0)
            .cell(pt.p95Us, 0)
            .cell(pt.p99Us, 0)
            .cell(pt.meanBatch, 2);
    }
    t.print(strfmt("Poisson sweep (%d requests per point, knee %.0f "
                   "req/s, bitwise vs reference: %s)",
                   kRequests, knee_rps,
                   bit_identical ? "IDENTICAL" : "DIVERGED"));

    FILE *json = std::fopen("BENCH_serving.json", "w");
    if (json) {
        obs::RunManifest manifest = obs::RunManifest::collect("serving");
        manifest.set("requests_per_point",
                     static_cast<int64_t>(kRequests));
        obs::JsonWriter w(json);
        w.beginObject();
        obs::writeBenchHeader(w, manifest);
        w.field("bench", "serving");
        w.field("threads", ThreadPool::global().threads());
        w.field("max_batch", kMaxBatch);
        w.field("max_delay_us", kMaxDelayUs);
        w.field("queue_capacity",
                static_cast<int64_t>(kQueueCapacity));
        w.field("bit_identical", bit_identical);
        w.field("knee_rps", knee_rps);
        w.key("sweep");
        w.beginArray();
        for (const SweepPoint &pt : sweep) {
            w.beginObject();
            w.field("offered_rps", pt.offeredRps);
            w.field("achieved_rps", pt.achievedRps);
            w.field("completed", static_cast<int64_t>(pt.completed));
            w.field("rejected", static_cast<int64_t>(pt.rejected));
            w.field("p50_us", pt.p50Us);
            w.field("p95_us", pt.p95Us);
            w.field("p99_us", pt.p99Us);
            w.field("mean_batch", pt.meanBatch);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::fputc('\n', json);
        std::fclose(json);
        std::printf("wrote BENCH_serving.json (%zu sweep points)\n",
                    sweep.size());
    } else {
        warn("cannot write BENCH_serving.json");
    }

    if (!bit_identical) {
        std::printf("FAIL: dynamic batching changed at least one "
                    "request's logits\n");
        return 1;
    }
    return 0;
}
