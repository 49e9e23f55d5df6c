/**
 * @file
 * Regenerates paper Figure 13: frame-per-second speedup on CIFAR-10
 * (VGG16, ResNet18), all series normalized to non-pruned 32-bit ISAAC.
 * Six series as in the paper: PQ-ISAAC, PQ-PUMA, FORMS-8/16 without
 * zero-skipping, FORMS-8/16 with zero-skipping. Calibrated and
 * raw-physics speedups are both printed.
 *
 * A second section compiles a CIFAR-10-geometry conv net
 * (compile::lowerNetwork) and measures it on the functional
 * GraphRuntime: serial vs parallel host wall-time for the same batch
 * (bit-identical outputs), written to BENCH_runtime.json so the perf
 * trajectory is machine-trackable.
 */

#include <cstdio>

#include "common/logging.hh"
#include "common/table.hh"
#include "compile/passes.hh"
#include "nn/layers.hh"
#include "obs/run_manifest.hh"
#include "sim/graph_runtime.hh"
#include "sim/perf_model.hh"

using namespace forms;
using namespace forms::sim;

namespace {

/**
 * Serial vs parallel wall-time of the batched runtime on a small
 * CIFAR-10-geometry conv net (3x16x16 input keeps the functional
 * simulation affordable; the presentation count is what matters).
 */
void
runtimeBench()
{
    std::printf("\nBatched runtime: serial vs parallel wall-time "
                "(functional engine)\n");

    Rng rng(5);
    nn::Network net;
    net.emplace<nn::Conv2D>("conv1", 3, 16, 3, 1, 1, rng);
    net.emplace<nn::ReLU>("relu1");
    net.emplace<nn::MaxPool2D>("pool1", 2, 2);
    net.emplace<nn::Conv2D>("conv2", 16, 32, 3, 1, 1, rng);
    net.emplace<nn::ReLU>("relu2");
    net.emplace<nn::MaxPool2D>("pool2", 2, 2);
    net.emplace<nn::Flatten>("flat");
    net.emplace<nn::Dense>("fc", 32 * 4 * 4, 10, rng);

    auto graph = compile::lowerNetwork(net);
    graph.inferShapes({3, 16, 16});
    auto states = snapshotCompress(net, 8, 8);

    const int64_t images = 8;
    Tensor batch({images, 3, 16, 16});
    batch.fillUniform(rng, 0.0f, 1.0f);

    RuntimeConfig rcfg;
    rcfg.mapping.fragSize = 8;
    rcfg.mapping.inputBits = 8;
    rcfg.engine.adcBits = 4;

    ThreadPool serial_pool(1);
    ThreadPool parallel_pool(ThreadPool::defaultThreads());

    rcfg.pool = &serial_pool;
    GraphRuntime serial_rt(graph, states, rcfg);
    rcfg.pool = &parallel_pool;
    GraphRuntime parallel_rt(graph, states, rcfg);

    // Warm-up (page in the programmed arrays), then take the best of
    // three timed runs per configuration — a single sample on a busy
    // host is scheduling noise — using the wall-clock the runtime
    // itself stamps into the report. The modeled stats are
    // deterministic, so the last run's report serves for those.
    serial_rt.forward(batch);
    parallel_rt.forward(batch);

    constexpr int repeats = 3;
    RuntimeReport serial_rep, parallel_rep;
    double serial_ms = 0.0, parallel_ms = 0.0;
    for (int r = 0; r < repeats; ++r) {
        RuntimeReport srep, prep;
        serial_rt.forward(batch, &srep);
        parallel_rt.forward(batch, &prep);
        if (r == 0 || srep.wallMs < serial_ms)
            serial_ms = srep.wallMs;
        if (r == 0 || prep.wallMs < parallel_ms)
            parallel_ms = prep.wallMs;
        serial_rep = srep;
        parallel_rep = prep;
    }
    const double speedup = parallel_ms > 0.0 ? serial_ms / parallel_ms
                                             : 0.0;

    Table t({"Threads", "Wall (ms)", "Presentations",
             "Modeled time (us)", "Modeled energy (nJ)"});
    t.row().cell(static_cast<int64_t>(1)).cell(serial_ms, 1)
        .cell(static_cast<int64_t>(serial_rep.presentations))
        .cell(serial_rep.modelTimeNs() / 1e3, 2)
        .cell(serial_rep.modelEnergyPj() / 1e3, 2);
    t.row().cell(static_cast<int64_t>(parallel_pool.threads()))
        .cell(parallel_ms, 1)
        .cell(static_cast<int64_t>(parallel_rep.presentations))
        .cell(parallel_rep.modelTimeNs() / 1e3, 2)
        .cell(parallel_rep.modelEnergyPj() / 1e3, 2);
    t.print(strfmt("CIFAR-10-geometry conv net, batch %lld: %.2fx "
                   "speedup",
                   static_cast<long long>(images), speedup));

    FILE *json = std::fopen("BENCH_runtime.json", "w");
    if (!json) {
        warn("cannot write BENCH_runtime.json");
        return;
    }
    obs::RunManifest manifest = obs::RunManifest::collect("fig13_runtime");
    manifest.set("images", static_cast<int64_t>(images))
        .set("repeats", repeats)
        .set("parallel_threads", parallel_pool.threads());
    obs::JsonWriter w(json);
    w.beginObject();
    obs::writeBenchHeader(w, manifest);
    w.field("bench", "fig13_runtime");
    w.field("images", images);
    w.field("presentations", parallel_rep.presentations);
    w.field("threads", parallel_pool.threads());
    w.field("serial_wall_ms", serial_ms);
    w.field("parallel_wall_ms", parallel_ms);
    w.field("speedup", speedup);
    w.field("model_time_us", parallel_rep.modelTimeNs() / 1e3);
    w.field("model_energy_nj", parallel_rep.modelEnergyPj() / 1e3);
    w.endObject();
    std::fputc('\n', json);
    std::fclose(json);
    std::printf("wrote BENCH_runtime.json (serial %.1f ms, parallel "
                "%.1f ms on %d threads, %.2fx)\n",
                serial_ms, parallel_ms, parallel_pool.threads(),
                speedup);
}

} // namespace

int
main()
{
    obs::printBenchBanner("bench_fig13_fps_cifar10");
    std::printf("Figure 13: FPS speedup on CIFAR-10, normalized to "
                "ISAAC-32\n");

    PerfModel model;
    const ArchModel baseline = ArchModel::isaac32();
    const std::vector<ArchModel> series = {
        ArchModel::isaacPrunedQuantized(),
        ArchModel::pumaPrunedQuantized(),
        ArchModel::formsFull(8, false),
        ArchModel::formsFull(16, false),
        ArchModel::formsFull(8, true),
        ArchModel::formsFull(16, true),
    };

    for (const auto &c : figure13Cases()) {
        const double base =
            model.evaluate(baseline, c.workload, &c.profile).fps;
        const double base_raw =
            model.evaluate(baseline, c.workload, &c.profile).fpsRaw;
        Table t({"Series", "Speedup (calibrated)", "Speedup (raw)"});
        for (const auto &arch : series) {
            const PerfResult r =
                model.evaluate(arch, c.workload, &c.profile);
            t.row().cell(arch.name)
                .cell(r.fps / base, 2)
                .cell(r.fpsRaw / base_raw, 2);
        }
        t.print(c.label + strfmt("  (prune %.1fx, 8-bit weights)",
                                 c.profile.pruneRatio));
    }

    std::printf(
        "\nPaper reference (CIFAR-10): pruning alone speeds ISAAC up "
        "7.5x-200.8x; FORMS-8 with zero-skipping reaches 10.7x-377.9x "
        "over ISAAC-32 and 1.12x-2.4x over optimized ISAAC.\n");

    runtimeBench();
    return 0;
}
