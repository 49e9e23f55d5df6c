/**
 * @file
 * Regenerates paper Figure 13: frame-per-second speedup on CIFAR-10
 * (VGG16, ResNet18), all series normalized to non-pruned 32-bit ISAAC.
 * Six series as in the paper: PQ-ISAAC, PQ-PUMA, FORMS-8/16 without
 * zero-skipping, FORMS-8/16 with zero-skipping. Calibrated and
 * raw-physics speedups are both printed.
 *
 * A second section compiles a CIFAR-10-geometry conv net
 * (compile::lowerNetwork), runs it on the functional single-chip
 * PipelineRuntime and writes its modeled cost to BENCH_runtime.json.
 * Host speed is measured by benchmark/, not here.
 */

#include <cstdio>

#include "common/logging.hh"
#include "common/table.hh"
#include "compile/passes.hh"
#include "nn/layers.hh"
#include "obs/run_manifest.hh"
#include "sim/pipeline_runtime.hh"
#include "sim/perf_model.hh"

using namespace forms;
using namespace forms::sim;

namespace {

/**
 * Modeled latency / energy of the batched runtime on a small
 * CIFAR-10-geometry conv net (3x16x16 input keeps the functional
 * simulation affordable; the presentation count is what matters).
 */
void
runtimeBench()
{
    std::printf("\nBatched runtime: modeled cost (functional engine)\n");

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
    PipelineRuntime rt(graph, states, rcfg);

    RuntimeReport rep;
    rt.forward(batch, &rep);

    Table t({"Images", "Presentations", "Modeled time (us)",
             "Modeled energy (nJ)"});
    t.row().cell(images)
        .cell(static_cast<int64_t>(rep.presentations))
        .cell(rep.modelTimeNs() / 1e3, 2)
        .cell(rep.modelEnergyPj() / 1e3, 2);
    t.print("CIFAR-10-geometry conv net");

    FILE *json = std::fopen("BENCH_runtime.json", "w");
    if (!json) {
        warn("cannot write BENCH_runtime.json");
        return;
    }
    obs::RunManifest manifest = obs::RunManifest::collect("fig13_runtime");
    manifest.set("images", images);
    obs::JsonWriter w(json);
    w.beginObject();
    obs::writeBenchHeader(w, manifest);
    w.field("bench", "fig13_runtime");
    w.field("images", images);
    w.field("presentations", rep.presentations);
    w.field("model_time_us", rep.modelTimeNs() / 1e3);
    w.field("model_energy_nj", rep.modelEnergyPj() / 1e3);
    w.endObject();
    std::fputc('\n', json);
    std::fclose(json);
    std::printf("wrote BENCH_runtime.json\n");
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
