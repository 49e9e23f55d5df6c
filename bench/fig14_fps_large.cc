/**
 * @file
 * Regenerates paper Figure 14: frame-per-second speedup on CIFAR-100
 * and ImageNet (five networks x six series), normalized to non-pruned
 * 32-bit ISAAC. The paper's published bar values are printed alongside
 * for comparison.
 *
 * A second section runs the ResNet zoo (buildResNetSmall /
 * buildResNetDeep) end to end through a single-chip PipelineRuntime —
 * lower, fold BN, compress, map — and writes wall-time / fps and the
 * per-node breakdown to BENCH_graph.json so CI tracks the DAG
 * executor's perf alongside BENCH_runtime.json.
 */

#include <cstdio>

#include "common/logging.hh"
#include "common/table.hh"
#include "compile/passes.hh"
#include "nn/layers.hh"
#include "nn/zoo.hh"
#include "obs/run_manifest.hh"
#include "sim/pipeline_runtime.hh"
#include "sim/perf_model.hh"

using namespace forms;
using namespace forms::sim;

namespace {

/**
 * Per-layer modeled latency/energy breakdown from the functional
 * batched runtime: a VGG-flavoured stack compiled to a graph and run
 * on a single-chip PipelineRuntime (scaled spatial extent so the
 * functional simulation stays affordable).
 */
void
runtimeBreakdown()
{
    Rng rng(6);
    nn::Network net;
    net.emplace<nn::Conv2D>("conv1", 3, 16, 3, 1, 1, rng);
    net.emplace<nn::ReLU>("relu1");
    net.emplace<nn::Conv2D>("conv2", 16, 32, 3, 1, 1, rng);
    net.emplace<nn::ReLU>("relu2");
    net.emplace<nn::MaxPool2D>("pool", 2, 2);
    net.emplace<nn::Flatten>("flat");
    net.emplace<nn::Dense>("fc", 32 * 6 * 6, 100, rng);

    auto graph = compile::lowerNetwork(net);
    graph.inferShapes({3, 12, 12});
    auto states = snapshotCompress(net, 8, 8);

    Tensor batch({4, 3, 12, 12});
    batch.fillUniform(rng, 0.0f, 1.0f);

    RuntimeConfig rcfg;
    rcfg.mapping.fragSize = 8;
    rcfg.mapping.inputBits = 8;
    rcfg.engine.adcBits = 4;
    PipelineRuntime rt(graph, states, rcfg);

    RuntimeReport rep;
    rt.forward(batch, &rep);

    Table t({"Layer", "Crossbars", "Presentations", "ADC samples",
             "Modeled time (us)", "Energy (nJ)"});
    for (const auto &l : rep.layers) {
        t.row().cell(l.name)
            .cell(l.crossbars)
            .cell(static_cast<int64_t>(l.stats.presentations))
            .cell(static_cast<int64_t>(l.stats.adcSamples))
            .cell(l.stats.timeNs / 1e3, 2)
            .cell((l.stats.adcEnergyPj + l.stats.crossbarEnergyPj) / 1e3,
                  2);
    }
    t.print(strfmt("Batched runtime breakdown (batch 4, %d threads): "
                   "total %.2f us modeled, %.2f nJ",
                   ThreadPool::global().threads(),
                   rep.modelTimeNs() / 1e3, rep.modelEnergyPj() / 1e3));
}

/** One network's single-chip runtime measurement. */
struct GraphBenchResult
{
    std::string name;
    int64_t images = 0;
    double wallMs = 0.0;
    double fps = 0.0;
    RuntimeReport rep;
    int64_t crossbars = 0;
};

/**
 * Compile (lower + BN-fold), compress, map and execute one ResNet on
 * the DAG runtime; best wall-time of `repeats` runs.
 */
GraphBenchResult
runGraphNet(const std::string &name, nn::Network &net, int64_t images)
{
    GraphBenchResult r;
    r.name = name;
    r.images = images;

    auto graph = compile::lowerNetwork(net);
    graph.inferShapes({3, 32, 32});
    const int folded = compile::foldBatchNorm(graph);
    auto states = snapshotCompress(net, 8, 8);

    RuntimeConfig rcfg;
    rcfg.mapping.fragSize = 8;
    rcfg.mapping.inputBits = 8;
    rcfg.engine.adcBits = 4;
    PipelineRuntime rt(graph, states, rcfg);
    r.crossbars = rt.totalCrossbars();

    Rng rng(7);
    Tensor batch({images, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);

    rt.forward(batch);   // warm-up
    constexpr int repeats = 3;
    for (int i = 0; i < repeats; ++i) {
        RuntimeReport rep;
        rt.forward(batch, &rep);
        if (i == 0 || rep.wallMs < r.wallMs) {
            r.wallMs = rep.wallMs;
            r.rep = rep;
        }
    }
    r.fps = r.wallMs > 0.0
        ? static_cast<double>(images) / (r.wallMs / 1e3) : 0.0;

    Table t({"Node", "Crossbars", "Presentations", "ADC samples",
             "Modeled time (us)", "Energy (nJ)"});
    for (const auto &l : r.rep.layers) {
        t.row().cell(l.name)
            .cell(l.crossbars)
            .cell(static_cast<int64_t>(l.stats.presentations))
            .cell(static_cast<int64_t>(l.stats.adcSamples))
            .cell(l.stats.timeNs / 1e3, 2)
            .cell((l.stats.adcEnergyPj + l.stats.crossbarEnergyPj) / 1e3,
                  2);
    }
    t.print(strfmt("%s via GraphRuntime (batch %lld, %d BN folded): "
                   "%.1f ms wall, %.1f fps, %lld crossbars",
                   name.c_str(), static_cast<long long>(images), folded,
                   r.wallMs, r.fps,
                   static_cast<long long>(r.crossbars)));
    return r;
}

void
writeGraphJson(const std::vector<GraphBenchResult> &results)
{
    FILE *json = std::fopen("BENCH_graph.json", "w");
    if (!json) {
        warn("cannot write BENCH_graph.json");
        return;
    }
    obs::RunManifest manifest =
        obs::RunManifest::collect("fig14_graph_runtime");
    manifest.set("networks", static_cast<int64_t>(results.size()));
    obs::JsonWriter w(json);
    w.beginObject();
    obs::writeBenchHeader(w, manifest);
    w.field("bench", "fig14_graph_runtime");
    w.field("threads", ThreadPool::global().threads());
    w.key("networks");
    w.beginArray();
    for (const GraphBenchResult &r : results) {
        w.beginObject();
        w.field("name", r.name);
        w.field("images", r.images);
        w.field("wall_ms", r.wallMs);
        w.field("fps", r.fps);
        w.field("presentations", r.rep.presentations);
        w.field("crossbars", r.crossbars);
        w.field("model_time_us", r.rep.modelTimeNs() / 1e3);
        w.field("model_energy_nj", r.rep.modelEnergyPj() / 1e3);
        w.key("layers");
        w.beginArray();
        for (const auto &l : r.rep.layers) {
            w.beginObject();
            w.field("name", l.name);
            w.field("crossbars", l.crossbars);
            w.field("presentations", l.stats.presentations);
            w.field("adc_samples", l.stats.adcSamples);
            w.field("model_time_us", l.stats.timeNs / 1e3);
            w.field("energy_nj",
                    (l.stats.adcEnergyPj + l.stats.crossbarEnergyPj) /
                        1e3);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::fputc('\n', json);
    std::fclose(json);
    std::printf("wrote BENCH_graph.json (%zu networks, %d threads)\n",
                results.size(), ThreadPool::global().threads());
}

/** ResNetSmall / ResNetDeep end to end on the compiled DAG runtime. */
void
graphRuntimeBench()
{
    std::printf("\nResNet zoo via graph compiler + DAG runtime "
                "(BN folded onto crossbars)\n");
    std::vector<GraphBenchResult> results;
    {
        Rng rng(11);
        auto net = nn::buildResNetSmall(rng, 10, 8);
        results.push_back(runGraphNet("resnet_small", *net, 2));
    }
    {
        Rng rng(12);
        auto net = nn::buildResNetDeep(rng, 10, 8);
        results.push_back(runGraphNet("resnet_deep", *net, 2));
    }
    writeGraphJson(results);
}

} // namespace

int
main()
{
    obs::printBenchBanner("bench_fig14_fps_large");
    std::printf("Figure 14: FPS speedup on CIFAR-100 / ImageNet, "
                "normalized to ISAAC-32\n");

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
    // Paper bar values (rows = series above, cols = the five cases).
    const double paper[6][5] = {
        {25.875, 35.14, 30.665, 7.485, 11.18},   // PQ-ISAAC
        {18.30, 24.85, 21.69, 5.29, 5.91},       // PQ-PUMA
        {14.12, 19.18, 16.74, 4.09, 7.10},       // FORMS-8 no skip
        {20.08, 27.26, 23.79, 5.81, 10.67},      // FORMS-16 no skip
        {59.28, 53.23, 25.27, 10.72, 17.76},     // FORMS-8 full
        {50.54, 55.48, 34.30, 11.20, 21.09},     // FORMS-16 full
    };

    const auto cases = figure14Cases();
    int case_idx = 0;
    for (const auto &c : cases) {
        const double base =
            model.evaluate(baseline, c.workload, &c.profile).fps;
        Table t({"Series", "Speedup (model)", "Speedup (paper)"});
        for (size_t s = 0; s < series.size(); ++s) {
            const PerfResult r =
                model.evaluate(series[s], c.workload, &c.profile);
            t.row().cell(series[s].name)
                .cell(r.fps / base, 2)
                .cell(paper[s][case_idx], 2);
        }
        t.print(c.label + strfmt("  (prune %.2fx, 8-bit weights)",
                                 c.profile.pruneRatio));
        ++case_idx;
    }

    std::printf(
        "\nShape checks to eyeball: FORMS-with-skip > PQ-ISAAC > "
        "PQ-PUMA > FORMS-without-skip; FORMS-16 beats FORMS-8 without "
        "skipping (fewer row groups) while skipping favours the smaller "
        "fragment.\n");

    runtimeBreakdown();
    graphRuntimeBench();
    return 0;
}
