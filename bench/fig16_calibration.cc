/**
 * @file
 * Offline activation-calibration study (beyond the paper's idealized
 * input grid — "fig16" continues the paper's figure numbering): how
 * close a deployable static activation scale (sim::Calibrator,
 * DESIGN.md §2) gets to the idealized per-presentation max scale the
 * functional runtimes used before, as a function of calibration-set
 * size and reduction policy.
 *
 * A scaled ResNet is trained on a synthetic task, BN-folded,
 * compressed and run on a single-chip PipelineRuntime three ways: idealized
 * per-presentation scales (the accuracy upper bound no real DAC grid
 * can reach), and static scales calibrated with the abs-max and
 * moving-percentile policies at several calibration split sizes.
 * Emits BENCH_calibration.json (uploaded by CI): accuracy deltas vs
 * the idealized scale plus the saturation (clip) fraction each static
 * grid pays.
 */

#include <cstdio>
#include <cstring>

#include "admm/compressor.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "compile/passes.hh"
#include "nn/dataset.hh"
#include "nn/trainer.hh"
#include "nn/zoo.hh"
#include "obs/run_manifest.hh"
#include "sim/calibrator.hh"
#include "sim/pipeline_runtime.hh"

using namespace forms;
using namespace forms::sim;

namespace {

const int kCalibSizes[] = {4, 12, 32};
const CalibPolicy kPolicies[] = {CalibPolicy::AbsMax,
                                 CalibPolicy::Percentile};

/** One (policy, calibration-set size) measurement. */
struct CalibResult
{
    CalibPolicy policy = CalibPolicy::AbsMax;
    int calibImages = 0;
    double accuracy = 0.0;
    double clipFraction = 0.0;   //!< over all quantized activations
    size_t tableEntries = 0;
};

RuntimeConfig
benchConfig()
{
    RuntimeConfig rcfg;
    rcfg.mapping.fragSize = 8;
    rcfg.mapping.inputBits = 8;
    rcfg.engine.adcBits = 4;
    return rcfg;
}

/** Copy rows [lo, lo+count) of an NCHW batch. */
Tensor
sliceBatch(const Tensor &batch, int64_t lo, int64_t count)
{
    Shape shape = batch.shape();
    shape[0] = count;
    Tensor out(shape);
    const int64_t sample = batch.numel() / batch.dim(0);
    std::memcpy(out.data(), batch.data() + lo * sample,
                static_cast<size_t>(count * sample) * sizeof(float));
    return out;
}

double
reportClipFraction(const RuntimeReport &rep)
{
    uint64_t values = 0, clipped = 0;
    for (const auto &l : rep.layers) {
        values += l.stats.quantValues;
        clipped += l.stats.quantClipped;
    }
    return values > 0
        ? static_cast<double>(clipped) / static_cast<double>(values)
        : 0.0;
}

} // namespace

int
main()
{
    std::printf("Static activation calibration vs the idealized "
                "per-presentation scale (ResNet, synthetic CIFAR-10 "
                "task)\n");

    // Train and ADMM-compress a scaled ResNet (the full deployment
    // flow — projection-only snapshots collapse a trained model, so
    // the accuracy deltas would be chance-level noise), then compile
    // and fold once; every configuration below shares the same
    // programmed weights.
    nn::DatasetConfig dcfg = nn::DatasetConfig::cifar10Like(91);
    dcfg.trainPerClass = 16;
    dcfg.testPerClass = 3;
    dcfg.nonneg = true;   // unsigned sensor domain (DESIGN.md §2)
    nn::SyntheticImageDataset data(dcfg);

    Rng rng(92);
    auto net = nn::buildResNetSmall(rng, dcfg.classes, 8, 1);
    nn::TrainConfig tcfg;
    tcfg.epochs = 4;
    tcfg.batchSize = 16;
    tcfg.seed = 93;
    nn::Trainer trainer(*net, data, tcfg);
    const double fp_acc = trainer.run().testAccuracy;

    admm::AdmmConfig acfg;
    acfg.fragSize = 8;
    acfg.policy = admm::PolarizationPolicy::CMajor;
    acfg.xbarDim = 16;
    acfg.filterKeep = 0.7;
    acfg.shapeKeep = 0.7;
    acfg.quantBits = 8;
    acfg.admmEpochsPerPhase = 1;
    acfg.finetuneEpochs = 2;
    admm::AdmmCompressor comp(*net, data, acfg);
    comp.run();
    auto &states = comp.layers();

    // Fold after compression: the BN affine lands in the digital
    // output stage, the ADMM-constrained weights map unchanged.
    auto graph = compile::lowerNetwork(*net);
    graph.inferShapes({dcfg.channels, dcfg.height, dcfg.width});
    compile::foldBatchNorm(graph, compile::FoldMode::DigitalScale);

    const Tensor &test = data.test().images;
    const std::vector<int> &labels = data.test().labels;

    // Idealized reference: per-presentation max scales.
    RuntimeConfig ideal_cfg = benchConfig();
    PipelineRuntime ideal_rt(graph, states, ideal_cfg);
    RuntimeReport ideal_rep;
    const double ideal_acc = ideal_rt.accuracy(test, labels, &ideal_rep);

    // Each sweep point deploys its table on this copy: the live
    // calibrator borrows `graph`, and every attachTo overwrites the
    // previous point's scales.
    compile::Graph deployed = graph;
    std::vector<CalibResult> results;
    for (CalibPolicy policy : kPolicies) {
        // One calibrator per policy: observe() accumulates, so each
        // sweep point extends the previous split instead of replaying
        // it from scratch.
        CalibratorConfig ccfg;
        ccfg.policy = policy;
        Calibrator cal(graph, states, benchConfig(), ccfg);
        for (int calib_images : kCalibSizes) {
            cal.observe(sliceBatch(data.train().images,
                                   cal.images(),
                                   calib_images - cal.images()));
            const auto table = cal.table();
            table.attachTo(deployed);

            RuntimeConfig scfg = benchConfig();
            scfg.scaleMode = arch::ScaleMode::Static;
            PipelineRuntime rt(deployed, states, scfg);
            RuntimeReport rep;

            CalibResult r;
            r.policy = policy;
            r.calibImages = calib_images;
            r.accuracy = rt.accuracy(test, labels, &rep);
            r.clipFraction = reportClipFraction(rep);
            r.tableEntries = table.size();
            results.push_back(r);
        }
    }

    Table t({"Policy", "Calib images", "Accuracy (%)",
             "Delta vs ideal (pp)", "Clip fraction"});
    for (const auto &r : results) {
        t.row().cell(calibPolicyName(r.policy))
            .cell(static_cast<int64_t>(r.calibImages))
            .cell(r.accuracy * 100.0, 1)
            .cell((r.accuracy - ideal_acc) * 100.0, 1)
            .cell(r.clipFraction, 4);
    }
    t.print(strfmt("Static calibration vs idealized scale (FP acc "
                   "%.1f%%, idealized crossbar acc %.1f%%, %d test "
                   "images)", fp_acc * 100.0, ideal_acc * 100.0,
                   static_cast<int>(test.dim(0))));

    FILE *json = std::fopen("BENCH_calibration.json", "w");
    if (!json) {
        warn("cannot write BENCH_calibration.json");
        return 1;
    }
    obs::RunManifest manifest =
        obs::RunManifest::collect("fig16_calibration");
    manifest.set("network", "resnet_small")
        .set("train_seed", static_cast<int64_t>(tcfg.seed));
    obs::JsonWriter w(json);
    w.beginObject();
    obs::writeBenchHeader(w, manifest);
    w.field("bench", "fig16_calibration");
    w.field("network", "resnet_small");
    w.field("test_images", static_cast<int64_t>(test.dim(0)));
    w.field("fp_accuracy", fp_acc);
    w.field("idealized_accuracy", ideal_acc);
    w.key("points");
    w.beginArray();
    for (const CalibResult &r : results) {
        w.beginObject();
        w.field("policy", calibPolicyName(r.policy));
        w.field("calib_images", r.calibImages);
        w.field("accuracy", r.accuracy);
        w.field("delta_vs_idealized", r.accuracy - ideal_acc);
        w.field("clip_fraction", r.clipFraction);
        w.field("table_entries", static_cast<uint64_t>(r.tableEntries));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::fputc('\n', json);
    std::fclose(json);
    std::printf("wrote BENCH_calibration.json (%zu points)\n",
                results.size());
    return 0;
}
