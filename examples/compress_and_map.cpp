/**
 * @file
 * Scenario: compress a ResNet-style network for ReRAM deployment and
 * inspect the per-layer outcome — kept structure, fragment signs,
 * quantization grid and crossbar budget under the FORMS mapping vs.
 * the 32-bit splitting baseline. This is the workflow a model owner
 * runs before committing silicon area.
 *
 * The final section compiles the same network for execution: lower to
 * the graph IR, fold the BatchNorm layers into the convs' digital
 * output stage (the ADMM-constrained weights map unchanged), and
 * print the crossbar allocation per graph node of the resulting
 * single-chip PipelineRuntime — the deployable artifact — plus its
 * accuracy on the simulated crossbars.
 */

#include <algorithm>
#include <cstdio>

#include "admm/report.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "compile/passes.hh"
#include "nn/trainer.hh"
#include "nn/zoo.hh"
#include "sim/pipeline_runtime.hh"

using namespace forms;

int
main()
{
    nn::DatasetConfig dcfg = nn::DatasetConfig::cifar10Like(17);
    dcfg.trainPerClass = 20;
    dcfg.testPerClass = 6;
    // Train on unsigned-domain pixels (like real sensor data) so the
    // crossbar runtime's unsigned input encoding is exact end to end.
    dcfg.nonneg = true;
    nn::SyntheticImageDataset data(dcfg);

    Rng rng(3);
    auto net = nn::buildResNetSmall(rng, dcfg.classes, 10);
    nn::TrainConfig tcfg;
    tcfg.epochs = 6;
    tcfg.batchSize = 16;
    nn::Trainer trainer(*net, data, tcfg);
    auto tres = trainer.run();
    std::printf("pretrained ResNet18 (scaled): %.1f%% test accuracy\n",
                tres.testAccuracy * 100.0);

    admm::AdmmConfig acfg;
    acfg.fragSize = 8;
    acfg.policy = admm::PolarizationPolicy::CMajor;   // CIFAR pick
    acfg.xbarDim = 16;
    acfg.filterKeep = 0.7;
    acfg.shapeKeep = 0.7;
    acfg.quantBits = 8;
    acfg.admmEpochsPerPhase = 2;
    acfg.finetuneEpochs = 3;
    admm::AdmmCompressor comp(*net, data, acfg);
    auto outcome = comp.run();

    auto report = admm::buildReport(
        comp, outcome, admm::baselineMapping32(16, 16),
        admm::formsMapping(8, 16, 16));

    Table t({"Layer", "Shape (rows x cols)", "Kept", "Baseline xbars",
             "FORMS xbars", "+frags/col"});
    for (size_t i = 0; i < report.layers.size(); ++i) {
        const auto &lr = report.layers[i];
        const auto &st = comp.layers()[i];
        t.row().cell(lr.name)
            .cell(strfmt("%lld x %lld", (long long)lr.rows,
                         (long long)lr.cols))
            .cell(strfmt("%lld x %lld", (long long)lr.keptRows,
                         (long long)lr.keptCols))
            .cell(lr.baselineCrossbars)
            .cell(lr.formsCrossbars)
            .cell(st.plan.fragmentsPerCol());
    }
    t.print("Per-layer compression & mapping");

    std::printf("\nprune ratio %.2fx | crossbar reduction %.1fx "
                "(%lld -> %lld) | accuracy %.1f%% -> %.1f%% | "
                "sign violations %lld\n",
                report.pruneRatio, report.crossbarReduction,
                static_cast<long long>(report.baselineCrossbars),
                static_cast<long long>(report.formsCrossbars),
                report.accuracyBefore * 100.0,
                report.accuracyAfter * 100.0,
                static_cast<long long>(outcome.signViolations));

    // Show a few fragments' signs from the first conv layer.
    const auto &st = comp.layers().front();
    std::printf("\nfirst fragments of '%s' (column 0): ",
                st.name.c_str());
    for (int64_t f = 0;
         f < std::min<int64_t>(8, st.plan.fragmentsPerCol()); ++f)
        std::printf("%c", st.signs->get(0, f) > 0 ? '+' : '-');
    std::printf("  (each sign lives in the 1R indicator, not on the "
                "crossbar)\n");

    // ---- compile -> fold -> map onto the DAG runtime ----------------
    // Folding after ADMM compression must not touch the constrained
    // weights (per-channel rescaling would break the layer's single
    // quantization grid), so the BN scale/shift lands in the digital
    // output stage and the compressor's layer states map unchanged.
    auto graph = compile::lowerNetwork(*net);
    graph.inferShapes({dcfg.channels, dcfg.height, dcfg.width});
    const int folded =
        compile::foldBatchNorm(graph, compile::FoldMode::DigitalScale);

    sim::RuntimeConfig rcfg;
    rcfg.mapping.xbarRows = 64;
    rcfg.mapping.xbarCols = 64;
    rcfg.mapping.fragSize = acfg.fragSize;
    rcfg.mapping.inputBits = 12;
    rcfg.engine.adcBits = 4;
    sim::PipelineRuntime rt(graph, comp.layers(), rcfg);

    Table gt({"Node", "Output shape", "Crossbars"});
    for (const auto &a : rt.allocation()) {
        gt.row().cell(a.name)
            .cell(shapeStr(a.outShape))
            .cell(a.crossbars);
    }
    gt.print(strfmt("Compiled graph: %zu nodes (%d BN folded), %zu "
                    "programmed, %lld crossbars",
                    rt.nodes(), folded, rt.programmedNodes(),
                    static_cast<long long>(rt.totalCrossbars())));

    // Functional-simulation accuracy on a subset (full test split
    // would take minutes of host time at this fidelity).
    const int64_t eval_n =
        std::min<int64_t>(20, data.test().images.dim(0));
    const int64_t img_sz = data.test().images.numel() /
        data.test().images.dim(0);
    Tensor eval_images({eval_n, dcfg.channels, dcfg.height, dcfg.width});
    for (int64_t i = 0; i < eval_n * img_sz; ++i)
        eval_images.at(i) = data.test().images.at(i);
    std::vector<int> eval_labels(data.test().labels.begin(),
                                 data.test().labels.begin() + eval_n);
    const double fp_acc = net->accuracy(eval_images, eval_labels);
    const double gacc = rt.accuracy(eval_images, eval_labels);
    std::printf("\nGraphRuntime accuracy on simulated crossbars: "
                "%.1f%% (FP forward of the same compressed net: "
                "%.1f%%, %lld images)\n", gacc * 100.0, fp_acc * 100.0,
                static_cast<long long>(eval_n));
    return 0;
}
