/**
 * @file
 * Regenerates paper Table I: the FORMS optimization framework
 * (crossbar-aware structured pruning -> fragment polarization ->
 * quantization) on MNIST-class and CIFAR-10-class tasks at fragment
 * sizes 4/8/16: prune ratio, accuracy drop, crossbar reduction.
 *
 * Substitution note (DESIGN.md §2): datasets are synthetic
 * class-prototype images with matched geometry and the CIFAR networks
 * are CPU-trainable scaled stand-ins, so absolute prune ratios are
 * configured lower than the paper's GPU-scale results — the shape
 * (small fragments lose ~no accuracy; reduction = prune x 4 quant x 2
 * polarization) is what this bench reproduces.
 */

#include <cstdio>

#include "common/table.hh"
#include "sim/experiments.hh"

using namespace forms;
using namespace forms::sim;

namespace {

void
runCase(const char *label, CompressionExperimentSpec spec,
        const char *paper_note)
{
    auto rows = runCompressionExperiment(spec);
    Table t({"Fragment size", "Prune ratio", "Acc drop (pp)",
             "Crossbar reduction", "Sign violations"});
    for (const auto &r : rows) {
        t.row().cell(static_cast<int64_t>(r.fragSize))
            .cell(r.pruneRatio, 2)
            .cell(r.accuracyDropPct, 2)
            .cell(r.crossbarReduction, 1)
            .cell(r.signViolations);
    }
    t.print(label);
    std::printf("  paper: %s\n", paper_note);
}

} // namespace

int
main()
{
    std::printf("Table I: compression results, small/medium tasks\n");

    {
        CompressionExperimentSpec spec;
        spec.label = "LeNet5 / MNIST-like";
        spec.net = NetKind::LeNet5;
        spec.data = nn::DatasetConfig::mnistLike(11);
        spec.data.trainPerClass = 24;
        spec.data.testPerClass = 8;
        spec.admm.filterKeep = 0.5;
        spec.admm.shapeKeep = 0.6;
        spec.fragSizes = {4, 8, 16};
        spec.admm.xbarDim = 8;
        spec.pretrainEpochs = 8;
        spec.admm.admmEpochsPerPhase = 1;
        spec.admm.finetuneEpochs = 3;
        runCase("LeNet5 on MNIST-like data", spec,
                "prune 23.18x, drops -0.02/-0.01/0.14 pp, "
                "reduction 185.4x");
    }
    {
        CompressionExperimentSpec spec;
        spec.label = "VGG (scaled) / CIFAR-10-like";
        spec.net = NetKind::VggSmall;
        spec.data = nn::DatasetConfig::cifar10Like(12);
        spec.data.trainPerClass = 12;
        spec.data.testPerClass = 5;
        spec.admm.filterKeep = 0.7;
        spec.admm.shapeKeep = 0.7;
        spec.fragSizes = {4, 8, 16};
        spec.admm.xbarDim = 16;
        spec.pretrainEpochs = 8;
        spec.admm.admmEpochsPerPhase = 1;
        spec.admm.finetuneEpochs = 3;
        runCase("VGG16 (scaled) on CIFAR-10-like data", spec,
                "prune 41.2x, drops 0.61/0.64/0.77 pp, "
                "reduction 329.6x");
    }
    {
        CompressionExperimentSpec spec;
        spec.label = "ResNet18 (scaled) / CIFAR-10-like";
        spec.net = NetKind::ResNetSmall;
        spec.data = nn::DatasetConfig::cifar10Like(13);
        spec.data.trainPerClass = 12;
        spec.data.testPerClass = 5;
        spec.admm.filterKeep = 0.7;
        spec.admm.shapeKeep = 0.7;
        spec.fragSizes = {4, 8, 16};
        spec.admm.xbarDim = 16;
        spec.pretrainEpochs = 8;
        spec.admm.admmEpochsPerPhase = 1;
        spec.admm.finetuneEpochs = 3;
        runCase("ResNet18 (scaled) on CIFAR-10-like data", spec,
                "prune 50.85x, drops 0.35/0.47/0.92 pp, "
                "reduction 406.8x");
    }

    std::printf("\nShape to check: accuracy drop grows with fragment "
                "size; crossbar reduction = prune-driven reduction x4 "
                "(32->8-bit) x2 (no positive/negative splitting).\n");
    return 0;
}
