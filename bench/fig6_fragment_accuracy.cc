/**
 * @file
 * Regenerates paper Figure 6: test accuracy vs fragment size
 * (polarization only, CIFAR-100-class task) for three network
 * families. The paper's claim: small fragments (4/8) cost ~no
 * accuracy; accuracy sags as fragments grow toward whole columns.
 */

#include <cstdio>

#include "common/table.hh"
#include "sim/experiments.hh"

using namespace forms;
using namespace forms::sim;

int
main()
{
    std::printf("Figure 6: accuracy vs fragment size (polarization "
                "only), CIFAR-100-like task\n");

    const std::vector<int> frags = {1, 4, 8, 16, 32, 64, 128};

    struct Case
    {
        const char *label;
        NetKind net;
        uint64_t seed;
    };
    const Case cases[3] = {
        {"VGG16 (scaled)", NetKind::VggSmall, 61},
        {"ResNet18 (scaled)", NetKind::ResNetSmall, 62},
        {"ResNet50 (scaled)", NetKind::ResNetDeep, 63},
    };

    Table t({"Fragment size", "VGG16 acc (%)", "ResNet18 acc (%)",
             "ResNet50 acc (%)"});
    std::vector<std::vector<double>> acc(3);
    for (int c = 0; c < 3; ++c) {
        CompressionExperimentSpec spec;
        spec.net = cases[c].net;
        spec.data = nn::DatasetConfig::cifar100Like(40 + cases[c].seed);
        spec.data.trainPerClass = 10;
        spec.data.testPerClass = 5;
        spec.fragSizes = frags;
        spec.pretrainEpochs = 5;
        spec.seed = cases[c].seed;
        spec.admm.prune = false;
        spec.admm.quantize = false;
        spec.admm.admmEpochsPerPhase = 2;
        spec.admm.finetuneEpochs = 2;
        for (const auto &r : runCompressionExperiment(spec))
            acc[static_cast<size_t>(c)].push_back(r.accuracy * 100.0);
    }
    for (size_t i = 0; i < frags.size(); ++i) {
        t.row().cell(static_cast<int64_t>(frags[i]))
            .cell(acc[0][i], 1)
            .cell(acc[1][i], 1)
            .cell(acc[2][i], 1);
    }
    t.print("Accuracy vs fragment size");

    std::printf(
        "\nPaper reference (CIFAR-100, Fig. 6): curves are flat within "
        "~1%% up to fragment size 8-16 and sag by a few points toward "
        "128. Expect the same flat-then-sag shape here (absolute "
        "accuracies differ: synthetic data, scaled networks).\n");
    return 0;
}
