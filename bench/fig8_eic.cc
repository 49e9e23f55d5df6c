/**
 * @file
 * Regenerates paper Figure 8: (a) the distribution of effective input
 * cycles (EIC) across fragments for fragment sizes 4..128 with 16-bit
 * inputs, and (b) the average EIC per fragment size — from the
 * calibrated activation model AND cross-checked against activations
 * measured from a trained scaled ResNet on synthetic CIFAR-100-like
 * data.
 */

#include <cstdio>

#include "common/logging.hh"
#include "common/table.hh"
#include "nn/layers.hh"
#include "nn/trainer.hh"
#include "nn/zoo.hh"
#include "sim/activation_model.hh"

using namespace forms;
using namespace forms::sim;

namespace {

/** Collect post-ReLU activations from a trained scaled network. */
std::vector<uint32_t>
measuredActivations()
{
    nn::DatasetConfig dcfg = nn::DatasetConfig::cifar100Like(7);
    dcfg.trainPerClass = 16;
    dcfg.testPerClass = 4;
    nn::SyntheticImageDataset data(dcfg);

    Rng rng(5);
    auto net = nn::buildResNetSmall(rng, dcfg.classes, 8);
    nn::TrainConfig tc;
    tc.epochs = 3;
    tc.batchSize = 16;
    nn::Trainer trainer(*net, data, tc);
    trainer.run();

    // Forward a test batch and harvest every intermediate activation
    // tensor (post-ReLU, nonnegative), quantized to 16 bits.
    Tensor x({8, 3, 32, 32});
    const Tensor &imgs = data.test().images;
    std::copy(imgs.data(), imgs.data() + x.numel(), x.data());

    std::vector<uint32_t> values;
    Tensor act = x;
    for (size_t i = 0; i < net->size(); ++i) {
        act = net->layer(i).forward(act, false);
        float mx = 0.0f;
        for (int64_t j = 0; j < act.numel(); ++j)
            mx = std::max(mx, act.at(j));
        if (mx <= 0.0f)
            continue;
        const float scale = mx / 65535.0f;
        for (int64_t j = 0; j < act.numel(); ++j) {
            const float v = act.at(j);
            values.push_back(v > 0.0f
                ? static_cast<uint32_t>(std::min(65535.0f, v / scale))
                : 0u);
        }
    }
    return values;
}

} // namespace

int
main()
{
    std::printf("Figure 8: effective input cycles (16-bit inputs)\n");
    const std::vector<int> frag_sizes = {4, 8, 16, 32, 64, 128};
    ActivationModel model = ActivationModel::calibratedResNet50();

    // (a) EIC distribution, bucketed like the paper's histogram.
    Table a({"Fragment size", "EIC<=1 (%)", "2-13 (%)", "14 (%)",
             "15 (%)", "16 (%)"});
    for (int frag : frag_sizes) {
        auto stats = model.eicStats(frag, 30000);
        const auto &h = stats.histogram();
        double low = h.fraction(0) + h.fraction(1);
        double mid = 0.0;
        for (int b = 2; b <= 13; ++b)
            mid += h.fraction(b);
        a.row().cell(static_cast<int64_t>(frag))
            .cell(low * 100.0, 1)
            .cell(mid * 100.0, 1)
            .cell(h.fraction(14) * 100.0, 1)
            .cell(h.fraction(15) * 100.0, 1)
            .cell(h.fraction(16) * 100.0, 1);
    }
    a.print("(a) Distribution of fragment EIC (activation model)");

    // (b) Average EIC per fragment size: model vs measured network.
    auto measured = measuredActivations();
    Table b({"Fragment size", "Avg EIC (model)", "Avg EIC (measured net)",
             "Cycles saved (model, %)", "Paper (ResNet50)"});
    const double paper_ref[6] = {10.7, 11.6, 12.5, 13.4, 14.2, 15.0};
    int i = 0;
    for (int frag : frag_sizes) {
        auto stats = model.eicStats(frag, 30000);
        arch::EicStats m(16);
        m.recordVector(measured.data(), measured.size(), frag);
        b.row().cell(static_cast<int64_t>(frag))
            .cell(stats.averageEic(), 2)
            .cell(m.averageEic(), 2)
            .cell(stats.cycleSavings() * 100.0, 1)
            .cell(strfmt("%.1f%s", paper_ref[i],
                         (i == 0 || i == 5) ? "" : " (interp.)"));
        ++i;
    }
    b.print("(b) Average EIC vs fragment size (paper published 10.7 "
            "at size 4 and 15 at size 128; intermediate values "
            "interpolated from its plot)");
    return 0;
}
