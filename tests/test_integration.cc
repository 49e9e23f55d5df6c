/**
 * @file
 * End-to-end integration: train a small network, compress it with the
 * full ADMM pipeline, map every conv/dense layer onto crossbars, and
 * run the first conv layer functionally through the analog engine,
 * checking outputs against the software computation on the same
 * quantized operands.
 */

#include <gtest/gtest.h>

#include "arch/engine.hh"
#include "sim/experiments.hh"
#include "tensor/ops.hh"

namespace forms {
namespace {

TEST(EndToEnd, CompressMapExecute)
{
    // 1. Data + pretrained model.
    nn::DatasetConfig dcfg;
    dcfg.classes = 4;
    dcfg.channels = 1;
    dcfg.height = 12;
    dcfg.width = 12;
    dcfg.trainPerClass = 32;
    dcfg.testPerClass = 16;
    dcfg.noise = 0.35f;
    dcfg.seed = 404;
    nn::SyntheticImageDataset data(dcfg);

    Rng rng(41);
    auto net = nn::buildTinyConvNet(rng, dcfg.classes, 8, 1, 12);
    nn::TrainConfig tc;
    tc.epochs = 6;
    tc.batchSize = 16;
    nn::Trainer trainer(*net, data, tc);
    trainer.run();

    // 2. Compress (prune + polarize + quantize).
    admm::AdmmConfig acfg;
    acfg.fragSize = 4;
    acfg.xbarDim = 8;
    acfg.filterKeep = 0.75;
    acfg.shapeKeep = 0.9;
    acfg.admmEpochsPerPhase = 2;
    acfg.finetuneEpochs = 2;
    acfg.train.batchSize = 16;
    admm::AdmmCompressor comp(*net, data, acfg);
    auto outcome = comp.run();
    ASSERT_EQ(outcome.signViolations, 0);

    // 3. Map every compressed layer; counts must be positive & finite.
    arch::MappingConfig mcfg;
    mcfg.xbarRows = 16;
    mcfg.xbarCols = 16;
    mcfg.fragSize = 4;
    mcfg.weightBits = 8;
    mcfg.inputBits = 12;
    int64_t total_xbars = 0;
    for (auto &st : comp.layers()) {
        arch::MappedLayer mapped = arch::mapLayer(st, mcfg);
        EXPECT_GT(mapped.numCrossbars(), 0);
        total_xbars += mapped.numCrossbars();
    }
    EXPECT_GT(total_xbars, 2);

    // 4. Execute the first conv layer through the analog engine on a
    //    batch of patches from a real test image and compare with
    //    software integer math.
    auto &first = comp.layers().front();
    arch::MappedLayer mapped = arch::mapLayer(first, mcfg);
    arch::EngineConfig ecfg;
    ecfg.adcBits = 0;   // lossless: must match exactly
    arch::CrossbarEngine engine(mapped, ecfg);

    // 3x3 patches from a test image, quantized (natural row index
    // space of the conv: c*k*k + dy*k + dx). The last patch's inputs
    // and scale feed the dequantization check below.
    const Tensor &img = data.test().images;
    std::vector<std::vector<uint32_t>> batch;
    float in_scale = 0.0f;
    for (int oy = 0; oy < 4; ++oy) {
        std::vector<float> patch;
        for (int c = 0; c < 1; ++c)
            for (int dy = 0; dy < 3; ++dy)
                for (int dx = 0; dx < 3; ++dx) {
                    const float v = img.at(0, c, oy + dy, 4 + dx);
                    patch.push_back(v > 0.0f ? v : 0.0f);
                }
        std::vector<uint32_t> qp(patch.size());
        in_scale = arch::quantizeActivations(patch.data(), patch.size(),
                                             mcfg.inputBits, qp.data());
        batch.push_back(std::move(qp));
    }
    const auto &q = batch.back();

    arch::EngineStats stats;
    const std::vector<uint64_t> keys = {0, 1, 2, 3};
    auto analog_batch =
        engine.mvmKeyed(batch, 0, batch.size(), keys.data(), &stats);
    ASSERT_EQ(analog_batch.size(), batch.size());
    for (size_t b = 0; b < batch.size(); ++b) {
        auto reference = arch::referenceMvm(mapped, batch[b]);
        ASSERT_EQ(analog_batch[b].size(), reference.size());
        for (size_t i = 0; i < analog_batch[b].size(); ++i)
            EXPECT_DOUBLE_EQ(analog_batch[b][i],
                             static_cast<double>(reference[i]));
    }
    EXPECT_GT(stats.adcSamples, 0u);
    EXPECT_EQ(stats.presentations, batch.size());
    const auto &analog = analog_batch.back();

    // 5. Dequantized outputs track the float conv of the quantized
    //    operands within grid resolution.
    const admm::WeightView v = first.view();
    for (int64_t j = 0; j < v.cols(); ++j) {
        double expect = 0.0;
        for (int64_t r = 0; r < v.rows(); ++r) {
            const float w = v.get(r, j);
            const double qin = static_cast<double>(
                q[static_cast<size_t>(r)]) * in_scale;
            expect += static_cast<double>(w) * qin;
        }
        if (static_cast<size_t>(j) < analog.size()) {
            EXPECT_NEAR(arch::dequantize(analog[static_cast<size_t>(j)],
                                         mapped.scale, in_scale),
                        expect,
                        0.05 * std::max(1.0, std::fabs(expect)) +
                        static_cast<double>(mapped.scale));
        }
    }
}

TEST(EndToEnd, ExperimentDriverSmoke)
{
    sim::CompressionExperimentSpec spec;
    spec.label = "smoke";
    spec.net = sim::NetKind::LeNet5;
    spec.data = nn::DatasetConfig::mnistLike(55);
    spec.data.trainPerClass = 12;
    spec.data.testPerClass = 4;
    spec.fragSizes = {4};
    spec.pretrainEpochs = 2;
    spec.admmEpochsPerPhase = 1;
    spec.finetuneEpochs = 1;
    spec.filterKeep = 0.8;
    spec.shapeKeep = 0.8;
    spec.xbarDim = 8;

    auto rows = sim::runCompressionExperiment(spec);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].signViolations, 0);
    EXPECT_GT(rows[0].crossbarReduction, 1.0);
    EXPECT_GT(rows[0].pruneRatio, 1.0);
}

} // namespace
} // namespace forms
