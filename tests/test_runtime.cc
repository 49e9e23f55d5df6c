/**
 * @file
 * Batched engine tests: the determinism contract. mvmBatch across
 * N threads must be bit-identical (outputs AND merged stats) to a
 * serial loop of mvm() calls keyed 0..n-1 — including with ADC
 * quantization, device variation and transient read noise enabled —
 * and, because the engine holds no presentation state, repeating a
 * batch on one engine must reproduce it exactly. Whole-network
 * forwards are covered by tests/test_graph_runtime.cc.
 */

#include <gtest/gtest.h>

#include "sim/activation_model.hh"
#include "sim/runtime.hh"
#include "stats_testutil.hh"

namespace forms {
namespace {

/** Polarized, quantized random conv layer mapped onto crossbars. */
arch::MappedLayer
buildMappedLayer(int frag, Tensor &weight, Tensor &grad, uint64_t seed)
{
    Rng rng(seed);
    weight.fillGaussian(rng, 0.0f, 0.4f);

    admm::LayerState st;
    st.name = "runtime-test";
    st.param = {"w", &weight, &grad, true, false};
    st.plan = admm::FragmentPlan::forConv(
        16, 16, 3, frag, admm::PolarizationPolicy::CMajor);
    admm::WeightView v = admm::WeightView::conv(weight);
    st.signs = admm::computeSigns(v, st.plan);
    admm::projectPolarization(v, st.plan, *st.signs);
    admm::QuantSpec q;
    q.bits = 8;
    st.quantScale = admm::projectQuantize(v, q);

    arch::MappingConfig mcfg;
    mcfg.xbarRows = 64;
    mcfg.xbarCols = 64;
    mcfg.fragSize = frag;
    mcfg.inputBits = 16;
    return arch::mapLayer(st, mcfg);
}

std::vector<std::vector<uint32_t>>
samplePresentations(size_t count, size_t rows, uint64_t seed)
{
    sim::ActivationModel act = sim::ActivationModel::calibratedResNet50();
    Rng rng(seed);
    std::vector<std::vector<uint32_t>> batch;
    batch.reserve(count);
    for (size_t i = 0; i < count; ++i)
        batch.push_back(act.sampleVector(rng, rows));
    return batch;
}

/**
 * Serial mvm loop keyed 0..n-1 vs mvmBatch on `threads` threads:
 * bit-identical.
 */
void
checkBatchMatchesSerial(arch::EngineConfig ecfg, int threads)
{
    static Tensor weight({16, 16, 3, 3}), grad({16, 16, 3, 3});
    const arch::MappedLayer mapped =
        buildMappedLayer(8, weight, grad, 2024);
    const auto batch = samplePresentations(33, 16 * 9, 7);

    // Two engines with identical construction: program-time variation
    // draws are identical.
    arch::CrossbarEngine serial_engine(mapped, ecfg);
    arch::CrossbarEngine batch_engine(mapped, ecfg);

    arch::EngineStats serial_stats;
    std::vector<std::vector<double>> serial_out;
    for (size_t j = 0; j < batch.size(); ++j)
        serial_out.push_back(
            serial_engine.mvm(batch[j], &serial_stats, j));

    ThreadPool pool(threads);
    arch::EngineStats batch_stats;
    const auto batch_out =
        batch_engine.mvmBatch(batch, &batch_stats, &pool);

    ASSERT_EQ(batch_out.size(), serial_out.size());
    for (size_t i = 0; i < batch_out.size(); ++i) {
        ASSERT_EQ(batch_out[i].size(), serial_out[i].size());
        for (size_t j = 0; j < batch_out[i].size(); ++j)
            EXPECT_EQ(batch_out[i][j], serial_out[i][j])
                << "presentation " << i << " output " << j;
    }
    expectStatsIdentical(batch_stats, serial_stats);
    EXPECT_EQ(batch_stats.presentations, batch.size());
}

TEST(MvmBatch, BitIdenticalToSerialLossless)
{
    arch::EngineConfig ecfg;
    ecfg.adcBits = 0;
    checkBatchMatchesSerial(ecfg, 4);
}

TEST(MvmBatch, BitIdenticalToSerialWithAdcQuantization)
{
    arch::EngineConfig ecfg;
    ecfg.adcBits = 4;
    checkBatchMatchesSerial(ecfg, 4);
}

TEST(MvmBatch, BitIdenticalToSerialWithDeviceVariation)
{
    arch::EngineConfig ecfg;
    ecfg.adcBits = 4;
    ecfg.cell.variationSigma = 0.1;
    checkBatchMatchesSerial(ecfg, 4);
}

TEST(MvmBatch, BitIdenticalToSerialWithReadNoise)
{
    // Read noise is the per-presentation stochastic path: its streams
    // are keyed by (seed, presentation key), not by thread.
    arch::EngineConfig ecfg;
    ecfg.adcBits = 5;
    ecfg.cell.variationSigma = 0.1;
    ecfg.readNoiseSigma = 0.05;
    checkBatchMatchesSerial(ecfg, 4);
    checkBatchMatchesSerial(ecfg, 7);
}

TEST(MvmBatch, SerialMvmIsBatchOfOne)
{
    static Tensor weight({16, 16, 3, 3}), grad({16, 16, 3, 3});
    const arch::MappedLayer mapped =
        buildMappedLayer(8, weight, grad, 11);
    const auto batch = samplePresentations(3, 16 * 9, 5);

    arch::CrossbarEngine a(mapped, {});
    arch::CrossbarEngine b(mapped, {});
    for (const auto &p : batch) {
        const auto via_mvm = a.mvm(p);
        const auto via_batch = b.mvmBatch({p});
        ASSERT_EQ(via_batch.size(), 1u);
        EXPECT_EQ(via_mvm, via_batch.front());
    }
}

TEST(MvmBatch, ReadNoisePerturbsButPreservesDeterminism)
{
    static Tensor weight({16, 16, 3, 3}), grad({16, 16, 3, 3});
    const arch::MappedLayer mapped =
        buildMappedLayer(8, weight, grad, 12);
    const auto batch = samplePresentations(4, 16 * 9, 9);

    arch::EngineConfig noisy;
    noisy.adcBits = 0;
    noisy.readNoiseSigma = 0.2;
    arch::CrossbarEngine clean_engine(mapped, {});
    arch::CrossbarEngine noisy_engine(mapped, noisy);
    arch::CrossbarEngine noisy_again(mapped, noisy);

    const auto clean = clean_engine.mvmBatch(batch);
    const auto first = noisy_engine.mvmBatch(batch);
    const auto second = noisy_again.mvmBatch(batch);
    EXPECT_EQ(first, second);   // same seed, same stream
    EXPECT_NE(first, clean);    // the noise actually does something
}

TEST(MvmBatch, RepeatedBatchOnOneNoisyEngineIsBitIdentical)
{
    // The engine holds no presentation state: a second mvmBatch on the
    // same engine draws the same keyed read-noise streams as the first.
    static Tensor weight({16, 16, 3, 3}), grad({16, 16, 3, 3});
    const arch::MappedLayer mapped =
        buildMappedLayer(8, weight, grad, 13);
    const auto batch = samplePresentations(9, 16 * 9, 10);

    arch::EngineConfig noisy;
    noisy.adcBits = 4;
    noisy.cell.variationSigma = 0.1;
    noisy.readNoiseSigma = 0.1;
    arch::CrossbarEngine engine(mapped, noisy);

    ThreadPool pool(3);
    arch::EngineStats first_stats, second_stats;
    const auto first = engine.mvmBatch(batch, &first_stats, &pool);
    const auto second = engine.mvmBatch(batch, &second_stats, &pool);
    EXPECT_EQ(first, second);
    expectStatsIdentical(first_stats, second_stats);
    EXPECT_EQ(first_stats.presentations, batch.size());
}

} // namespace
} // namespace forms
