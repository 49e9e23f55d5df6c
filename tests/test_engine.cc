/**
 * @file
 * Tests for the functional crossbar engine: integer exactness at
 * lossless ADC resolution (parameterized over fragment sizes), bounded
 * error at the paper's reduced resolutions, zero-skip equivalence and
 * cycle savings, and device-variation behaviour.
 */

#include <gtest/gtest.h>

#include "arch/engine.hh"
#include "stats_testutil.hh"

namespace forms::arch {
namespace {

using admm::FragmentPlan;
using admm::PolarizationPolicy;
using admm::WeightView;

struct TestLayer
{
    Tensor weight;
    Tensor grad;
    admm::LayerState state;

    TestLayer(int cout, int cin, int k, int frag, uint64_t seed)
        : weight({cout, cin, k, k}), grad({cout, cin, k, k})
    {
        Rng rng(seed);
        weight.fillGaussian(rng, 0.0f, 0.5f);
        state.name = "engine-test";
        state.param = {"w", &weight, &grad, true, false};
        state.plan = FragmentPlan::forConv(cout, cin, k, frag,
                                           PolarizationPolicy::WMajor);
        WeightView v = WeightView::conv(weight);
        state.signs = admm::computeSigns(v, state.plan);
        admm::projectPolarization(v, state.plan, *state.signs);
        admm::QuantSpec q;
        q.bits = 8;
        state.quantScale = admm::projectQuantize(v, q);
    }
};

MappingConfig
makeCfg(int frag)
{
    MappingConfig cfg;
    cfg.xbarRows = 32;
    cfg.xbarCols = 32;
    cfg.weightBits = 8;
    cfg.cellBits = 2;
    cfg.inputBits = 12;
    cfg.fragSize = frag;
    return cfg;
}

std::vector<uint32_t>
randomInputs(size_t n, int bits, uint64_t seed, double zero_frac = 0.3)
{
    Rng rng(seed);
    std::vector<uint32_t> v(n);
    for (auto &x : v) {
        if (rng.bernoulli(zero_frac)) {
            x = 0;
        } else {
            // Heavy-tailed small values like real activations.
            const double val = std::exp(rng.gaussian(3.0, 1.5));
            x = static_cast<uint32_t>(
                std::min(val, std::pow(2.0, bits) - 1));
        }
    }
    return v;
}

class EngineExactnessTest : public ::testing::TestWithParam<int>
{
};

TEST_P(EngineExactnessTest, LosslessAdcIsIntegerExact)
{
    const int frag = GetParam();
    TestLayer layer(10, 4, 3, frag, 100 + frag);
    MappingConfig mcfg = makeCfg(frag);
    MappedLayer mapped = mapLayer(layer.state, mcfg);

    EngineConfig ecfg;
    ecfg.adcBits = 0;   // lossless
    CrossbarEngine engine(mapped, ecfg);

    auto inputs = randomInputs(36, mcfg.inputBits, 7);
    auto got = engine.mvm(inputs);
    auto expect = referenceMvm(mapped, inputs);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_DOUBLE_EQ(got[i], static_cast<double>(expect[i]))
            << "output " << i;
}

TEST_P(EngineExactnessTest, BatchedLosslessAdcIsIntegerExact)
{
    const int frag = GetParam();
    TestLayer layer(10, 4, 3, frag, 300 + frag);
    MappingConfig mcfg = makeCfg(frag);
    MappedLayer mapped = mapLayer(layer.state, mcfg);

    EngineConfig ecfg;
    ecfg.adcBits = 0;   // lossless
    CrossbarEngine engine(mapped, ecfg);

    std::vector<std::vector<uint32_t>> batch;
    for (uint64_t s = 0; s < 6; ++s)
        batch.push_back(randomInputs(36, mcfg.inputBits, 20 + s));

    ThreadPool pool(4);
    auto got = engine.mvmBatch(batch, nullptr, &pool);
    ASSERT_EQ(got.size(), batch.size());
    for (size_t b = 0; b < batch.size(); ++b) {
        auto expect = referenceMvm(mapped, batch[b]);
        ASSERT_EQ(got[b].size(), expect.size());
        for (size_t i = 0; i < got[b].size(); ++i)
            EXPECT_DOUBLE_EQ(got[b][i], static_cast<double>(expect[i]))
                << "presentation " << b << " output " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(FragSizes, EngineExactnessTest,
                         ::testing::Values(4, 8, 16, 32));

TEST(Engine, ZeroSkipDoesNotChangeResults)
{
    TestLayer layer(8, 4, 3, 8, 11);
    MappedLayer mapped = mapLayer(layer.state, makeCfg(8));

    EngineConfig with, without;
    with.zeroSkip = true;
    without.zeroSkip = false;
    CrossbarEngine e1(mapped, with), e2(mapped, without);

    auto inputs = randomInputs(36, 12, 8);
    EngineStats s1, s2;
    auto r1 = e1.mvm(inputs, &s1);
    auto r2 = e2.mvm(inputs, &s2);
    ASSERT_EQ(r1.size(), r2.size());
    for (size_t i = 0; i < r1.size(); ++i)
        EXPECT_DOUBLE_EQ(r1[i], r2[i]);
    // ...but it must save cycles on sparse/small inputs.
    EXPECT_LT(s1.bitCycles, s2.bitCycles);
    EXPECT_GT(s1.skippedCycles, 0u);
    EXPECT_EQ(s2.skippedCycles, 0u);
}

TEST(Engine, SmallerFragmentsSkipMore)
{
    // The unique-opportunity claim (paper §IV-B): skip fraction grows
    // as fragments shrink.
    auto skip_fraction = [](int frag) {
        TestLayer layer(8, 8, 3, frag, 200);
        MappedLayer mapped = mapLayer(layer.state, makeCfg(frag));
        EngineConfig cfg;
        CrossbarEngine engine(mapped, cfg);
        auto inputs = randomInputs(72, 12, 9);
        EngineStats stats;
        engine.mvm(inputs, &stats);
        return stats.skipFraction();
    };
    const double f4 = skip_fraction(4);
    const double f32 = skip_fraction(32);
    EXPECT_GT(f4, f32);
}

TEST(Engine, PaperAdcResolutionErrorIsBounded)
{
    TestLayer layer(8, 4, 3, 8, 13);
    MappedLayer mapped = mapLayer(layer.state, makeCfg(8));

    EngineConfig paper;
    paper.adcBits = 4;   // the paper's choice for fragment size 8
    CrossbarEngine engine(mapped, paper);

    auto inputs = randomInputs(36, 12, 10);
    auto got = engine.mvm(inputs);
    auto expect = referenceMvm(mapped, inputs);

    double rel = 0.0;
    double norm = 0.0;
    for (size_t i = 0; i < got.size(); ++i) {
        rel += std::fabs(got[i] - static_cast<double>(expect[i]));
        norm += std::fabs(static_cast<double>(expect[i]));
    }
    ASSERT_GT(norm, 0.0);
    // 4-bit conversion of a 0..24 range loses fine codes; trained
    // (polarized, small-magnitude) weights keep the error modest.
    EXPECT_LT(rel / norm, 0.25);
}

TEST(Engine, VariationPerturbsOutputs)
{
    TestLayer layer(8, 4, 3, 8, 17);
    MappedLayer mapped = mapLayer(layer.state, makeCfg(8));

    EngineConfig ideal, noisy;
    noisy.cell.variationSigma = 0.1;
    CrossbarEngine e_ideal(mapped, ideal), e_noisy(mapped, noisy);

    auto inputs = randomInputs(36, 12, 11, 0.0);
    auto r_ideal = e_ideal.mvm(inputs);
    auto r_noisy = e_noisy.mvm(inputs);
    double diff = 0.0, norm = 0.0;
    for (size_t i = 0; i < r_ideal.size(); ++i) {
        diff += std::fabs(r_ideal[i] - r_noisy[i]);
        norm += std::fabs(r_ideal[i]);
    }
    EXPECT_GT(diff, 0.0);
    EXPECT_LT(diff / norm, 0.5);
}

TEST(Engine, StatsAccounting)
{
    TestLayer layer(8, 4, 3, 8, 19);
    MappedLayer mapped = mapLayer(layer.state, makeCfg(8));
    EngineConfig cfg;
    cfg.zeroSkip = false;
    CrossbarEngine engine(mapped, cfg);
    auto inputs = randomInputs(36, 12, 12);
    EngineStats stats;
    engine.mvm(inputs, &stats);

    // Without skipping: bit cycles = sum over crossbars and fragments
    // of inputBits.
    uint64_t expect_cycles = 0;
    for (const auto &xb : mapped.crossbars)
        expect_cycles += static_cast<uint64_t>(xb.fragsUsed) * 12;
    EXPECT_EQ(stats.bitCycles, expect_cycles);
    EXPECT_GT(stats.adcSamples, stats.bitCycles);
    EXPECT_GT(stats.adcEnergyPj, 0.0);
    EXPECT_GT(stats.timeNs, 0.0);
    EXPECT_EQ(stats.presentations, 1u);
}

/**
 * A device model whose precision disagrees with the mapping's slicing
 * must be rejected up front with an actionable message (this also
 * regression-tests FORMS_ASSERT's formatted-argument path, which used
 * to crash inside panic() instead of printing).
 */
TEST(Engine, RejectsMismatchedCellPrecision)
{
    TestLayer layer(4, 3, 3, 8, 7);
    MappingConfig mcfg = makeCfg(8);
    mcfg.cellBits = 4;
    const MappedLayer mapped = mapLayer(layer.state, mcfg);
    EngineConfig ecfg;   // cell model still at the 2-bit default
    EXPECT_DEATH(CrossbarEngine(mapped, ecfg),
                 "4 bits/cell|bitsPerCell");
}

TEST(Engine, QuantizeActivationsRoundTrip)
{
    std::vector<float> x = {0.0f, -0.5f, 1.0f, 0.25f};
    float scale = 0.0f;
    auto q = quantizeActivations(x, 8, &scale);
    EXPECT_EQ(q[0], 0u);
    EXPECT_EQ(q[1], 0u);   // negatives clamp (post-ReLU convention)
    EXPECT_EQ(q[2], 255u);
    EXPECT_NEAR(static_cast<float>(q[3]) * scale, 0.25f, scale);
}

TEST(Engine, DequantizeScalesProducts)
{
    std::vector<double> raw = {100.0, -50.0};
    auto out = dequantizeOutputs(raw, 0.01f, 0.002f);
    EXPECT_NEAR(out[0], 100.0 * 0.01 * 0.002, 1e-9);
    EXPECT_NEAR(out[1], -50.0 * 0.01 * 0.002, 1e-9);
}

} // namespace
} // namespace forms::arch
