/**
 * @file
 * Unit tests for the ReRAM device model: magnitude slicing round trips,
 * cell programming, read energy, and the statistics of the log-normal
 * variation model.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "reram/device.hh"
#include "reram/variation.hh"

namespace forms::reram {
namespace {

TEST(Slicing, RoundTripAllValues8Bit)
{
    for (uint32_t v = 0; v < 256; ++v) {
        const auto levels = sliceMagnitude(v, 8, 2);
        EXPECT_EQ(levels.size(), 4u);
        EXPECT_EQ(unsliceMagnitude(levels, 2), v);
    }
}

TEST(Slicing, RoundTripMixedPrecisions)
{
    Rng rng(1);
    for (int wb : {4, 6, 8, 12, 16}) {
        for (int cb : {1, 2, 4}) {
            for (int trial = 0; trial < 50; ++trial) {
                const uint32_t v = static_cast<uint32_t>(
                    rng.below(1ull << wb));
                EXPECT_EQ(unsliceMagnitude(sliceMagnitude(v, wb, cb), cb),
                          v);
            }
        }
    }
}

TEST(Slicing, LevelsRespectCellRange)
{
    const auto levels = sliceMagnitude(255, 8, 2);
    for (int l : levels) {
        EXPECT_GE(l, 0);
        EXPECT_LE(l, 3);
    }
}

TEST(Slicing, CellsPerWeight)
{
    EXPECT_EQ(cellsPerWeight(8, 2), 4);
    EXPECT_EQ(cellsPerWeight(16, 2), 8);
    EXPECT_EQ(cellsPerWeight(7, 2), 4);
    EXPECT_EQ(cellsPerWeight(32, 2), 16);
}

TEST(ProgramLevel, IdealDevicesReturnTheLevel)
{
    CellConfig cfg;
    Rng rng(4);
    const int max_level = 3;   // 2-bit cells
    for (int level = 0; level <= max_level; ++level) {
        EXPECT_EQ(programLevel(level, max_level, cfg, nullptr),
                  static_cast<double>(level));
        // Sigma 0 is ideal even with a variation source at hand.
        EXPECT_EQ(programLevel(level, max_level, cfg, &rng),
                  static_cast<double>(level));
    }
}

TEST(ProgramLevel, VariationPerturbsMultiplicatively)
{
    CellConfig cfg;
    cfg.variationSigma = 0.1;
    Rng rng(5);
    RunningStat ratio;
    for (int i = 0; i < 20000; ++i)
        ratio.add(programLevel(2, 3, cfg, &rng) / 2.0);
    // Log-normal(0, 0.1): mean exp(0.005) ~ 1.005.
    EXPECT_NEAR(ratio.mean(), std::exp(0.005), 0.01);
    EXPECT_GT(ratio.stddev(), 0.05);
}

TEST(ProgramLevel, ZeroLevelImmuneToVariation)
{
    CellConfig cfg;
    cfg.variationSigma = 0.5;
    Rng rng(6);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(programLevel(0, 3, cfg, &rng), 0.0);
}

TEST(ReadEnergy, PositiveAndLinearInActiveRows)
{
    const double e8 = readEnergyPj(8, 128, 1.0);
    const double e128 = readEnergyPj(128, 128, 1.0);
    EXPECT_GT(e8, 0.0);
    EXPECT_EQ(e128 / e8, 16.0);
    // V^2 * G_mid * t at 0.2 V and the 2-100 uS cell's 51 uS midpoint.
    EXPECT_EQ(readEnergyPj(1, 1, 1.0), 0.2 * 0.2 * 51.0 * 1.0 * 1e-3);
}

TEST(Variation, ZeroSigmaIsIdentityOnGrid)
{
    // On-grid weights with sigma->0 must come back unchanged.
    Tensor w({8});
    const float scale = 0.01f;
    for (int64_t i = 0; i < 8; ++i)
        w.at(i) = scale * static_cast<float>(i * 30 - 100);
    Tensor orig = w;
    VariationConfig cfg;
    cfg.sigma = 1e-9;
    cfg.quantScale = scale;
    Rng rng(7);
    perturbWeights(w, cfg, rng);
    for (int64_t i = 0; i < 8; ++i)
        EXPECT_NEAR(w.at(i), orig.at(i), 1e-5);
}

TEST(Variation, PreservesSignAndZero)
{
    Rng rng(8);
    Tensor w({64});
    w.fillGaussian(rng, 0.0f, 1.0f);
    w.at(0) = 0.0f;
    Tensor orig = w;
    VariationConfig cfg;
    cfg.sigma = 0.2;
    perturbWeights(w, cfg, rng);
    EXPECT_EQ(w.at(0), 0.0f);
    for (int64_t i = 1; i < 64; ++i) {
        if (orig.at(i) > 0.0f)
            EXPECT_GE(w.at(i), 0.0f);
        else if (orig.at(i) < 0.0f)
            EXPECT_LE(w.at(i), 0.0f);
    }
}

TEST(Variation, RelativeErrorScalesWithSigma)
{
    Rng rng(9);
    Tensor base({512});
    base.fillGaussian(rng, 0.0f, 1.0f);

    auto mean_rel_err = [&](double sigma) {
        Tensor w = base;
        VariationConfig cfg;
        cfg.sigma = sigma;
        Rng local(10);
        const float scale = perturbWeights(w, cfg, local);
        (void)scale;
        double acc = 0.0;
        int n = 0;
        for (int64_t i = 0; i < w.numel(); ++i) {
            if (base.at(i) == 0.0f)
                continue;
            acc += std::fabs(w.at(i) - base.at(i)) /
                std::fabs(base.at(i));
            ++n;
        }
        return acc / n;
    };

    const double small = mean_rel_err(0.05);
    const double large = mean_rel_err(0.3);
    EXPECT_LT(small, large);
}

} // namespace
} // namespace forms::reram
