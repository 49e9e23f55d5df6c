/**
 * @file
 * Tests for the ADC/DAC models: the adcRead transfer function,
 * lossless-resolution exactness, saturation, and the area/power
 * scaling law reproducing the paper's Table III design points.
 */

#include <gtest/gtest.h>

#include <limits>

#include "reram/adc.hh"

namespace forms::reram {
namespace {

TEST(Adc, LosslessBits)
{
    // rows * (2^cellBits - 1) distinct sums + zero.
    EXPECT_EQ(AdcModel::losslessBits(8, 2), 5);    // max 24 -> 5 bits
    EXPECT_EQ(AdcModel::losslessBits(4, 2), 4);    // max 12 -> 4 bits
    EXPECT_EQ(AdcModel::losslessBits(16, 2), 6);   // max 48 -> 6 bits
    EXPECT_EQ(AdcModel::losslessBits(128, 2), 9);  // max 384 -> 9 bits
    EXPECT_EQ(AdcModel::losslessBits(8, 1), 4);    // max 8 -> 4 bits
}

TEST(Adc, LosslessQuantizationIsExactOnIntegers)
{
    const int rows = 8, cell_bits = 2;
    const int max_sum = rows * ((1 << cell_bits) - 1);
    AdcModel adc({AdcModel::losslessBits(rows, cell_bits), 2.1});
    // With full_scale == codes-1 the step is exactly 1.
    const int top = adc.config().codes() - 1;
    for (int v = 0; v <= max_sum; ++v)
        EXPECT_EQ(adcRead(static_cast<double>(v), 1.0, top),
                  static_cast<double>(v));
}

TEST(Adc, SaturatesAtTopCode)
{
    // 4-bit ADC over a 0..24 fragment sum: step = 24/15 = 1.6.
    const double step = 24.0 / 15.0;
    EXPECT_EQ(adcRead(1e9, step, 15), 15.0 * step);
    EXPECT_EQ(adcRead(-5.0, step, 15), 0.0);
}

/**
 * Inputs past long's or int's range and non-finite ones saturate like
 * any other out-of-range input (they used to wrap to 0): +inf reads
 * top, -inf and NaN read 0. In-range inputs keep their codes.
 */
TEST(Adc, SaturatesHugeAndNonFinite)
{
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(adcRead(3e9, 1.0, 15), 15.0);
    EXPECT_EQ(adcRead(1e300, 1.6, 15), 15.0 * 1.6);
    EXPECT_EQ(adcRead(inf, 1.0, 15), 15.0);
    EXPECT_EQ(adcRead(-inf, 1.0, 15), 0.0);
    EXPECT_EQ(adcRead(-3e9, 1.0, 15), 0.0);
    EXPECT_EQ(adcRead(std::numeric_limits<double>::quiet_NaN(), 1.0, 15),
              0.0);
    EXPECT_EQ(adcCode(14.5, 1.0, 15), 15);   // halves round away from 0
    EXPECT_EQ(adcCode(15.5, 1.0, 15), 15);
    EXPECT_EQ(adcCode(-0.5, 1.0, 15), 0);
    EXPECT_EQ(adcCode(7.49, 1.0, 15), 7);
    EXPECT_EQ(adcCode(double((1 << 30) - 1), 1.0, (1 << 30) - 1),
              (1 << 30) - 1);
}

TEST(Adc, PaperModeRoundsToStep)
{
    // 4-bit ADC over a 0..24 fragment sum: step = 24/15 = 1.6.
    const double step = 24.0 / 15.0;
    EXPECT_EQ(adcRead(8.0, step, 15), 5.0 * step);   // 8 / 1.6 = 5.0
    EXPECT_NEAR(adcRead(8.0, step, 15), 8.0, 1e-9);
    // Mid-step values incur bounded error.
    EXPECT_NEAR(adcRead(8.7, step, 15), 8.7, step / 2.0 + 1e-9);
}

TEST(Adc, ScalingLawReproducesIsaacPoint)
{
    // Table III: 8 ADCs of 8-bit @ 1.2 GHz = 16 mW, 0.0096 mm^2.
    AdcModel adc({8, 1.2});
    EXPECT_NEAR(adc.powerMw() * 8, 16.0, 0.05);
    EXPECT_NEAR(adc.areaMm2() * 8, 0.0096, 0.0001);
}

TEST(Adc, ScalingLawReproducesFormsPoint)
{
    // Table III: 32 ADCs of 4-bit @ 2.1 GHz = 15.2 mW, 0.0091 mm^2.
    AdcModel adc({4, 2.1});
    EXPECT_NEAR(adc.powerMw() * 32, 15.2, 0.05);
    EXPECT_NEAR(adc.areaMm2() * 32, 0.0091, 0.0001);
}

TEST(Adc, PowerAndAreaGrowWithResolution)
{
    double prev_p = 0.0, prev_a = 0.0;
    for (int bits = 3; bits <= 10; ++bits) {
        AdcModel adc({bits, 1.0});
        EXPECT_GT(adc.powerMw(), prev_p);
        EXPECT_GT(adc.areaMm2(), prev_a);
        prev_p = adc.powerMw();
        prev_a = adc.areaMm2();
    }
}

TEST(Adc, ExponentialTermDominatesEventually)
{
    // Area roughly quadruples from 8 to 10 bits (cap-DAC dominated).
    AdcModel a8({8, 1.0}), a10({10, 1.0});
    EXPECT_GT(a10.areaMm2() / a8.areaMm2(), 2.5);
}

TEST(Adc, PaperFrequencyPoints)
{
    EXPECT_NEAR(AdcModel::paperFreqGhz(8), 1.2, 1e-9);
    EXPECT_NEAR(AdcModel::paperFreqGhz(4), 2.1, 1e-9);
    // Monotone: fewer bits -> faster.
    EXPECT_GT(AdcModel::paperFreqGhz(3), AdcModel::paperFreqGhz(5));
}

TEST(Adc, EnergyPerSample)
{
    AdcModel adc({4, 2.1});
    EXPECT_NEAR(adc.energyPerSamplePj(),
                adc.powerMw() / 2.1, 1e-9);
}

TEST(Dac, TableIIIValues)
{
    // 8*128 1-bit DACs = 4 mW / 0.00017 mm^2.
    EXPECT_NEAR(DacModel::powerMw() * 8 * 128, 4.0, 1e-9);
    EXPECT_NEAR(DacModel::areaMm2() * 8 * 128, 0.00017, 1e-9);
}

} // namespace
} // namespace forms::reram
