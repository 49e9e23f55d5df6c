/**
 * @file
 * Tests for the zero-skipping logic: effective-bit arithmetic, the
 * fragment EIC shortcut vs. a brute-force maximum, equivalence of the
 * cycle-accurate shift-register circuit with the behavioral model, the
 * paper's Figure 7 worked example, and EIC monotonicity in fragment
 * size (the paper's core Figure 8 claim).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "arch/zero_skip.hh"

namespace forms::arch {
namespace {

TEST(EffectiveBits, KnownValues)
{
    EXPECT_EQ(effectiveBits(0), 0);
    EXPECT_EQ(effectiveBits(1), 1);
    EXPECT_EQ(effectiveBits(2), 2);
    EXPECT_EQ(effectiveBits(3), 2);
    EXPECT_EQ(effectiveBits(0x2b), 6);       // 0b101011 (paper Fig. 7)
    EXPECT_EQ(effectiveBits(0x4b), 7);       // 0b1001011
    EXPECT_EQ(effectiveBits(0xffff), 16);
}

TEST(FragmentEic, EqualsBruteForceMax)
{
    Rng rng(1);
    for (int trial = 0; trial < 200; ++trial) {
        const size_t n = 1 + rng.below(16);
        std::vector<uint32_t> vals(n);
        for (auto &v : vals)
            v = static_cast<uint32_t>(rng.below(1u << 16));
        int brute = 0;
        for (uint32_t v : vals)
            brute = std::max(brute, effectiveBits(v));
        EXPECT_EQ(fragmentEic(vals.data(), vals.size()), brute);
    }
}

TEST(FragmentEic, PaperFigure7Example)
{
    // inp1 = ...0010 1011 (6 bits), inp2 = ...0100 1011 (7 bits),
    // inp3 = ...0000 0110 (3 bits), inp4 = ...0011 0100 (6 bits)
    // -> required EIC is 7, set by inp2.
    std::vector<uint32_t> frag = {0x2b, 0x4b, 0x06, 0x34};
    EXPECT_EQ(fragmentEic(frag.data(), frag.size()), 7);
}

TEST(FragmentEic, AllZeroFragmentSkipsEverything)
{
    std::vector<uint32_t> frag(8, 0);
    EXPECT_EQ(fragmentEic(frag.data(), frag.size()), 0);
}

TEST(ShiftRegisterBank, DrainCyclesMatchEic)
{
    Rng rng(2);
    for (int trial = 0; trial < 100; ++trial) {
        const int lanes = 1 + static_cast<int>(rng.below(8));
        std::vector<uint32_t> vals(static_cast<size_t>(lanes));
        for (auto &v : vals)
            v = static_cast<uint32_t>(rng.below(1u << 16));

        ShiftRegisterBank bank(16, lanes);
        bank.load(vals);
        // Skip the leading all-zero cycles the way the controller does:
        // remainingCycles is exactly the EIC.
        EXPECT_EQ(bank.remainingCycles(),
                  fragmentEic(vals.data(), vals.size()));

        // Shift through all 16 cycles; count cycles until drained.
        int drained_after = 16;
        for (int cyc = 0; cyc < 16; ++cyc) {
            bank.shiftCycle();
            if (bank.allDrained()) {
                drained_after = cyc + 1;
                break;
            }
        }
        // The bank drains once every set bit has been emitted: with
        // MSB-first shifting that is 16 minus the number of trailing
        // zeros shared by all lanes (lowest set bit of the OR).
        uint32_t merged = 0;
        for (uint32_t v : vals)
            merged |= v;
        if (merged == 0) {
            EXPECT_TRUE(bank.allDrained());
        } else {
            int lowest_set = 0;
            while (((merged >> lowest_set) & 1u) == 0)
                ++lowest_set;
            EXPECT_EQ(drained_after, 16 - lowest_set);
        }
    }
}

TEST(ShiftRegisterBank, EmitsMsbFirst)
{
    ShiftRegisterBank bank(8, 1);
    bank.load({0b10110001u});
    std::vector<uint8_t> seen;
    for (int i = 0; i < 8; ++i)
        seen.push_back(bank.shiftCycle()[0]);
    const std::vector<uint8_t> expect = {1, 0, 1, 1, 0, 0, 0, 1};
    EXPECT_EQ(seen, expect);
    EXPECT_TRUE(bank.allDrained());
}

TEST(ShiftRegisterBank, NorAndTriggerSemantics)
{
    // After loading zeros the AND-of-NORs must be asserted immediately.
    ShiftRegisterBank bank(16, 4);
    bank.load({0, 0, 0, 0});
    EXPECT_TRUE(bank.allDrained());
    bank.load({0, 4, 0, 0});
    EXPECT_FALSE(bank.allDrained());
}

class EicMonotonicityTest : public ::testing::TestWithParam<int>
{
};

TEST_P(EicMonotonicityTest, LargerFragmentsNeedMoreCycles)
{
    // Property at the heart of Figure 8: for the same value stream,
    // average EIC is non-decreasing in fragment size.
    const int frag = GetParam();
    Rng rng(42);   // same stream for every instantiation
    std::vector<uint32_t> stream(4096);
    for (auto &v : stream) {
        // Heavy-tailed small values, as post-ReLU activations.
        const double x = std::exp(rng.gaussian(5.0, 2.0));
        v = static_cast<uint32_t>(std::min(x, 65535.0));
    }
    EicStats small(16), big(16);
    small.recordVector(stream.data(), stream.size(), frag);
    big.recordVector(stream.data(), stream.size(), frag * 2);
    EXPECT_LE(small.averageEic(), big.averageEic() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(FragSizes, EicMonotonicityTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

TEST(EicStats, SavingsComplementAverage)
{
    EicStats s(16);
    s.record(8);
    s.record(12);
    EXPECT_NEAR(s.averageEic(), 10.0, 1e-9);
    EXPECT_NEAR(s.cycleSavings(), 1.0 - 10.0 / 16.0, 1e-9);
}

TEST(EicStats, HistogramBins)
{
    EicStats s(16);
    s.record(0);
    s.record(16);
    s.record(16);
    EXPECT_EQ(s.histogram().bin(16), 2u);
    EXPECT_EQ(s.histogram().bin(0), 1u);
}

TEST(EicStatsDeathTest, RecordVectorNamesOutOfRangeValue)
{
    // A value off the input grid used to trip an opaque internal
    // assert deep in the histogram; the boundary check must name the
    // offending value, its position and the grid instead.
    EicStats s(8);
    const std::vector<uint32_t> vals = {1, 2, 300, 4};
    EXPECT_DEATH(s.recordVector(vals.data(), vals.size(), 2),
                 "300.*index 2.*8-bit");
    // The full grid range itself is fine.
    const std::vector<uint32_t> ok = {0, 255};
    s.recordVector(ok.data(), ok.size(), 2);
    EXPECT_EQ(s.histogram().total(), 1u);
}

} // namespace
} // namespace forms::arch
