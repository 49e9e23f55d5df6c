/**
 * @file
 * Unit tests for the common utilities: RNG determinism, distribution
 * sanity and the polar-method helpers, running statistics, histograms,
 * table printer.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace forms {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformBoundsRespected)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, BelowStaysBelow)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, GaussianMoments)
{
    Rng r(13);
    RunningStat s;
    for (int i = 0; i < 50000; ++i)
        s.add(r.gaussian());
    EXPECT_NEAR(s.mean(), 0.0, 0.03);
    EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

/**
 * The polar-method helpers, driven as a blocked sampler would drive
 * them, reproduce gaussian()'s stream bit for bit: u * m first, the
 * spare v * m next, the same uniforms consumed in the same order.
 */
TEST(Rng, PolarHelpersReproduceGaussianStream)
{
    for (uint64_t seed : {1ULL, 7ULL, 99ULL, 0x8000000000000005ULL}) {
        Rng ref(seed), mine(seed);
        bool have_spare = false;
        double spare = 0.0;
        for (int i = 0; i < 1000000; ++i) {
            double got = spare;
            if (!have_spare) {
                Rng::PolarAttempt a = mine.polarAttempt();
                while (!Rng::polarAccepts(a.s))
                    a = mine.polarAttempt();
                const double m = Rng::polarScale(a.s);
                got = a.u * m;
                spare = a.v * m;
            }
            have_spare = !have_spare;
            const double want = ref.gaussian();
            if (std::memcmp(&got, &want, sizeof got) != 0) {
                ADD_FAILURE() << "seed " << seed << " draw " << i << ": "
                              << got << " != " << want;
                break;
            }
        }
        // Both generators consumed the same uniforms.
        EXPECT_EQ(mine.next(), ref.next()) << "seed " << seed;
    }
}

TEST(Rng, LognormalMean)
{
    // E[lognormal(0, s)] = exp(s^2/2).
    Rng r(17);
    const double sigma = 0.1;
    RunningStat s;
    for (int i = 0; i < 50000; ++i)
        s.add(r.lognormal(0.0, sigma));
    EXPECT_NEAR(s.mean(), std::exp(sigma * sigma / 2.0), 0.01);
}

TEST(Rng, BernoulliFrequency)
{
    Rng r(19);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RunningStat, BasicMoments)
{
    RunningStat s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MergeMatchesSequential)
{
    Rng r(23);
    RunningStat all, a, b;
    for (int i = 0; i < 1000; ++i) {
        const double v = r.gaussian(3.0, 2.0);
        all.add(v);
        (i % 2 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(Histogram, CountsAndFractions)
{
    Histogram h(4);
    h.add(0);
    h.add(1);
    h.add(1);
    h.add(3);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.bin(1), 2u);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.5);
    EXPECT_DOUBLE_EQ(h.mean(), (0 + 1 + 1 + 3) / 4.0);
}

TEST(Histogram, ClampsOutOfRange)
{
    Histogram h(4);
    h.add(-5);
    h.add(99);
    EXPECT_EQ(h.bin(0), 1u);
    EXPECT_EQ(h.bin(3), 1u);
    EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, Percentile)
{
    Histogram h(10);
    for (int v = 0; v < 10; ++v)
        h.add(v, 10);
    EXPECT_EQ(h.percentile(0.5), 4);
    EXPECT_EQ(h.percentile(1.0), 9);
    EXPECT_EQ(h.percentile(0.05), 0);
}

TEST(Histogram, WeightedAdd)
{
    Histogram h(5);
    h.add(2, 7);
    EXPECT_EQ(h.bin(2), 7u);
    EXPECT_EQ(h.total(), 7u);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.row().cell("alpha").cell(1.5, 1);
    t.row().cell("b").cell(int64_t{42});
    const std::string s = t.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.5"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    // Header separator present.
    EXPECT_NE(s.find("|--"), std::string::npos);
}

TEST(Table, AddRowVectorForm)
{
    Table t({"a", "b", "c"});
    t.addRow({"1", "2", "3"});
    EXPECT_NE(t.str().find("| 1"), std::string::npos);
}

TEST(Logging, StrfmtFormats)
{
    EXPECT_EQ(strfmt("%d-%s", 3, "x"), "3-x");
    EXPECT_EQ(strfmt("%.2f", 1.2345), "1.23");
}

} // namespace
} // namespace forms
