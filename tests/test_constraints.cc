/**
 * @file
 * Property tests for the three ADMM constraint projections: structured
 * pruning (top-norm selection + crossbar-aware rounding), fragment
 * polarization (Euclidean orthant projection, idempotence, sign rules)
 * and quantization (grid membership, idempotence, error bound).
 */

#include <gtest/gtest.h>

#include "admm/constraints.hh"

namespace forms::admm {
namespace {

TEST(CrossbarAwareKeep, SnapsUpToCrossbarExtent)
{
    // keep = 300 of 512 at D=128 snaps to 384 (3 crossbars' worth).
    EXPECT_EQ(crossbarAwareKeep(512, 300.0 / 512.0, 128), 384);
    // Exactly on a boundary stays.
    EXPECT_EQ(crossbarAwareKeep(512, 0.5, 128), 256);
    // Never exceeds the total.
    EXPECT_EQ(crossbarAwareKeep(100, 0.99, 128), 100);
    // Never drops to zero.
    EXPECT_GE(crossbarAwareKeep(512, 0.0, 128), 1);
}

TEST(CrossbarAwareKeep, NoSnapWithUnitDim)
{
    EXPECT_EQ(crossbarAwareKeep(512, 300.0 / 512.0, 1), 300);
}

TEST(StructuredPrune, KeepsTopNormColumns)
{
    Tensor w({4, 8});   // dense view: rows=8, cols=4
    // Column norms (out neurons): make neuron 2 strongest, 0 weakest.
    for (int64_t j = 0; j < 4; ++j)
        for (int64_t r = 0; r < 8; ++r)
            w.at(j, r) = 0.1f * static_cast<float>(j + 1);
    w.at(2, 0) = 10.0f;

    PruneSpec spec;
    spec.filterKeep = 0.5;
    spec.shapeKeep = 1.0;
    spec.xbarDim = 1;
    WeightView v = WeightView::dense(w);
    auto [rk, ck] = projectStructuredPrune(v, spec);
    EXPECT_EQ(ck, 2);
    EXPECT_EQ(rk, 8);
    // Strongest columns (2 and 3) survive; 0 and 1 zeroed.
    for (int64_t r = 0; r < 8; ++r) {
        EXPECT_EQ(v.get(r, 0), 0.0f);
        EXPECT_EQ(v.get(r, 1), 0.0f);
        EXPECT_NE(v.get(r, 2), 0.0f);
    }
}

TEST(StructuredPrune, RemainingStructureIsDense)
{
    Rng rng(3);
    Tensor w({16, 2, 3, 3});
    w.fillGaussian(rng, 0.0f, 1.0f);
    PruneSpec spec;
    spec.filterKeep = 0.5;
    spec.shapeKeep = 0.5;
    spec.xbarDim = 1;
    WeightView v = WeightView::conv(w);
    projectStructuredPrune(v, spec);
    PruneMask m = extractMask(v);
    EXPECT_EQ(m.keptCols(), 8);
    EXPECT_EQ(m.keptRows(), 9);
    // Every kept (row, col) pair must be nonzero-allowed (dense block):
    // check that all surviving weights live inside the kept structure.
    for (int64_t j = 0; j < v.cols(); ++j)
        for (int64_t r = 0; r < v.rows(); ++r)
            if (v.get(r, j) != 0.0f) {
                EXPECT_TRUE(m.colKept[static_cast<size_t>(j)]);
                EXPECT_TRUE(m.rowKept[static_cast<size_t>(r)]);
            }
}

TEST(StructuredPrune, ProjectionIsIdempotent)
{
    Rng rng(4);
    Tensor w({8, 4, 3, 3});
    w.fillGaussian(rng, 0.0f, 1.0f);
    PruneSpec spec;
    spec.filterKeep = 0.6;
    spec.shapeKeep = 0.7;
    spec.xbarDim = 1;
    WeightView v = WeightView::conv(w);
    projectStructuredPrune(v, spec);
    Tensor once = w;
    projectStructuredPrune(v, spec);
    EXPECT_TRUE(w.equals(once));
}

TEST(ApplyMask, ZeroesOutsideStructure)
{
    Rng rng(5);
    Tensor w({4, 6});
    w.fillGaussian(rng, 1.0f, 0.1f);
    WeightView v = WeightView::dense(w);
    PruneMask m;
    m.rowKept.assign(6, 1);
    m.colKept.assign(4, 1);
    m.rowKept[2] = 0;
    m.colKept[1] = 0;
    applyMask(v, m);
    for (int64_t r = 0; r < 6; ++r)
        EXPECT_EQ(v.get(r, 1), 0.0f);
    for (int64_t j = 0; j < 4; ++j)
        EXPECT_EQ(v.get(2, j), 0.0f);
    EXPECT_NE(v.get(0, 0), 0.0f);
}

class PolarizationTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PolarizationTest, ProjectionClearsAllViolations)
{
    const int frag = GetParam();
    Rng rng(6 + frag);
    Tensor w({6, 4, 3, 3});
    w.fillGaussian(rng, 0.0f, 1.0f);
    WeightView v = WeightView::conv(w);
    FragmentPlan plan = FragmentPlan::forConv(
        6, 4, 3, frag, PolarizationPolicy::CMajor);
    SignMap signs = computeSigns(v, plan);
    EXPECT_GT(countSignViolations(v, plan, signs), 0);
    projectPolarization(v, plan, signs);
    EXPECT_EQ(countSignViolations(v, plan, signs), 0);
}

TEST_P(PolarizationTest, ProjectionIsIdempotent)
{
    const int frag = GetParam();
    Rng rng(16 + frag);
    Tensor w({4, 2, 3, 3});
    w.fillGaussian(rng, 0.0f, 1.0f);
    WeightView v = WeightView::conv(w);
    FragmentPlan plan = FragmentPlan::forConv(
        4, 2, 3, frag, PolarizationPolicy::WMajor);
    SignMap signs = computeSigns(v, plan);
    projectPolarization(v, plan, signs);
    Tensor once = w;
    projectPolarization(v, plan, signs);
    EXPECT_TRUE(w.equals(once));
}

TEST_P(PolarizationTest, SurvivorsKeepTheirValues)
{
    // The Euclidean projection onto a signed orthant only zeroes the
    // offending coordinates; it never modifies agreeing ones.
    const int frag = GetParam();
    Rng rng(26 + frag);
    Tensor w({4, 2, 3, 3});
    w.fillGaussian(rng, 0.0f, 1.0f);
    Tensor orig = w;
    WeightView v = WeightView::conv(w);
    FragmentPlan plan = FragmentPlan::forConv(
        4, 2, 3, frag, PolarizationPolicy::WMajor);
    SignMap signs = computeSigns(v, plan);
    projectPolarization(v, plan, signs);
    for (int64_t i = 0; i < w.numel(); ++i) {
        if (w.at(i) != 0.0f)
            EXPECT_FLOAT_EQ(w.at(i), orig.at(i));
    }
}

INSTANTIATE_TEST_SUITE_P(FragmentSizes, PolarizationTest,
                         ::testing::Values(2, 4, 8, 16));

TEST(Polarization, SumRuleMatchesPaperEquation)
{
    // Fragment sum >= 0 -> positive sign (Eq. 2).
    Tensor w({1, 1, 2, 2});
    w.at(0) = 3.0f; w.at(1) = -1.0f; w.at(2) = -1.0f; w.at(3) = -0.5f;
    WeightView v = WeightView::conv(w);
    FragmentPlan plan = FragmentPlan::forConv(
        1, 1, 2, 4, PolarizationPolicy::WMajor);
    SignMap signs = computeSigns(v, plan);
    EXPECT_EQ(signs.get(0, 0), 1);   // sum = 0.5 >= 0
}

TEST(Polarization, SumRuleFollowsTheFragmentSum)
{
    // The sign flips exactly when the fragment sum crosses zero.
    Tensor w({1, 1, 2, 2});
    w.at(0) = 2.5f; w.at(1) = 0.0f; w.at(2) = -2.0f; w.at(3) = -2.0f;
    WeightView v = WeightView::conv(w);
    FragmentPlan plan = FragmentPlan::forConv(
        1, 1, 2, 4, PolarizationPolicy::WMajor);
    EXPECT_EQ(computeSigns(v, plan).get(0, 0), -1);   // sum = -1.5

    w.at(0) = 3.0f;
    EXPECT_EQ(computeSigns(v, plan).get(0, 0), -1);   // sum = -1.0
    w.at(0) = 5.0f;
    EXPECT_EQ(computeSigns(v, plan).get(0, 0), 1);    // sum = +1.0
}

TEST(Quantization, ResultsLieOnGrid)
{
    Rng rng(7);
    Tensor w({8, 16});
    w.fillGaussian(rng, 0.0f, 0.5f);
    WeightView v = WeightView::dense(w);
    QuantSpec q;
    q.bits = 4;
    const float scale = projectQuantize(v, q);
    ASSERT_GT(scale, 0.0f);
    for (int64_t i = 0; i < w.numel(); ++i) {
        const float ratio = std::fabs(w.at(i)) / scale;
        EXPECT_NEAR(ratio, std::round(ratio), 1e-4);
        EXPECT_LE(ratio, 15.5f);
    }
}

TEST(Quantization, Idempotent)
{
    Rng rng(8);
    Tensor w({4, 4});
    w.fillGaussian(rng, 0.0f, 1.0f);
    WeightView v = WeightView::dense(w);
    QuantSpec q;
    q.bits = 6;
    const float scale = projectQuantize(v, q);
    Tensor once = w;
    q.scale = scale;
    projectQuantize(v, q);
    EXPECT_TRUE(w.equals(once));
}

TEST(Quantization, ErrorBoundedByHalfStep)
{
    Rng rng(9);
    Tensor w({16, 16});
    w.fillGaussian(rng, 0.0f, 1.0f);
    Tensor orig = w;
    WeightView v = WeightView::dense(w);
    QuantSpec q;
    q.bits = 8;
    const float scale = projectQuantize(v, q);
    for (int64_t i = 0; i < w.numel(); ++i)
        EXPECT_LE(std::fabs(w.at(i) - orig.at(i)), scale * 0.5f + 1e-6f);
}

TEST(Quantization, PreservesSignsAndZeros)
{
    Tensor w({1, 4});
    w.at(0) = 0.8f; w.at(1) = -0.8f; w.at(2) = 0.0f; w.at(3) = 1.0f;
    WeightView v = WeightView::dense(w);
    QuantSpec q;
    q.bits = 8;
    projectQuantize(v, q);
    EXPECT_GT(w.at(0), 0.0f);
    EXPECT_LT(w.at(1), 0.0f);
    EXPECT_EQ(w.at(2), 0.0f);
}

TEST(Quantization, QuantizeValueSaturates)
{
    EXPECT_FLOAT_EQ(quantizeValue(100.0f, 1.0f, 4), 15.0f);
    EXPECT_FLOAT_EQ(quantizeValue(-100.0f, 1.0f, 4), -15.0f);
    EXPECT_FLOAT_EQ(quantizeValue(0.0f, 1.0f, 4), 0.0f);
}

} // namespace
} // namespace forms::admm
