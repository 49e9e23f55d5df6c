/**
 * @file
 * Cross-cutting property tests: the full polarize -> map -> execute
 * chain must be integer-exact under every polarization policy and
 * fragment size combination (the training-time fragment definition and
 * the hardware sub-array columns must agree no matter the row
 * ordering), including after pruning compaction.
 */

#include <gtest/gtest.h>

#include "arch/engine.hh"
#include "stats_testutil.hh"

namespace forms {
namespace {

using admm::FragmentPlan;
using admm::PolarizationPolicy;
using admm::WeightView;

struct PreparedLayer
{
    Tensor weight;
    Tensor grad;
    admm::LayerState state;

    PreparedLayer(PolarizationPolicy policy, int frag, bool prune,
                  uint64_t seed)
        : weight({12, 6, 3, 3}), grad({12, 6, 3, 3})
    {
        Rng rng(seed);
        weight.fillGaussian(rng, 0.0f, 0.5f);
        state.name = "xpolicy";
        state.param = {"w", &weight, &grad, true, false};
        state.plan = FragmentPlan::forConv(12, 6, 3, frag, policy);

        WeightView v = WeightView::conv(weight);
        if (prune) {
            admm::PruneSpec spec;
            spec.filterKeep = 0.75;
            spec.shapeKeep = 0.6;
            spec.xbarDim = 1;
            projectStructuredPrune(v, spec);
            state.mask = admm::extractMask(v);
            state.plan = state.plan.restrictedToRows(state.mask->rowKept);
        }
        state.signs = admm::computeSigns(v, state.plan);
        admm::projectPolarization(v, state.plan, *state.signs);
        admm::QuantSpec q;
        q.bits = 8;
        state.quantScale = admm::projectQuantize(v, q);
    }
};

using Param = std::tuple<PolarizationPolicy, int, bool>;

class CrossPolicyTest : public ::testing::TestWithParam<Param>
{
};

TEST_P(CrossPolicyTest, MapAndExecuteExactly)
{
    auto [policy, frag, prune] = GetParam();
    PreparedLayer layer(policy, frag, prune, 7 + frag);

    arch::MappingConfig mcfg;
    mcfg.xbarRows = 32;
    mcfg.xbarCols = 32;
    mcfg.fragSize = frag;
    mcfg.inputBits = 12;
    arch::MappedLayer mapped = arch::mapLayer(layer.state, mcfg);

    arch::EngineConfig ecfg;
    ecfg.adcBits = 0;
    arch::CrossbarEngine engine(mapped, ecfg);

    Rng rng(19);
    std::vector<uint32_t> inputs(54);
    for (auto &v : inputs)
        v = static_cast<uint32_t>(rng.below(1u << 12));

    auto analog = presentOne(engine, inputs);
    auto reference = arch::referenceMvm(mapped, inputs);
    ASSERT_EQ(analog.size(), reference.size());
    for (size_t i = 0; i < analog.size(); ++i)
        EXPECT_DOUBLE_EQ(analog[i], static_cast<double>(reference[i]))
            << "policy=" << policyName(policy) << " frag=" << frag
            << " prune=" << prune << " out=" << i;
}

TEST_P(CrossPolicyTest, MappedAgainstDirectDenseProduct)
{
    // The mapped computation equals the direct quantized dense product
    // regardless of the row permutation the policy applied.
    auto [policy, frag, prune] = GetParam();
    PreparedLayer layer(policy, frag, prune, 23 + frag);

    arch::MappingConfig mcfg;
    mcfg.xbarRows = 32;
    mcfg.xbarCols = 32;
    mcfg.fragSize = frag;
    mcfg.inputBits = 10;
    arch::MappedLayer mapped = arch::mapLayer(layer.state, mcfg);

    Rng rng(29);
    std::vector<uint32_t> inputs(54);
    for (auto &v : inputs)
        v = static_cast<uint32_t>(rng.below(1u << 10));

    auto got = arch::referenceMvm(mapped, inputs);
    const WeightView v = layer.state.view();
    for (int64_t j = 0; j < v.cols(); ++j) {
        int64_t expect = 0;
        for (int64_t r = 0; r < v.rows(); ++r) {
            const float w = v.get(r, j);
            const int64_t mag = static_cast<int64_t>(
                std::llround(std::fabs(w) / mapped.scale));
            const int64_t s = w > 0.0f ? 1 : (w < 0.0f ? -1 : 0);
            expect += s * mag *
                static_cast<int64_t>(inputs[static_cast<size_t>(r)]);
        }
        if (static_cast<size_t>(j) < got.size())
            EXPECT_EQ(got[static_cast<size_t>(j)], expect);
        else
            EXPECT_EQ(expect, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, CrossPolicyTest,
    ::testing::Combine(
        ::testing::Values(PolarizationPolicy::WMajor,
                          PolarizationPolicy::HMajor,
                          PolarizationPolicy::CMajor),
        ::testing::Values(4, 8, 16),
        ::testing::Bool()));

TEST(CrossPolicy, PolicyChangesFragmentMembershipNotResults)
{
    // Different policies group different weights into fragments, so
    // after polarization the surviving weight sets differ — but each
    // mapped result is exact w.r.t. its own polarized weights (covered
    // above). Here: verify the groupings genuinely differ.
    Tensor wa({4, 4, 3, 3}), ga({4, 4, 3, 3});
    Rng rng(31);
    wa.fillGaussian(rng, 0.0f, 1.0f);
    Tensor wb = wa, gb = ga;

    WeightView va = WeightView::conv(wa);
    FragmentPlan pa = FragmentPlan::forConv(
        4, 4, 3, 4, PolarizationPolicy::WMajor);
    projectPolarization(va, pa, computeSigns(va, pa));

    WeightView vb = WeightView::conv(wb);
    FragmentPlan pb = FragmentPlan::forConv(
        4, 4, 3, 4, PolarizationPolicy::CMajor);
    projectPolarization(vb, pb, computeSigns(vb, pb));

    EXPECT_FALSE(wa.equals(wb));
}

} // namespace
} // namespace forms
