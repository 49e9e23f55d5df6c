/**
 * @file
 * Tests for the weight-to-crossbar mapper: crossbar counts against the
 * closed form and the analytic count the paper's tables use,
 * fragment/sign integrity, pruning compaction, and the integer
 * reference MVM against a direct dense computation.
 */

#include <gtest/gtest.h>

#include <string>

#include "admm/report.hh"
#include "arch/mapping.hh"
#include "sim/perf_model.hh"

namespace forms::arch {
namespace {

using admm::FragmentPlan;
using admm::PolarizationPolicy;
using admm::WeightView;

/** Self-contained layer state for mapper tests. */
struct TestLayer
{
    Tensor weight;
    Tensor grad;
    admm::LayerState state;

    TestLayer(int cout, int cin, int k, int frag, uint64_t seed,
              bool prune = false)
        : weight({cout, cin, k, k}), grad({cout, cin, k, k})
    {
        Rng rng(seed);
        weight.fillGaussian(rng, 0.0f, 0.5f);

        state.name = "test";
        state.param = {"test.weight", &weight, &grad, true, false};
        state.plan = FragmentPlan::forConv(cout, cin, k, frag,
                                           PolarizationPolicy::WMajor);

        WeightView v = WeightView::conv(weight);
        if (prune) {
            admm::PruneSpec spec;
            spec.filterKeep = 0.5;
            spec.shapeKeep = 0.75;
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

MappingConfig
smallConfig(int frag)
{
    MappingConfig cfg;
    cfg.xbarRows = 16;
    cfg.xbarCols = 16;
    cfg.cellBits = 2;
    cfg.weightBits = 8;
    cfg.fragSize = frag;
    return cfg;
}

TEST(Mapping, CrossbarCountMatchesClosedForm)
{
    TestLayer layer(12, 4, 3, 4, 1);
    MappingConfig cfg = smallConfig(4);
    MappedLayer mapped = mapLayer(layer.state, cfg);
    // rows = 36 -> ceil(36/16) = 3; weight cols/xbar = 16/4 = 4,
    // cols = 12 -> ceil(12/4) = 3.
    EXPECT_EQ(mapped.numCrossbars(), 9);
    EXPECT_EQ(mapped.logicalRows, 36);
    EXPECT_EQ(mapped.logicalCols, 12);
}

/**
 * The crossbar count behind Tables I/II and Figs. 13/14 —
 * admm::crossbarsForMatrix, which sim::PerfModel::layerPerf prices —
 * equals the crossbars the mapper programs, unpruned and structurally
 * pruned, on every geometry where a weight's cells tile a crossbar's
 * columns. Elsewhere the two rules differ by design (DESIGN.md §2).
 */
TEST(Crossbars, AnalyticCountEqualsMapper)
{
    const sim::PerfModel model;
    const struct
    {
        int cout, cin, k;
    } shapes[] = {{12, 4, 3}, {40, 16, 3}, {70, 30, 1}};
    for (const auto &sh : shapes)
        for (bool prune : {false, true}) {
            const TestLayer layer(sh.cout, sh.cin, sh.k, 8, 5, prune);
            const int64_t rows =
                prune ? layer.state.mask->keptRows() : sh.cin * sh.k * sh.k;
            const int64_t cols =
                prune ? layer.state.mask->keptCols() : sh.cout;
            sim::LayerSpec spec;
            spec.conv = false;
            spec.inC = rows;
            spec.outC = cols;
            for (int cell_bits : {1, 2, 4})
                for (int weight_bits : {4, 8, 16})
                    for (int xbar : {16, 64, 128}) {
                        SCOPED_TRACE(testing::Message()
                                     << sh.cout << "x" << sh.cin << "x"
                                     << sh.k << " prune " << prune
                                     << " cellBits " << cell_bits
                                     << " weightBits " << weight_bits
                                     << " xbar " << xbar);
                        ASSERT_EQ(xbar % reram::cellsPerWeight(weight_bits,
                                                               cell_bits),
                                  0);
                        MappingConfig cfg;
                        cfg.xbarRows = cfg.xbarCols = xbar;
                        cfg.cellBits = cell_bits;
                        cfg.weightBits = weight_bits;
                        cfg.fragSize = 8;
                        const int64_t mapped =
                            mapLayer(layer.state, cfg).numCrossbars();
                        EXPECT_EQ(admm::crossbarsForMatrix(
                                      rows, cols,
                                      {xbar, xbar, weight_bits, cell_bits,
                                       admm::SignScheme::PolarizedForms}),
                                  mapped);

                        sim::ArchModel a =
                            sim::ArchModel::formsPolarizationOnly(8);
                        a.zeroSkip = false;
                        a.weightBits = weight_bits;
                        a.mcu.xbarRows = a.mcu.xbarCols = xbar;
                        a.mcu.cellBits = cell_bits;
                        EXPECT_EQ(model.layerPerf(a, spec, nullptr).crossbars,
                                  mapped);
                    }
        }

    // Where cells do not tile the columns, the analytic rule packs a
    // weight's cells across crossbars and the mapper fits whole
    // weights: 128 weights of 3 cells on 128 columns make 3 against 4.
    const TestLayer wide(128, 4, 3, 8, 6);
    MappingConfig cfg;
    cfg.cellBits = 3;
    EXPECT_EQ(admm::crossbarsForMatrix(36, 128,
                                       {128, 128, 8, 3,
                                        admm::SignScheme::PolarizedForms}),
              3);
    EXPECT_EQ(mapLayer(wide.state, cfg).numCrossbars(), 4);
}

TEST(Mapping, PruningShrinksTheGrid)
{
    TestLayer dense_layer(12, 4, 3, 4, 2, false);
    TestLayer pruned_layer(12, 4, 3, 4, 2, true);
    MappingConfig cfg = smallConfig(4);
    EXPECT_LT(mapLayer(pruned_layer.state, cfg).numCrossbars(),
              mapLayer(dense_layer.state, cfg).numCrossbars());
}

TEST(Mapping, MagnitudesFitWeightBits)
{
    TestLayer layer(8, 4, 3, 4, 3);
    MappedLayer mapped = mapLayer(layer.state, smallConfig(4));
    for (const auto &xb : mapped.crossbars)
        for (uint32_t m : xb.magnitude)
            EXPECT_LE(m, 255u);
}

TEST(Mapping, FragmentSignsAreInternallyConsistent)
{
    TestLayer layer(8, 4, 3, 4, 4);
    MappedLayer mapped = mapLayer(layer.state, smallConfig(4));
    const WeightView v = layer.state.view();
    for (const auto &xb : mapped.crossbars) {
        for (int wc = 0; wc < xb.weightCols; ++wc) {
            const int j = xb.outputIndex[static_cast<size_t>(wc)];
            for (int f = 0; f < xb.fragsUsed; ++f) {
                const int8_t s = xb.sign(wc, f);
                for (int r = f * 4;
                     r < std::min(xb.rows, (f + 1) * 4); ++r) {
                    const float w = v.get(
                        xb.inputIndex[static_cast<size_t>(r)], j);
                    if (w > 0.0f)
                        EXPECT_EQ(s, 1);
                    else if (w < 0.0f)
                        EXPECT_EQ(s, -1);
                }
            }
        }
    }
}

TEST(Mapping, ReferenceMvmMatchesDenseComputation)
{
    TestLayer layer(10, 3, 3, 4, 5, true);
    MappingConfig cfg = smallConfig(4);
    MappedLayer mapped = mapLayer(layer.state, cfg);

    // Quantized random inputs over the full natural index space.
    Rng rng(6);
    std::vector<uint32_t> inputs(27);
    for (auto &v : inputs)
        v = static_cast<uint32_t>(rng.below(1u << 10));

    auto got = referenceMvm(mapped, inputs);

    // Direct dense computation from the quantized weights.
    const WeightView v = layer.state.view();
    for (int64_t j = 0; j < v.cols(); ++j) {
        int64_t expect = 0;
        for (int64_t r = 0; r < v.rows(); ++r) {
            const float w = v.get(r, j);
            const int64_t mag = static_cast<int64_t>(
                std::llround(std::fabs(w) / mapped.scale));
            const int64_t sgn = w > 0.0f ? 1 : (w < 0.0f ? -1 : 0);
            expect += sgn * mag *
                static_cast<int64_t>(inputs[static_cast<size_t>(r)]);
        }
        if (static_cast<size_t>(j) < got.size())
            EXPECT_EQ(got[static_cast<size_t>(j)], expect)
                << "output " << j;
        else
            EXPECT_EQ(expect, 0);
    }
}

TEST(Mapping, InputAndOutputIndicesAreValid)
{
    TestLayer layer(12, 4, 3, 8, 7, true);
    MappingConfig cfg = smallConfig(8);
    MappedLayer mapped = mapLayer(layer.state, cfg);
    for (const auto &xb : mapped.crossbars) {
        for (int idx : xb.inputIndex) {
            EXPECT_GE(idx, 0);
            EXPECT_LT(idx, 36);
            EXPECT_TRUE(layer.state.mask->rowKept[
                            static_cast<size_t>(idx)]);
        }
        for (int idx : xb.outputIndex) {
            EXPECT_GE(idx, 0);
            EXPECT_LT(idx, 12);
            EXPECT_TRUE(layer.state.mask->colKept[
                            static_cast<size_t>(idx)]);
        }
    }
}

TEST(Mapping, RejectsFragmentSizeMismatch)
{
    TestLayer layer(4, 2, 3, 4, 8);
    MappingConfig cfg = smallConfig(8);   // plan built with frag 4
    EXPECT_DEATH(mapLayer(layer.state, cfg), "");
}

TEST(Mapping, ValidateNamesTheBadField)
{
    struct Case
    {
        const char *field;
        void (*spoil)(MappingConfig &);
    };
    const Case cases[] = {
        {"cellBits", [](MappingConfig &c) { c.cellBits = 0; }},
        {"cellBits", [](MappingConfig &c) { c.cellBits = 9; }},
        {"weightBits", [](MappingConfig &c) { c.weightBits = 0; }},
        {"weightBits", [](MappingConfig &c) { c.weightBits = 32; }},
        {"inputBits", [](MappingConfig &c) { c.inputBits = 0; }},
        {"inputBits", [](MappingConfig &c) { c.inputBits = 32; }},
        {"fragSize", [](MappingConfig &c) { c.fragSize = 0; }},
        {"fragSize", [](MappingConfig &c) { c.fragSize = 3; }},
        {"xbarRows", [](MappingConfig &c) { c.xbarRows = 0; }},
        {"xbarCols", [](MappingConfig &c) { c.xbarCols = 3; }},
        {"spareXbars", [](MappingConfig &c) { c.spareXbars = -1; }},
    };
    for (const Case &k : cases) {
        MappingConfig cfg = smallConfig(4);
        k.spoil(cfg);
        EXPECT_DEATH(cfg.validate(),
                     std::string("MappingConfig::.*") + k.field)
            << k.field;
    }
    smallConfig(4).validate();
}

TEST(Mapping, ZeroFragmentSizeDiesWithItsNameNotSigfpe)
{
    // xbarRows % fragSize would divide by zero before any other check.
    TestLayer layer(4, 2, 3, 4, 8);
    MappingConfig cfg = smallConfig(4);
    cfg.fragSize = 0;
    EXPECT_DEATH(mapLayer(layer.state, cfg), "MappingConfig::fragSize");
}

} // namespace
} // namespace forms::arch
