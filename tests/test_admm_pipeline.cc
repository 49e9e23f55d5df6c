/**
 * @file
 * Integration tests for the ADMM compression pipeline on a small
 * trainable network: every phase establishes its invariant (mask,
 * polarized signs, quantization grid), the combination holds after
 * run(), and accuracy survives compression on an easy task.
 */

#include <gtest/gtest.h>

#include <limits>

#include "admm/report.hh"

namespace forms::admm {
namespace {

struct Fixture
{
    nn::DatasetConfig dataCfg;
    nn::SyntheticImageDataset data;
    std::unique_ptr<nn::Network> net;

    Fixture()
        : dataCfg(makeCfg()), data(dataCfg)
    {
        Rng rng(21);
        net = nn::buildTinyConvNet(rng, dataCfg.classes, 8, 1, 12);
        nn::TrainConfig tc;
        tc.epochs = 6;
        tc.batchSize = 16;
        nn::Trainer trainer(*net, data, tc);
        trainer.run();
    }

    static nn::DatasetConfig
    makeCfg()
    {
        nn::DatasetConfig cfg;
        cfg.classes = 4;
        cfg.channels = 1;
        cfg.height = 12;
        cfg.width = 12;
        cfg.trainPerClass = 32;
        cfg.testPerClass = 16;
        cfg.noise = 0.35f;
        cfg.seed = 99;
        return cfg;
    }

    AdmmConfig
    admmCfg() const
    {
        AdmmConfig cfg;
        cfg.fragSize = 4;
        cfg.xbarDim = 8;
        cfg.filterKeep = 0.75;
        cfg.shapeKeep = 0.75;
        cfg.quantBits = 8;
        cfg.admmEpochsPerPhase = 2;
        cfg.finetuneEpochs = 2;
        cfg.train.batchSize = 16;
        return cfg;
    }
};

TEST(AdmmConfigValidate, EachBadFieldDiesNamingIt)
{
    // Without the check, bad bits or extents trip asserts only inside
    // the training hooks, after epochs of work, and bad keeps are
    // silently clamped (NaN reaches llround).
    const nn::DatasetConfig dcfg = Fixture::makeCfg();
    nn::SyntheticImageDataset data(dcfg);
    Rng rng(23);
    auto net = nn::buildTinyConvNet(rng, dcfg.classes, 8, 1, 12);
    const auto dies = [&](auto field, auto value, const char *name) {
        AdmmConfig cfg;
        cfg.*field = value;
        EXPECT_DEATH(AdmmCompressor(*net, data, cfg),
                     std::string("AdmmConfig::") + name);
    };
    for (int bad : {0, -2})
        dies(&AdmmConfig::fragSize, bad, "fragSize");
    for (int bad : {0, 17, -1})
        dies(&AdmmConfig::quantBits, bad, "quantBits");
    for (int64_t bad : {0, -128})
        dies(&AdmmConfig::xbarDim, bad, "xbarDim");
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad : {nan, inf, -0.5, 0.0, 1.5}) {
        dies(&AdmmConfig::filterKeep, bad, "filterKeep");
        dies(&AdmmConfig::shapeKeep, bad, "shapeKeep");
    }
    dies(&AdmmConfig::admmEpochsPerPhase, -1, "admmEpochsPerPhase");
    dies(&AdmmConfig::finetuneEpochs, -1, "finetuneEpochs");

    AdmmConfig edge;   // the inclusive bounds construct
    edge.fragSize = 1;
    edge.quantBits = 16;
    edge.xbarDim = 1;
    edge.filterKeep = 1.0;
    edge.admmEpochsPerPhase = 0;
    edge.finetuneEpochs = 0;
    AdmmCompressor ok(*net, data, edge);
    EXPECT_FALSE(ok.layers().empty());
}

TEST(AdmmPipeline, FullRunEstablishesAllInvariants)
{
    Fixture f;
    AdmmConfig cfg = f.admmCfg();
    AdmmCompressor comp(*f.net, f.data, cfg);
    auto outcome = comp.run();

    EXPECT_EQ(outcome.signViolations, 0);
    EXPECT_GT(outcome.pruneRatio, 1.0);
    EXPECT_GT(outcome.accuracyBefore, 0.5);

    for (const auto &st : comp.layers()) {
        ASSERT_TRUE(st.mask.has_value());
        ASSERT_TRUE(st.signs.has_value());
        EXPECT_GT(st.quantScale, 0.0f);
        // Weights on the quantization grid.
        const Tensor &w = *st.param.value;
        for (int64_t i = 0; i < w.numel(); ++i) {
            const float ratio = std::fabs(w.at(i)) / st.quantScale;
            EXPECT_NEAR(ratio, std::round(ratio), 1e-3);
        }
    }
}

TEST(AdmmPipeline, AccuracySurvivesCompression)
{
    Fixture f;
    AdmmConfig cfg = f.admmCfg();
    AdmmCompressor comp(*f.net, f.data, cfg);
    auto outcome = comp.run();
    // Paper shape: compression on an easy task costs little accuracy.
    EXPECT_GT(outcome.accuracyAfter, outcome.accuracyBefore - 0.15);
}

TEST(AdmmPipeline, PruneOnlyLeavesSignsFree)
{
    Fixture f;
    AdmmConfig cfg = f.admmCfg();
    cfg.polarize = false;
    cfg.quantize = false;
    AdmmCompressor comp(*f.net, f.data, cfg);
    auto outcome = comp.run();
    EXPECT_GT(outcome.pruneRatio, 1.0);
    for (const auto &st : comp.layers()) {
        EXPECT_TRUE(st.mask.has_value());
        EXPECT_FALSE(st.signs.has_value());
        EXPECT_EQ(st.quantScale, 0.0f);
    }
}

TEST(AdmmPipeline, PolarizeOnlyKeepsDensity)
{
    Fixture f;
    AdmmConfig cfg = f.admmCfg();
    cfg.prune = false;
    cfg.quantize = false;
    AdmmCompressor comp(*f.net, f.data, cfg);
    auto outcome = comp.run();
    EXPECT_EQ(outcome.signViolations, 0);
    EXPECT_DOUBLE_EQ(outcome.pruneRatio, 1.0);
}

TEST(AdmmPipeline, MaskSurvivesLaterPhases)
{
    Fixture f;
    AdmmConfig cfg = f.admmCfg();
    AdmmCompressor comp(*f.net, f.data, cfg);
    comp.run();
    for (const auto &st : comp.layers()) {
        WeightView v = st.view();
        for (int64_t j = 0; j < v.cols(); ++j)
            for (int64_t r = 0; r < v.rows(); ++r)
                if (v.get(r, j) != 0.0f) {
                    EXPECT_TRUE(
                        st.mask->colKept[static_cast<size_t>(j)]);
                    EXPECT_TRUE(
                        st.mask->rowKept[static_cast<size_t>(r)]);
                }
    }
}

TEST(AdmmPipeline, PlanRestrictedAfterPruning)
{
    Fixture f;
    AdmmConfig cfg = f.admmCfg();
    AdmmCompressor comp(*f.net, f.data, cfg);
    comp.run();
    for (const auto &st : comp.layers()) {
        EXPECT_EQ(st.plan.rows(), st.mask->keptRows());
        // Every planned row must be a kept row.
        for (int64_t p = 0; p < st.plan.rows(); ++p) {
            EXPECT_TRUE(st.mask->rowKept[static_cast<size_t>(
                st.plan.orderedRow(p))]);
        }
    }
}

TEST(AdmmPipeline, ReportAccountsCrossbars)
{
    Fixture f;
    AdmmConfig cfg = f.admmCfg();
    AdmmCompressor comp(*f.net, f.data, cfg);
    auto outcome = comp.run();
    auto report = buildReport(comp, outcome,
                              baselineMapping32(8, 8), formsMapping(8, 8, 8));
    EXPECT_GT(report.baselineCrossbars, report.formsCrossbars);
    // Polarization alone halves (splitting baseline) and 32->8 bit
    // quarters; with pruning the reduction must exceed 8x.
    EXPECT_GT(report.crossbarReduction, 8.0);
    EXPECT_EQ(report.layers.size(), comp.layers().size());
}

TEST(CrossbarAccounting, MatchesClosedForm)
{
    MappingSpec spec;
    spec.xbarRows = 128;
    spec.xbarCols = 128;
    spec.weightBits = 8;
    spec.cellBits = 2;
    spec.scheme = SignScheme::PolarizedForms;
    // 300 rows x 100 cols, 4 cells/weight: ceil(300/128)*ceil(400/128)
    EXPECT_EQ(crossbarsForMatrix(300, 100, spec), 3 * 4);
    spec.scheme = SignScheme::Splitting;
    EXPECT_EQ(crossbarsForMatrix(300, 100, spec), 24);
    EXPECT_EQ(crossbarsForMatrix(0, 100, spec), 0);
}

} // namespace
} // namespace forms::admm
