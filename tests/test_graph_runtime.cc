/**
 * @file
 * Single-chip PipelineRuntime tests: buildResNetSmall compiles (lower +
 * BN-fold), maps onto simulated crossbars, and runs end to end — with
 * logits AND merged per-node EngineStats bit-identical across 1, 4, and
 * 8 threads, with ADC quantization, device variation and read noise all
 * enabled (the DESIGN.md §3 contract extended to DAG join nodes).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "compile/passes.hh"
#include "nn/zoo.hh"
#include "sim/pipeline_runtime.hh"
#include "stats_testutil.hh"

namespace forms {
namespace {

/** Compile + fold + compress a scaled ResNet, ready to program. */
struct CompiledResNet
{
    std::unique_ptr<nn::Network> net;
    compile::Graph graph;
    std::vector<admm::LayerState> states;

    explicit CompiledResNet(uint64_t seed, int blocks_per_stage = 1)
    {
        Rng rng(seed);
        net = nn::buildResNetSmall(rng, 4, 8, blocks_per_stage);
        graph = compile::lowerNetwork(*net);
        graph.inferShapes({3, 32, 32});
        EXPECT_GT(compile::foldBatchNorm(graph), 0);
        states = sim::snapshotCompress(*net, 8, 8);
    }
};

sim::RuntimeConfig
noisyConfig(ThreadPool *pool)
{
    sim::RuntimeConfig rcfg;
    rcfg.mapping.xbarRows = 64;
    rcfg.mapping.xbarCols = 64;
    rcfg.mapping.fragSize = 8;
    rcfg.mapping.inputBits = 8;
    rcfg.engine.adcBits = 3;
    rcfg.engine.cell.variationSigma = 0.1;
    rcfg.engine.readNoiseSigma = 0.02;
    rcfg.pool = pool;
    return rcfg;
}

TEST(GraphRuntime, ResNetBitIdenticalAcrossThreadCounts)
{
    CompiledResNet c(51);

    Rng rng(52);
    Tensor batch({2, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);

    Tensor ref_logits;
    sim::RuntimeReport ref_rep;
    for (int threads : {1, 4, 8}) {
        ThreadPool pool(threads);
        sim::PipelineRuntime rt(c.graph, c.states, noisyConfig(&pool));
        sim::RuntimeReport rep;
        const Tensor logits = rt.forward(batch, &rep);

        ASSERT_EQ(logits.dim(0), 2);
        ASSERT_EQ(logits.dim(1), 4);
        if (threads == 1) {
            ref_logits = logits;
            ref_rep = rep;
            continue;
        }
        EXPECT_TRUE(logits.equals(ref_logits))
            << "logits diverge on " << threads << " threads";
        ASSERT_EQ(rep.layers.size(), ref_rep.layers.size());
        for (size_t i = 0; i < rep.layers.size(); ++i) {
            EXPECT_EQ(rep.layers[i].name, ref_rep.layers[i].name);
            expectStatsIdentical(rep.layers[i].stats,
                                 ref_rep.layers[i].stats);
        }
        EXPECT_EQ(rep.presentations, ref_rep.presentations);
    }

    // One programmed node per conv/dense: stem + 1 block/stage x
    // (2 convs + proj on stages 1,2) + fc.
    EXPECT_GT(ref_rep.presentations, 0u);
    EXPECT_EQ(ref_rep.layers.size(), 10u);
}

TEST(GraphRuntime, ProgramsEveryMatrixNodeAndReportsAllocation)
{
    CompiledResNet c(61);
    ThreadPool pool(2);
    sim::PipelineRuntime rt(c.graph, c.states, noisyConfig(&pool));

    EXPECT_EQ(rt.nodes(), c.graph.size());
    EXPECT_EQ(rt.programmedNodes(), 10u);
    EXPECT_GT(rt.totalCrossbars(), 0);

    const auto alloc = rt.allocation();
    ASSERT_EQ(alloc.size(), rt.programmedNodes());
    int64_t total = 0;
    for (const auto &a : alloc) {
        EXPECT_FALSE(a.name.empty());
        EXPECT_GT(a.crossbars, 0);
        EXPECT_FALSE(a.outShape.empty());
        total += a.crossbars;
    }
    EXPECT_EQ(total, rt.totalCrossbars());
}

TEST(GraphRuntime, LosslessLogitsTrackFpReferenceOfProjectedWeights)
{
    // With lossless ADCs, no variation/noise and fine input
    // quantization, the crossbar DAG should closely track the FP
    // forward of the *projected* (polarized + weight-quantized)
    // network — which snapshotCompress mutated in place.
    CompiledResNet c(71);

    Rng rng(72);
    Tensor batch({2, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);
    const Tensor fp = c.net->forward(batch, false);

    sim::RuntimeConfig rcfg;
    rcfg.mapping.xbarRows = 64;
    rcfg.mapping.xbarCols = 64;
    rcfg.mapping.fragSize = 8;
    rcfg.mapping.inputBits = 16;
    rcfg.engine.adcBits = 0;
    sim::PipelineRuntime rt(c.graph, c.states, rcfg);
    const Tensor logits = rt.forward(batch);

    ASSERT_EQ(logits.shape(), fp.shape());
    double err = 0.0, mag = 0.0;
    for (int64_t i = 0; i < fp.numel(); ++i) {
        err += std::abs(logits.at(i) - fp.at(i));
        mag += std::abs(fp.at(i));
    }
    ASSERT_GT(mag, 0.0);
    EXPECT_LT(err / mag, 0.05)
        << "mean relative logit error " << err / mag;
}

TEST(GraphRuntime, DigitalScaleFoldTracksFpReference)
{
    // Post-compression folding: BN lands in the digital output stage,
    // the projected weights map unchanged, and the crossbar DAG must
    // track the FP forward of the projected net with its BN layers
    // still live.
    Rng rng(101);
    auto net = nn::buildResNetSmall(rng, 4, 8, 1);
    Rng prng(102);
    for (auto &p : net->params()) {
        if (p.name.find(".gamma") != std::string::npos)
            p.value->fillUniform(prng, 0.6f, 1.4f);
        if (p.name.find(".beta") != std::string::npos)
            p.value->fillUniform(prng, -0.3f, 0.3f);
    }

    auto graph = compile::lowerNetwork(*net);
    graph.inferShapes({3, 32, 32});
    EXPECT_EQ(
        compile::foldBatchNorm(graph, compile::FoldMode::DigitalScale),
        9);
    auto states = sim::snapshotCompress(*net, 8, 8);

    Tensor batch({2, 3, 32, 32});
    batch.fillUniform(prng, 0.0f, 1.0f);
    const Tensor fp = net->forward(batch, false);

    sim::RuntimeConfig rcfg;
    rcfg.mapping.xbarRows = 64;
    rcfg.mapping.xbarCols = 64;
    rcfg.mapping.fragSize = 8;
    rcfg.mapping.inputBits = 16;
    rcfg.engine.adcBits = 0;
    sim::PipelineRuntime rt(graph, states, rcfg);
    const Tensor logits = rt.forward(batch);

    ASSERT_EQ(logits.shape(), fp.shape());
    double err = 0.0, mag = 0.0;
    for (int64_t i = 0; i < fp.numel(); ++i) {
        err += std::abs(logits.at(i) - fp.at(i));
        mag += std::abs(fp.at(i));
    }
    ASSERT_GT(mag, 0.0);
    EXPECT_LT(err / mag, 0.05)
        << "mean relative logit error " << err / mag;
}

TEST(GraphRuntime, ResetPresentationStreamsReproducesNoisyRuns)
{
    CompiledResNet c(81);
    ThreadPool pool(4);
    sim::PipelineRuntime rt(c.graph, c.states, noisyConfig(&pool));

    Rng rng(82);
    Tensor batch({1, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);

    const Tensor first = rt.forward(batch);
    const Tensor drifted = rt.forward(batch);
    EXPECT_FALSE(first.equals(drifted));
    rt.resetPresentationStreams();
    const Tensor replay = rt.forward(batch);
    EXPECT_TRUE(first.equals(replay));
}

TEST(GraphRuntime, ReportAccumulatesAcrossForwards)
{
    CompiledResNet c(91);
    ThreadPool pool(4);
    sim::PipelineRuntime rt(c.graph, c.states, noisyConfig(&pool));

    Rng rng(92);
    Tensor batch({1, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);

    sim::RuntimeReport rep;
    rt.forward(batch, &rep);
    const size_t rows = rep.layers.size();
    const uint64_t pres = rep.presentations;
    rt.forward(batch, &rep);
    EXPECT_EQ(rep.layers.size(), rows);
    EXPECT_EQ(rep.presentations, 2 * pres);
    EXPECT_GT(rep.modelTimeNs(), 0.0);
    EXPECT_GT(rep.modelEnergyPj(), 0.0);
}

TEST(GraphRuntime, AccuracyRunsAndIsBounded)
{
    CompiledResNet c(95);
    ThreadPool pool(4);
    sim::RuntimeConfig rcfg = noisyConfig(&pool);
    sim::PipelineRuntime rt(c.graph, c.states, rcfg);

    Rng rng(96);
    Tensor images({3, 3, 32, 32});
    images.fillUniform(rng, 0.0f, 1.0f);
    const double acc = rt.accuracy(images, {0, 1, 2});
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
}

} // namespace
} // namespace forms
