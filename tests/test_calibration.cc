/**
 * @file
 * Calibration subsystem tests: the static activation scale
 * (sim::Calibrator -> compile::CalibrationTable ->
 * arch::ScaleMode::Static) must keep the determinism contract — logits
 * AND EngineStats (including the new saturation counters)
 * bit-identical across thread counts, micro-batch sizes and 1/2/4
 * chip counts, and identical across both executors — with ADC
 * quantization, device variation and read noise enabled. Also:
 * attachTo carries scales (and their input resolution) on the graph
 * itself, a second attach overwrites them, a scale calibrated at
 * another resolution is refused, and the clip counters are exact on
 * synthetic outliers.
 */

#include <gtest/gtest.h>

#include "compile/calibration.hh"
#include "compile/passes.hh"
#include "compile/schedule.hh"
#include "nn/layers.hh"
#include "nn/zoo.hh"
#include "sim/calibrator.hh"
#include "sim/pipeline_runtime.hh"
#include "stats_testutil.hh"

namespace forms {
namespace {

/** ADC quantization + device variation + read noise all on. */
sim::RuntimeConfig
noisyConfig(ThreadPool *pool)
{
    sim::RuntimeConfig cfg;
    cfg.mapping.xbarRows = 64;
    cfg.mapping.xbarCols = 64;
    cfg.mapping.fragSize = 8;
    cfg.mapping.inputBits = 8;
    cfg.engine.adcBits = 3;
    cfg.engine.cell.variationSigma = 0.1;
    cfg.engine.readNoiseSigma = 0.02;
    cfg.pool = pool;
    return cfg;
}

/**
 * Compile + fold + compress a scaled ResNet, calibrate it and attach
 * the table to the graph.
 */
struct CalibratedResNet
{
    std::unique_ptr<nn::Network> net;
    compile::Graph graph;
    std::vector<admm::LayerState> states;
    compile::CalibrationTable table;

    explicit CalibratedResNet(uint64_t seed,
                              sim::CalibPolicy policy =
                                  sim::CalibPolicy::AbsMax)
    {
        Rng rng(seed);
        net = nn::buildResNetSmall(rng, 4, 8, 1);
        graph = compile::lowerNetwork(*net);
        graph.inferShapes({3, 32, 32});
        EXPECT_GT(compile::foldBatchNorm(graph), 0);
        states = sim::snapshotCompress(*net, 8, 8);

        Rng crng(seed + 1);
        Tensor calib({6, 3, 32, 32});
        calib.fillUniform(crng, 0.0f, 1.0f);
        ThreadPool pool(4);
        sim::CalibratorConfig ccfg;
        ccfg.policy = policy;
        {
            sim::Calibrator cal(graph, states, noisyConfig(&pool), ccfg);
            cal.observe(calib);
            EXPECT_EQ(cal.images(), 6);
            table = cal.table();
        }
        table.attachTo(graph);
    }
};

/** noisyConfig on the graph-attached static scales. */
sim::RuntimeConfig
staticConfig(ThreadPool *pool)
{
    sim::RuntimeConfig cfg = noisyConfig(pool);
    cfg.scaleMode = arch::ScaleMode::Static;
    return cfg;
}

TEST(Calibrator, TableCoversEveryProgrammedNodeWithPositiveScales)
{
    CalibratedResNet c(501);
    ThreadPool pool(2);
    sim::PipelineRuntime rt(c.graph, c.states, noisyConfig(&pool));
    EXPECT_EQ(c.table.size(), rt.programmedNodes());
    EXPECT_EQ(c.table.inputBits(), 8);
    for (const auto &e : c.table.entries()) {
        EXPECT_GT(e.scale, 0.0f) << e.node;
        EXPECT_GT(e.range, 0.0f) << e.node;
        EXPECT_GT(e.observations, 0u) << e.node;
        EXPECT_FLOAT_EQ(e.scale, e.range / 255.0f) << e.node;
    }
}

TEST(Calibrator, PercentileRangeNeverExceedsAbsMax)
{
    CalibratedResNet absmax(511, sim::CalibPolicy::AbsMax);
    CalibratedResNet pct(511, sim::CalibPolicy::Percentile);
    ASSERT_EQ(absmax.table.size(), pct.table.size());
    for (const auto &e : absmax.table.entries()) {
        const compile::CalibEntry *p = pct.table.find(e.node);
        ASSERT_NE(p, nullptr);
        EXPECT_LE(p->range, e.range) << e.node;
    }
}

TEST(Calibration, StaticBitIdenticalAcrossThreadsMicroBatchesAndChips)
{
    CalibratedResNet c(521);
    Rng rng(522);
    Tensor batch({4, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);

    // Reference: single-chip runtime, one thread.
    Tensor ref_logits;
    std::vector<arch::EngineStats> ref_stats;
    {
        ThreadPool pool(1);
        sim::PipelineRuntime rt(c.graph, c.states,
                             staticConfig(&pool));
        sim::RuntimeReport rep;
        ref_logits = rt.forward(batch, &rep);
        for (const auto &l : rep.layers)
            ref_stats.push_back(l.stats);
        ASSERT_EQ(ref_stats.size(), 10u);
        // The static grid actually runs statically: values were
        // quantized, and the counters merged.
        uint64_t values = 0;
        for (const auto &s : ref_stats)
            values += s.quantValues;
        EXPECT_GT(values, 0u);
    }

    struct Case
    {
        int threads, chips, microBatch;
    };
    const Case cases[] = {
        {4, 1, 2}, {8, 1, 4},            // thread counts, 1 chip
        {4, 2, 1}, {4, 2, 3}, {8, 2, 2}, // micro-batch sizes (3: ragged)
        {4, 4, 2}, {1, 4, 1},            // chip counts
    };
    for (const Case &k : cases) {
        ThreadPool pool(k.threads);
        compile::ScheduleConfig scfg;
        scfg.chips = k.chips;
        sim::PipelineRuntimeConfig pcfg;
        pcfg.runtime = staticConfig(&pool);
        pcfg.microBatch = k.microBatch;
        sim::PipelineRuntime rt(c.graph,
                                compile::Schedule::partition(c.graph,
                                                             scfg),
                                c.states, pcfg);
        sim::PipelineReport rep;
        const Tensor logits = rt.forward(batch, &rep);
        EXPECT_TRUE(logits.equals(ref_logits))
            << "static logits diverge at threads=" << k.threads
            << " chips=" << k.chips << " microBatch=" << k.microBatch;
        ASSERT_EQ(rep.nodes.layers.size(), ref_stats.size());
        for (size_t i = 0; i < ref_stats.size(); ++i)
            expectStatsIdentical(rep.nodes.layers[i].stats,
                                 ref_stats[i]);
    }
}

TEST(Calibration, GraphAndPipelineRuntimesAgreeBitwiseOnAStraightLineNet)
{
    // Straight-line net: the single-chip and the pipelined
    // runtime must produce identical logits and stats from the same
    // static calibration table.
    Rng rng(531);
    nn::Network net;
    net.emplace<nn::Conv2D>("conv1", 1, 8, 3, 1, 1, rng);
    net.emplace<nn::ReLU>("relu1");
    net.emplace<nn::MaxPool2D>("pool1", 2, 2);
    net.emplace<nn::Conv2D>("conv2", 8, 8, 3, 1, 1, rng);
    net.emplace<nn::ReLU>("relu2");
    net.emplace<nn::Flatten>("flat");
    net.emplace<nn::Dense>("fc", 8 * 6 * 6, 4, rng);

    auto graph = compile::lowerNetwork(net);
    graph.inferShapes({1, 12, 12});
    auto states = sim::snapshotCompress(net, 8, 8);

    ThreadPool pool(4);
    Rng crng(532);
    Tensor calib({4, 1, 12, 12});
    calib.fillUniform(crng, 0.0f, 1.0f);
    compile::CalibrationTable table;
    {
        sim::Calibrator cal(graph, states, noisyConfig(&pool), {});
        cal.observe(calib);
        table = cal.table();
    }
    table.attachTo(graph);

    Tensor batch({3, 1, 12, 12});
    batch.fillUniform(crng, 0.0f, 1.0f);

    sim::PipelineRuntime gr(graph, states, staticConfig(&pool));
    sim::RuntimeReport grep;
    const Tensor b = gr.forward(batch, &grep);

    compile::ScheduleConfig scfg;
    scfg.chips = 2;
    sim::PipelineRuntimeConfig pcfg;
    pcfg.runtime = staticConfig(&pool);
    pcfg.microBatch = 2;
    sim::PipelineRuntime pr(graph,
                            compile::Schedule::partition(graph, scfg),
                            states, pcfg);
    sim::PipelineReport prep;
    const Tensor cc = pr.forward(batch, &prep);

    EXPECT_TRUE(b.equals(cc));
    ASSERT_EQ(grep.layers.size(), prep.nodes.layers.size());
    for (size_t i = 0; i < grep.layers.size(); ++i)
        expectStatsIdentical(grep.layers[i].stats,
                             prep.nodes.layers[i].stats);
}

TEST(CalibrationTable, AttachToStampsEicDensities)
{
    CalibratedResNet c(581);
    const float bits = static_cast<float>(c.table.inputBits());
    size_t stamped = 0;
    for (int id = 0; id < c.graph.capacity(); ++id) {
        if (!c.graph.alive(id))
            continue;
        const compile::Node &n = c.graph.node(id);
        if (n.op != compile::Op::Conv && n.op != compile::Op::Dense)
            continue;
        const compile::CalibEntry *e = c.table.find(n.name);
        ASSERT_NE(e, nullptr) << n.name;
        ASSERT_GT(e->eicFragments, 0u) << n.name;
        EXPECT_EQ(n.eicDensity, e->avgEic / bits) << n.name;
        EXPECT_GT(n.eicDensity, 0.0f) << n.name;
        EXPECT_LE(n.eicDensity, 1.0f) << n.name;
        ++stamped;
    }
    EXPECT_GT(stamped, 0u);
    EXPECT_NE(c.graph.dump().find("eic_density="), std::string::npos);
}

/** Every matrix node's attached scale and resolution equal `t`'s. */
void
expectAttached(const compile::Graph &g, const compile::CalibrationTable &t)
{
    for (int id = 0; id < g.capacity(); ++id) {
        if (!g.alive(id))
            continue;
        const compile::Node &n = g.node(id);
        if (n.op != compile::Op::Conv && n.op != compile::Op::Dense)
            continue;
        const compile::CalibEntry *e = t.find(n.name);
        ASSERT_NE(e, nullptr) << n.name;
        EXPECT_EQ(n.inScale, e->scale) << n.name;
        EXPECT_EQ(n.inBits, t.inputBits()) << n.name;
    }
}

TEST(CalibrationTable, AttachToCarriesScalesOnTheGraph)
{
    CalibratedResNet c(551);
    expectAttached(c.graph, c.table);
    EXPECT_NE(c.graph.dump().find("in_scale="), std::string::npos);

    // A second table attached over the first overwrites every scale:
    // the re-attached graph runs bit-identically to a graph that only
    // ever carried the second table.
    CalibratedResNet pct(551, sim::CalibPolicy::Percentile);
    size_t moved = 0;
    for (const compile::CalibEntry &e : c.table.entries())
        moved += pct.table.find(e.node)->scale != e.scale;
    ASSERT_GT(moved, 0u) << "the two policies calibrated equal scales";
    pct.table.attachTo(c.graph);
    expectAttached(c.graph, pct.table);

    Rng rng(552);
    Tensor batch({2, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);
    ThreadPool pool(4);
    sim::PipelineRuntime rt_reattached(c.graph, c.states, staticConfig(&pool));
    sim::PipelineRuntime rt_pct(pct.graph, pct.states, staticConfig(&pool));
    EXPECT_TRUE(
        rt_reattached.forward(batch).equals(rt_pct.forward(batch)));
}

TEST(CalibrationTable, MismatchedInputGridIsFatalAtConstruction)
{
    // Scales calibrated for one DAC resolution must not silently
    // deploy on another: they would mis-span the grid.
    CalibratedResNet c(571);
    ThreadPool pool(2);
    sim::RuntimeConfig cfg = staticConfig(&pool);
    cfg.mapping.inputBits = 4;   // the table was calibrated at 8
    EXPECT_DEATH(sim::PipelineRuntime(c.graph, c.states, cfg),
                 "stage '.+' carries a scale calibrated at 8 input bits "
                 "but the mapping uses 4");
}

TEST(SaturationCounters, ExactOnSyntheticOutliers)
{
    // 4 presentations of 8 values each, quantized on a grid whose
    // range is 1.0 at 8 bits (scale = 1/255). Values > range + half a
    // step saturate; exactly 3 such outliers are planted.
    ThreadPool pool(2);
    const int64_t count = 4, rows = 8;
    std::vector<float> data(static_cast<size_t>(count * rows), 0.25f);
    data[3] = 2.0f;    // presentation 0
    data[9] = 7.5f;    // presentation 1
    data[26] = 1.5f;   // presentation 3
    data[11] = -3.0f;  // negative: maps to 0, never clips
    data[30] = 1.0f;   // exactly at range: not a clip

    sim::StageScale sc;
    sc.mode = arch::ScaleMode::Static;
    sc.staticScale = 1.0f / 255.0f;
    std::vector<float> scales;
    arch::EngineStats stats;
    auto q = sim::quantizePresentations(pool, count, rows, 8, sc,
                                        scales, data.data(),
                                        /*j_stride=*/rows,
                                        /*r_stride=*/1, &stats);

    EXPECT_EQ(stats.quantValues, static_cast<uint64_t>(count * rows));
    EXPECT_EQ(stats.quantClipped, 3u);
    EXPECT_DOUBLE_EQ(stats.clipFraction(), 3.0 / 32.0);
    ASSERT_EQ(q.size(), 4u);
    EXPECT_EQ(q[0][3], 255u);
    EXPECT_EQ(q[1][1], 255u);
    EXPECT_EQ(q[3][2], 255u);
    EXPECT_EQ(q[1][3], 0u);    // the negative value
    EXPECT_EQ(q[3][6], 255u);  // at-range value hits the top code
    EXPECT_EQ(q[0][0], 64u);   // 0.25 / (1/255) = 63.75 -> 64
    for (float s : scales)
        EXPECT_EQ(s, 1.0f / 255.0f);

    // Per-presentation mode never clips and counts the same values.
    sim::StageScale per;
    arch::EngineStats pstats;
    auto qp = sim::quantizePresentations(pool, count, rows, 8, per,
                                         scales, data.data(), rows, 1,
                                         &pstats);
    EXPECT_EQ(pstats.quantValues, static_cast<uint64_t>(count * rows));
    EXPECT_EQ(pstats.quantClipped, 0u);
    EXPECT_EQ(pstats.clipFraction(), 0.0);
}

TEST(SaturationCounters, SurfaceThroughRuntimeReportsOnOutlierBatches)
{
    CalibratedResNet c(561);
    ThreadPool pool(4);
    sim::PipelineRuntime rt(c.graph, c.states,
                         staticConfig(&pool));

    // In-range batch: the abs-max table was calibrated on [0,1)
    // uniform inputs, so a similar batch should barely clip.
    Rng rng(562);
    Tensor normal({2, 3, 32, 32});
    normal.fillUniform(rng, 0.0f, 1.0f);
    sim::RuntimeReport normal_rep;
    rt.forward(normal, &normal_rep);

    // Outlier batch: 10x the calibrated dynamic range must saturate
    // the first conv's grid.
    Tensor outlier({2, 3, 32, 32});
    outlier.fillUniform(rng, 0.0f, 10.0f);
    sim::PipelineRuntime rt2(c.graph, c.states,
                          staticConfig(&pool));
    sim::RuntimeReport outlier_rep;
    rt2.forward(outlier, &outlier_rep);

    uint64_t normal_clips = 0, outlier_clips = 0;
    for (const auto &l : normal_rep.layers)
        normal_clips += l.stats.quantClipped;
    for (const auto &l : outlier_rep.layers)
        outlier_clips += l.stats.quantClipped;
    EXPECT_GT(outlier_rep.layers[0].stats.quantClipped, 0u);
    EXPECT_GT(outlier_clips, normal_clips);

    // The idealized mode never clips anything.
    sim::PipelineRuntime ideal(c.graph, c.states, noisyConfig(&pool));
    sim::RuntimeReport ideal_rep;
    ideal.forward(outlier, &ideal_rep);
    for (const auto &l : ideal_rep.layers) {
        EXPECT_EQ(l.stats.quantClipped, 0u);
        EXPECT_GT(l.stats.quantValues, 0u);
    }
}

} // namespace
} // namespace forms
