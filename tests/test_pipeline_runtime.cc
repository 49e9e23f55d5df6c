/**
 * @file
 * PipelineRuntime tests: the multi-chip pipelined executor must hold
 * the DESIGN.md §5 contract — logits and per-node EngineStats
 * bit-identical across thread counts (1/4/8), micro-batch sizes,
 * chip counts AND stage-replication factors, and bit-identical to
 * the single-chip runtime — with ADC quantization, device
 * variation and read noise all enabled. The intra-chip tile pipeline
 * is a timing model only: toggling it must change makespans, never
 * numbers.
 */

#include <gtest/gtest.h>

#include "compile/passes.hh"
#include "nn/layers.hh"
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

    explicit CompiledResNet(uint64_t seed)
    {
        Rng rng(seed);
        net = nn::buildResNetSmall(rng, 4, 8, 1);
        graph = compile::lowerNetwork(*net);
        graph.inferShapes({3, 32, 32});
        EXPECT_GT(compile::foldBatchNorm(graph), 0);
        states = sim::snapshotCompress(*net, 8, 8);
    }
};

/**
 * Compile + compress a stem-dominated straight-line net: the stem
 * conv carries ~3x the ideal per-chip work share, so the partitioner
 * provably cannot balance it with contiguous cuts — the shape that
 * makes the DP choose a replicated stage.
 */
struct CompiledStemHeavy
{
    std::unique_ptr<nn::Network> net;
    compile::Graph graph;
    std::vector<admm::LayerState> states;

    explicit CompiledStemHeavy(uint64_t seed)
    {
        Rng rng(seed);
        net = std::make_unique<nn::Network>();
        net->emplace<nn::Conv2D>("stem", 3, 16, 3, 1, 1, rng);
        net->emplace<nn::ReLU>("stem_relu");
        net->emplace<nn::MaxPool2D>("pool", 2, 2);
        net->emplace<nn::Conv2D>("mid", 16, 4, 3, 1, 1, rng);
        net->emplace<nn::ReLU>("mid_relu");
        net->emplace<nn::Flatten>("flat");
        net->emplace<nn::Dense>("fc", 4 * 16 * 16, 4, rng);
        graph = compile::lowerNetwork(*net);
        graph.inferShapes({3, 32, 32});
        states = sim::snapshotCompress(*net, 8, 8);
    }
};

/** ADC quantization + device variation + read noise all on. */
sim::PipelineRuntimeConfig
noisyConfig(ThreadPool *pool, int micro_batch)
{
    sim::PipelineRuntimeConfig cfg;
    cfg.runtime.mapping.xbarRows = 64;
    cfg.runtime.mapping.xbarCols = 64;
    cfg.runtime.mapping.fragSize = 8;
    cfg.runtime.mapping.inputBits = 8;
    cfg.runtime.engine.adcBits = 3;
    cfg.runtime.engine.cell.variationSigma = 0.1;
    cfg.runtime.engine.readNoiseSigma = 0.02;
    cfg.runtime.pool = pool;
    cfg.microBatch = micro_batch;
    return cfg;
}

compile::Schedule
partitionFor(const compile::Graph &g, int chips,
             double replicate_threshold = 0.0, int max_replicas = 4)
{
    compile::ScheduleConfig scfg;
    scfg.chips = chips;
    scfg.replicateThreshold = replicate_threshold;
    scfg.maxReplicas = max_replicas;
    return compile::Schedule::partition(g, scfg);
}

TEST(PipelineRuntime, OneChipMatchesGraphRuntimeBitwise)
{
    CompiledResNet c(111);
    Rng rng(112);
    Tensor batch({4, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);

    ThreadPool pool(4);
    sim::RuntimeConfig gcfg = noisyConfig(&pool, 1).runtime;
    sim::PipelineRuntime gr(c.graph, c.states, gcfg);
    sim::RuntimeReport grep;
    const Tensor ref = gr.forward(batch, &grep);

    // Micro-batched single-chip pipeline: same logits, same per-node
    // rows, bit for bit.
    sim::PipelineRuntime pr(c.graph, partitionFor(c.graph, 1), c.states,
                            noisyConfig(&pool, 2));
    sim::PipelineReport prep;
    const Tensor got = pr.forward(batch, &prep);

    EXPECT_TRUE(got.equals(ref));
    ASSERT_EQ(prep.nodes.layers.size(), grep.layers.size());
    for (size_t i = 0; i < grep.layers.size(); ++i) {
        EXPECT_EQ(prep.nodes.layers[i].name, grep.layers[i].name);
        expectStatsIdentical(prep.nodes.layers[i].stats,
                             grep.layers[i].stats);
    }
    EXPECT_EQ(prep.nodes.presentations, grep.presentations);

    // One chip, no transfers: the pipeline degenerates to serial
    // execution with zero bubbles.
    ASSERT_EQ(prep.chips.size(), 1u);
    EXPECT_EQ(prep.transferNs, 0.0);
    EXPECT_NEAR(prep.bubbleFraction, 0.0, 1e-12);
    EXPECT_NEAR(prep.chips[0].utilization, 1.0, 1e-12);
}

TEST(PipelineRuntime, BitIdenticalAcrossThreadsMicroBatchesAndChips)
{
    CompiledResNet c(121);
    Rng rng(122);
    Tensor batch({4, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);

    // Reference: 2 chips, micro-batch 2, single thread, no replication.
    Tensor ref_logits;
    std::vector<arch::EngineStats> ref_stats;
    auto run = [&](int threads, int chips, int micro_batch,
                   double threshold, sim::PipelineReport *rep) {
        ThreadPool pool(threads);
        sim::PipelineRuntime rt(c.graph,
                                partitionFor(c.graph, chips, threshold),
                                c.states,
                                noisyConfig(&pool, micro_batch));
        return rt.forward(batch, rep);
    };
    {
        sim::PipelineReport rep;
        ref_logits = run(1, 2, 2, 0.0, &rep);
        for (const auto &l : rep.nodes.layers)
            ref_stats.push_back(l.stats);
        ASSERT_EQ(ref_stats.size(), 10u);
    }

    struct Case
    {
        int threads, chips, microBatch;
        double threshold;   //!< > 0 enables stage replication
    };
    const Case cases[] = {
        {4, 2, 2, 0.0}, {8, 2, 2, 0.0},   // thread counts
        {4, 2, 1, 0.0}, {4, 2, 4, 0.0},
        {4, 2, 3, 0.0},                   // micro-batch sizes (3: ragged)
        {4, 1, 2, 0.0}, {4, 4, 2, 0.0},   // chip counts
        {4, 4, 2, 0.6}, {4, 4, 3, 0.6},   // replicated stages
        {1, 3, 2, 0.8}, {8, 4, 1, 0.4},   // replication x threads/mb
    };
    for (const Case &k : cases) {
        sim::PipelineReport rep;
        const Tensor logits =
            run(k.threads, k.chips, k.microBatch, k.threshold, &rep);
        EXPECT_TRUE(logits.equals(ref_logits))
            << "logits diverge at threads=" << k.threads
            << " chips=" << k.chips << " microBatch=" << k.microBatch
            << " threshold=" << k.threshold;
        ASSERT_EQ(rep.nodes.layers.size(), ref_stats.size());
        for (size_t i = 0; i < ref_stats.size(); ++i)
            expectStatsIdentical(rep.nodes.layers[i].stats,
                                 ref_stats[i]);
    }
}

TEST(PipelineRuntime, ReplicatedStagesStayBitIdenticalToGraphRuntime)
{
    CompiledStemHeavy c(161);
    Rng rng(162);
    Tensor batch({5, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);

    ThreadPool pool(4);
    sim::PipelineRuntime gr(c.graph, c.states, noisyConfig(&pool, 1).runtime);
    sim::RuntimeReport grep;
    const Tensor ref = gr.forward(batch, &grep);

    // The stem dwarfs the ideal share, so the DP replicates it.
    const auto sched = partitionFor(c.graph, 4, 1.0, 3);
    ASSERT_TRUE(sched.replicated());
    sim::PipelineRuntime pr(c.graph, sched, c.states,
                            noisyConfig(&pool, 2));
    sim::PipelineReport prep;
    const Tensor got = pr.forward(batch, &prep);

    EXPECT_TRUE(got.equals(ref));
    ASSERT_EQ(prep.nodes.layers.size(), grep.layers.size());
    for (size_t i = 0; i < grep.layers.size(); ++i) {
        EXPECT_EQ(prep.nodes.layers[i].name, grep.layers[i].name);
        expectStatsIdentical(prep.nodes.layers[i].stats,
                             grep.layers[i].stats);
    }

    // The report reflects the replicated shape: fewer stages than
    // chips, and every chip of a wide stage shows the same stage id.
    EXPECT_LT(prep.stages, pr.chips());
    ASSERT_EQ(prep.chips.size(), static_cast<size_t>(pr.chips()));
    bool wide_seen = false;
    for (const auto &ch : prep.chips) {
        EXPECT_GE(ch.replicas, 1);
        if (ch.replicas > 1)
            wide_seen = true;
    }
    EXPECT_TRUE(wide_seen);

    // Crossbar accounting counts every replica: the per-chip sums, the
    // runtime total and the allocation times each node's stage width
    // agree, and every chip of a wide stage holds the anchor's copy.
    int64_t chip_crossbars = 0;
    size_t chip_programmed = 0;
    for (const auto &ch : prep.chips) {
        chip_crossbars += ch.crossbars;
        chip_programmed += ch.programmedNodes;
    }
    int64_t alloc_crossbars = 0;
    size_t widths = 0;
    for (const sim::GraphNodeAlloc &a : pr.allocation()) {
        const int s = sched.stageOf(a.nodeId);
        const int width = sched.stageWidth(s);
        alloc_crossbars += a.crossbars * width;
        widths += static_cast<size_t>(width);
        if (width == 1)
            continue;
        for (int chip = sched.stageFirstChip(s);
             chip < sched.stageFirstChip(s) + width; ++chip) {
            const auto &ch = prep.chips[static_cast<size_t>(chip)];
            ASSERT_EQ(ch.chip, chip);
            EXPECT_EQ(ch.crossbars, a.crossbars) << a.name;
            EXPECT_EQ(ch.programmedNodes, 1u) << a.name;
        }
    }
    EXPECT_EQ(chip_crossbars, pr.totalCrossbars());
    EXPECT_EQ(chip_crossbars, alloc_crossbars);
    EXPECT_EQ(chip_programmed, widths);
    EXPECT_GT(chip_programmed, pr.programmedNodes());

    // Replica engines advance through reset exactly like one engine:
    // a reset replays the noisy run bit for bit.
    const Tensor drifted = pr.forward(batch);
    EXPECT_FALSE(drifted.equals(ref));
    pr.resetPresentationStreams();
    EXPECT_TRUE(pr.forward(batch).equals(ref));
}

TEST(PipelineRuntime, TilePipelineIsTimingOnlyAndShortensMakespan)
{
    CompiledResNet c(171);
    Rng rng(172);
    Tensor batch({4, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);

    ThreadPool pool(4);
    auto run = [&](bool overlap, sim::PipelineReport *rep) {
        sim::PipelineRuntimeConfig cfg = noisyConfig(&pool, 2);
        cfg.tile.overlap = overlap;
        sim::PipelineRuntime rt(c.graph, partitionFor(c.graph, 2),
                                c.states, cfg);
        return rt.forward(batch, rep);
    };

    sim::PipelineReport serial, overlapped;
    const Tensor a = run(false, &serial);
    const Tensor b = run(true, &overlapped);

    // Timing model only: identical numbers either way.
    EXPECT_TRUE(a.equals(b));

    // Overlap hides quantization behind ADC phases: saved time is
    // positive, the makespan shrinks, and per-chip busy intervals sit
    // between the pure ADC time and the serialized phase sum.
    EXPECT_EQ(serial.overlapSavedNs, 0.0);
    EXPECT_GT(overlapped.overlapSavedNs, 0.0);
    EXPECT_LT(overlapped.makespanNs, serial.makespanNs);
    ASSERT_EQ(serial.chips.size(), overlapped.chips.size());
    for (size_t i = 0; i < overlapped.chips.size(); ++i) {
        const auto &ch = overlapped.chips[i];
        EXPECT_GT(ch.quantNs, 0.0);
        const double tol = 1e-9 * (ch.computeNs + ch.quantNs);
        EXPECT_GE(ch.busyNs, ch.computeNs - tol);
        EXPECT_LE(ch.busyNs, ch.computeNs + ch.quantNs + tol);
        // Serial phases sum exactly (up to accumulation-order jitter).
        const double serial_sum =
            serial.chips[i].computeNs + serial.chips[i].quantNs;
        EXPECT_NEAR(serial.chips[i].busyNs, serial_sum,
                    1e-9 * serial_sum);
    }
}

TEST(PipelineRuntime, ReportModelsAPipelineWithTransfers)
{
    CompiledResNet c(131);
    Rng rng(132);
    Tensor batch({4, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);

    ThreadPool pool(4);
    sim::PipelineRuntime rt(c.graph, partitionFor(c.graph, 2), c.states,
                            noisyConfig(&pool, 1));
    sim::PipelineReport rep;
    rt.forward(batch, &rep);

    EXPECT_EQ(rep.microBatches, 4);
    EXPECT_EQ(rep.images, 4);
    EXPECT_GT(rep.makespanNs, 0.0);
    EXPECT_GT(rep.modeledFps(), 0.0);
    EXPECT_GT(rep.transferNs, 0.0);
    EXPECT_GT(rep.transferPj, 0.0);
    EXPECT_GE(rep.bubbleFraction, 0.0);
    EXPECT_LT(rep.bubbleFraction, 1.0);

    ASSERT_EQ(rep.chips.size(), 2u);
    EXPECT_EQ(rep.stages, 2);
    int64_t crossbars = 0;
    size_t programmed = 0;
    for (const auto &ch : rep.chips) {
        EXPECT_GT(ch.nodes, 0u);
        EXPECT_GT(ch.computeNs, 0.0);
        EXPECT_GT(ch.quantNs, 0.0);
        EXPECT_GE(ch.busyNs, ch.computeNs);
        EXPECT_GT(ch.utilization, 0.0);
        EXPECT_LE(ch.utilization, 1.0);
        crossbars += ch.crossbars;
        programmed += ch.programmedNodes;
    }
    EXPECT_EQ(crossbars, rt.totalCrossbars());
    EXPECT_EQ(programmed, 10u);
    // Chip 1 waits on the inbound link; chip 0 has no inbound edges.
    EXPECT_EQ(rep.chips[0].transferInNs, 0.0);
    EXPECT_GT(rep.chips[1].transferInNs, 0.0);

    // The makespan can never beat the busiest chip, and pipelining
    // must beat running the chips back to back.
    double max_busy = 0.0, total_busy = 0.0;
    for (const auto &ch : rep.chips) {
        max_busy = std::max(max_busy, ch.busyNs);
        total_busy += ch.busyNs;
    }
    EXPECT_GE(rep.makespanNs, max_busy);
    EXPECT_LT(rep.makespanNs, total_busy + rep.transferNs);
}

TEST(PipelineRuntime, HeterogeneousSpecsMoveTimeButNeverNumbers)
{
    // A 2x inbound link on chip 1 halves every modeled transfer (all
    // cut traffic lands on chip 1 in a 2-chip pipeline), and a faster
    // chip 0 shrinks its busy time — while logits and per-node stats
    // stay bitwise identical to the homogeneous fleet: ChipSpecs are
    // a timing/partitioning model, never a numerics knob.
    CompiledResNet c(141);
    Rng rng(142);
    Tensor batch({4, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);

    ThreadPool pool(4);
    compile::ScheduleConfig scfg;
    scfg.chips = 2;
    sim::PipelineRuntime base(c.graph,
                              compile::Schedule::partition(c.graph, scfg),
                              c.states, noisyConfig(&pool, 1));
    sim::PipelineReport brep;
    const Tensor ref = base.forward(batch, &brep);

    // Fast link: uniform 2x inbound bandwidth scales transfers by
    // exactly 1/2 and cut costs uniformly, so the partition (and the
    // numbers) cannot move.
    compile::ScheduleConfig link = scfg;
    link.chipSpecs.resize(2);
    link.chipSpecs[0].linkIn = 2.0;
    link.chipSpecs[1].linkIn = 2.0;
    sim::PipelineRuntime fast(c.graph,
                              compile::Schedule::partition(c.graph, link),
                              c.states, noisyConfig(&pool, 1));
    sim::PipelineReport frep;
    const Tensor fast_logits = fast.forward(batch, &frep);

    EXPECT_TRUE(fast_logits.equals(ref))
        << "link bandwidth leaked into the numerics";
    ASSERT_EQ(frep.nodes.layers.size(), brep.nodes.layers.size());
    for (size_t i = 0; i < brep.nodes.layers.size(); ++i)
        expectStatsIdentical(frep.nodes.layers[i].stats,
                             brep.nodes.layers[i].stats);
    EXPECT_GT(brep.transferNs, 0.0);
    EXPECT_DOUBLE_EQ(frep.transferNs, brep.transferNs / 2.0);
    EXPECT_DOUBLE_EQ(frep.transferPj, brep.transferPj)
        << "bandwidth must not change transfer energy";

    // Fast chip 0: the partition may shift toward it, but the logits
    // still match the homogeneous fleet bitwise.
    compile::ScheduleConfig cap = scfg;
    cap.chipSpecs.resize(2);
    cap.chipSpecs[0].capacity = 2.0;
    auto csched = compile::Schedule::partition(c.graph, cap);
    const double work0 = csched.chipWork(0);
    EXPECT_GT(work0, csched.chipWork(1))
        << "the 2x chip should carry more raw work";
    sim::PipelineRuntime hetero(c.graph, std::move(csched), c.states,
                                noisyConfig(&pool, 1));
    sim::PipelineReport hrep;
    EXPECT_TRUE(hetero.forward(batch, &hrep).equals(ref));
}

TEST(PipelineRuntime, ResetPresentationStreamsReproducesNoisyRuns)
{
    CompiledResNet c(141);
    Rng rng(142);
    Tensor batch({2, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);

    ThreadPool pool(4);
    sim::PipelineRuntime rt(c.graph, partitionFor(c.graph, 2), c.states,
                            noisyConfig(&pool, 1));
    const Tensor first = rt.forward(batch);
    const Tensor drifted = rt.forward(batch);
    EXPECT_FALSE(first.equals(drifted));
    rt.resetPresentationStreams();
    const Tensor replay = rt.forward(batch);
    EXPECT_TRUE(first.equals(replay));
}

TEST(PipelineRuntime, RejectsMicroBatchBelowOne)
{
    // A micro-batch larger than the batch is legal (the batch runs
    // whole); one below 1 is refused at construction, by name.
    CompiledStemHeavy c(161);
    for (int bad : {0, -2}) {
        EXPECT_DEATH(sim::PipelineRuntime(c.graph, partitionFor(c.graph, 1),
                                          c.states,
                                          noisyConfig(nullptr, bad)),
                     "PipelineRuntimeConfig::microBatch");
    }
}

TEST(PipelineRuntime, AccuracyRunsAndIsBounded)
{
    CompiledResNet c(151);
    ThreadPool pool(4);
    sim::PipelineRuntime rt(c.graph, partitionFor(c.graph, 2), c.states,
                            noisyConfig(&pool, 2));
    Rng rng(152);
    Tensor images({3, 3, 32, 32});
    images.fillUniform(rng, 0.0f, 1.0f);
    const double acc = rt.accuracy(images, {0, 1, 2});
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
}

} // namespace
} // namespace forms
