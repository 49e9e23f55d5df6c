/**
 * @file
 * Schedule partitioner tests: determinism (same graph + same config
 * => identical partition), contiguity in topological order, exact
 * balance behaviour on uniform chains, capacity awareness, transfer
 * materialization, chip-count clamping, the shape-free single-chip
 * schedule, and replicated stages (a
 * bottleneck matrix node spread across several chips, with merge
 * Transfer records and balanced per-chip work).
 */

#include <gtest/gtest.h>

#include "compile/passes.hh"
#include "compile/schedule.hh"
#include "nn/layers.hh"
#include "nn/zoo.hh"

namespace forms {
namespace {

/** Input -> n relu chain with uniform per-node work. */
compile::Graph
reluChain(int relus)
{
    compile::Graph g;
    int prev = g.addNode(compile::Op::Input, "in", {});
    for (int i = 0; i < relus; ++i) {
        prev = g.addNode(compile::Op::Relu, "relu" + std::to_string(i),
                         {prev});
    }
    g.setOutput(prev);
    g.inferShapes({3, 8, 8});
    return g;
}

/** Compiled + folded ResNetSmall graph (the realistic topology). */
struct ResNetGraph
{
    std::unique_ptr<nn::Network> net;
    compile::Graph graph;

    explicit ResNetGraph(uint64_t seed)
    {
        Rng rng(seed);
        net = nn::buildResNetSmall(rng, 4, 8, 1);
        graph = compile::lowerNetwork(*net);
        graph.inferShapes({3, 32, 32});
        EXPECT_GT(compile::foldBatchNorm(graph), 0);
    }
};

/**
 * Stem-heavy graph: one big conv followed by cheap functional work —
 * the shape that motivates replication (no contiguous cut can
 * balance it).
 */
struct StemHeavyNet
{
    std::unique_ptr<nn::Network> net;
    compile::Graph graph;

    explicit StemHeavyNet(uint64_t seed)
    {
        Rng rng(seed);
        net = std::make_unique<nn::Network>();
        net->emplace<nn::Conv2D>("stem", 3, 16, 3, 1, 1, rng);
        net->emplace<nn::ReLU>("relu0");
        net->emplace<nn::MaxPool2D>("pool", 2, 2);
        net->emplace<nn::ReLU>("relu1");
        net->emplace<nn::Flatten>("flat");
        net->emplace<nn::Dense>("fc", 16 * 16 * 16, 4, rng);
        graph = compile::lowerNetwork(*net);
        graph.inferShapes({3, 32, 32});
    }
};

TEST(Schedule, PartitionIsDeterministic)
{
    ResNetGraph r(31);
    compile::ScheduleConfig cfg;
    cfg.chips = 3;
    const auto a = compile::Schedule::partition(r.graph, cfg);
    const auto b = compile::Schedule::partition(r.graph, cfg);

    ASSERT_EQ(a.chips(), b.chips());
    ASSERT_EQ(a.stages(), b.stages());
    for (int id = 0; id < r.graph.capacity(); ++id) {
        EXPECT_EQ(a.chipOf(id), b.chipOf(id)) << "node " << id;
        EXPECT_EQ(a.stageOf(id), b.stageOf(id)) << "node " << id;
    }
    ASSERT_EQ(a.transfers().size(), b.transfers().size());
    for (size_t i = 0; i < a.transfers().size(); ++i) {
        EXPECT_EQ(a.transfers()[i].producer, b.transfers()[i].producer);
        EXPECT_EQ(a.transfers()[i].fromStage,
                  b.transfers()[i].fromStage);
        EXPECT_EQ(a.transfers()[i].bytesPerSample,
                  b.transfers()[i].bytesPerSample);
    }
    EXPECT_EQ(a.cutBytesPerSample(), b.cutBytesPerSample());
}

TEST(Schedule, AssignsEveryLiveNodeContiguouslyInTopoOrder)
{
    ResNetGraph r(32);
    compile::ScheduleConfig cfg;
    cfg.chips = 4;
    const auto s = compile::Schedule::partition(r.graph, cfg);

    ASSERT_EQ(s.chips(), 4);
    ASSERT_EQ(s.stages(), 4);   // nothing replicates by default
    EXPECT_FALSE(s.replicated());
    int prev_chip = 0;
    size_t assigned = 0;
    for (int id : r.graph.topoOrder()) {
        const int c = s.chipOf(id);
        ASSERT_GE(c, prev_chip) << "chip ids must be non-decreasing "
                                   "along the topological order";
        EXPECT_EQ(s.replicasOf(id), 1);
        prev_chip = c;
        ++assigned;
    }
    EXPECT_EQ(assigned, r.graph.size());
    size_t listed = 0;
    for (int c = 0; c < s.chips(); ++c) {
        EXPECT_FALSE(s.chipNodes()[static_cast<size_t>(c)].empty());
        EXPECT_GT(s.chipWork(c), 0.0);
        listed += s.chipNodes()[static_cast<size_t>(c)].size();
    }
    EXPECT_EQ(listed, r.graph.size());
}

TEST(Schedule, UniformChainSplitsEvenlyWithSmallestCutFirst)
{
    // 9 uniform nodes on 2 chips: both 4/5 and 5/4 hit the same max
    // work and cut traffic; the deterministic tie-break picks the
    // lexicographically smallest cut vector, i.e. 4/5.
    auto g = reluChain(8);
    compile::ScheduleConfig cfg;
    cfg.chips = 2;
    const auto s = compile::Schedule::partition(g, cfg);
    ASSERT_EQ(s.chips(), 2);
    EXPECT_EQ(s.chipNodes()[0].size(), 4u);
    EXPECT_EQ(s.chipNodes()[1].size(), 5u);
}

TEST(Schedule, SingleChipEqualsTheOneChipPartition)
{
    auto g = reluChain(8);
    compile::ScheduleConfig cfg;
    cfg.chips = 1;
    const auto p = compile::Schedule::partition(g, cfg);
    const auto s = compile::Schedule::singleChip(g);
    ASSERT_EQ(s.chips(), 1);
    ASSERT_EQ(s.stages(), 1);
    EXPECT_EQ(s.stageNodes(), p.stageNodes());
    EXPECT_EQ(s.chipNodes(), p.chipNodes());
    EXPECT_EQ(s.stageWidth(0), 1);
    EXPECT_TRUE(s.transfers().empty());
    EXPECT_EQ(s.stageWork(0), p.stageWork(0));
    EXPECT_EQ(s.chipWork(0), p.chipWork(0));
    ASSERT_EQ(s.chipSpecs().size(), 1u);
    EXPECT_EQ(s.dump(), p.dump());

    // Unlike partition(), it needs no inferred shapes.
    compile::Graph bare;
    const int in = bare.addNode(compile::Op::Input, "in", {});
    bare.setOutput(bare.addNode(compile::Op::Relu, "r0", {in}));
    const auto b = compile::Schedule::singleChip(bare);
    EXPECT_EQ(b.stageNodes()[0], bare.topoOrder());
    EXPECT_EQ(b.stageWork(0), 0.0);
}

TEST(Schedule, TransfersAreNeighborHopsWithTensorBytes)
{
    auto g = reluChain(8);
    compile::ScheduleConfig cfg;
    cfg.chips = 3;
    const auto s = compile::Schedule::partition(g, cfg);

    // A straight chain crosses each of the 2 boundaries exactly once,
    // carrying one 3x8x8 float tensor per sample.
    ASSERT_EQ(s.transfers().size(), 2u);
    for (const auto &t : s.transfers()) {
        EXPECT_EQ(t.toStage, t.fromStage + 1);
        EXPECT_EQ(t.bytesPerSample,
                  static_cast<int64_t>(3 * 8 * 8 * sizeof(float)));
        EXPECT_EQ(s.stageOf(t.producer), t.fromStage);
        EXPECT_FALSE(t.mergeReplicas);
    }
    EXPECT_EQ(s.cutBytesPerSample(),
              static_cast<int64_t>(2 * 3 * 8 * 8 * sizeof(float)));
}

TEST(Schedule, ResidualGraphTransfersFollowTheSchedule)
{
    ResNetGraph r(33);
    compile::ScheduleConfig cfg;
    cfg.chips = 4;
    const auto s = compile::Schedule::partition(r.graph, cfg);
    EXPECT_FALSE(s.transfers().empty());
    for (const auto &t : s.transfers()) {
        EXPECT_EQ(t.toStage, t.fromStage + 1);
        EXPECT_GT(t.bytesPerSample, 0);
        // The producer lives at or before the sending stage
        // (store-and-forward re-sends values that hop further).
        EXPECT_LE(s.stageOf(t.producer), t.fromStage);
        EXPECT_TRUE(r.graph.alive(t.producer));
    }
    EXPECT_GT(s.cutBytesPerSample(), 0);
}

TEST(Schedule, ChipCountClampsToLiveNodes)
{
    auto g = reluChain(2);  // 3 live nodes
    compile::ScheduleConfig cfg;
    cfg.chips = 8;
    const auto s = compile::Schedule::partition(g, cfg);
    EXPECT_EQ(s.chips(), 3);
    for (int c = 0; c < 3; ++c)
        EXPECT_EQ(s.chipNodes()[static_cast<size_t>(c)].size(), 1u);
}

TEST(Schedule, SingleChipHasNoTransfers)
{
    ResNetGraph r(34);
    compile::ScheduleConfig cfg;
    cfg.chips = 1;
    const auto s = compile::Schedule::partition(r.graph, cfg);
    EXPECT_EQ(s.chips(), 1);
    EXPECT_EQ(s.stages(), 1);
    EXPECT_TRUE(s.transfers().empty());
    EXPECT_EQ(s.cutBytesPerSample(), 0);
    EXPECT_EQ(s.chipNodes()[0].size(), r.graph.size());
}

TEST(Schedule, ReplicationDisabledReproducesContiguousPartition)
{
    StemHeavyNet n(41);
    compile::ScheduleConfig off;
    off.chips = 3;
    const auto a = compile::Schedule::partition(n.graph, off);
    EXPECT_EQ(a.stages(), a.chips());
    EXPECT_FALSE(a.replicated());

    // Threshold set but maxReplicas < 2: still contiguous.
    compile::ScheduleConfig capped = off;
    capped.replicateThreshold = 1.0;
    capped.maxReplicas = 1;
    const auto b = compile::Schedule::partition(n.graph, capped);
    EXPECT_FALSE(b.replicated());
    for (int id = 0; id < n.graph.capacity(); ++id)
        EXPECT_EQ(a.chipOf(id), b.chipOf(id));
}

TEST(Schedule, HeavyStemReplicatesAcrossChips)
{
    StemHeavyNet n(42);
    compile::ScheduleConfig cfg;
    cfg.chips = 3;
    cfg.replicateThreshold = 1.0;
    const auto s = compile::Schedule::partition(n.graph, cfg);

    ASSERT_TRUE(s.replicated());
    EXPECT_LT(s.stages(), s.chips());

    // The stem conv (the only node that can dwarf the ideal share)
    // forms a multi-chip stage of its own.
    int stem = -1;
    for (int id = 0; id < n.graph.capacity(); ++id)
        if (n.graph.alive(id) &&
            n.graph.node(id).op == compile::Op::Conv)
            stem = id;
    ASSERT_GE(stem, 0);
    EXPECT_GT(s.replicasOf(stem), 1);
    const int stage = s.stageOf(stem);
    EXPECT_EQ(s.stageWidth(stage), s.replicasOf(stem));
    // The replicated stage is anchored on exactly one matrix node.
    int matrix_in_stage = 0;
    for (int id : s.stageNodes()[static_cast<size_t>(stage)])
        matrix_in_stage += n.graph.node(id).op == compile::Op::Conv ||
                           n.graph.node(id).op == compile::Op::Dense;
    EXPECT_EQ(matrix_in_stage, 1);

    // Every replica chip lists (and will program) the node.
    const int first = s.stageFirstChip(stage);
    for (int c = first; c < first + s.stageWidth(stage); ++c) {
        const auto &nodes = s.chipNodes()[static_cast<size_t>(c)];
        EXPECT_NE(std::find(nodes.begin(), nodes.end(), stem),
                  nodes.end());
    }

    // The hop leaving the replicated stage is the merge record.
    bool merge_seen = false;
    for (const auto &t : s.transfers()) {
        if (t.producer == stem && t.fromStage == stage) {
            EXPECT_TRUE(t.mergeReplicas);
            merge_seen = true;
        } else {
            EXPECT_FALSE(t.mergeReplicas);
        }
    }
    EXPECT_TRUE(merge_seen);
    EXPECT_NE(s.dump().find("merge"), std::string::npos);
}

TEST(Schedule, ReplicationLowersTheBottleneckChipWork)
{
    StemHeavyNet n(43);
    compile::ScheduleConfig base;
    base.chips = 3;
    const auto contiguous = compile::Schedule::partition(n.graph, base);
    compile::ScheduleConfig rep = base;
    rep.replicateThreshold = 1.0;
    const auto replicated = compile::Schedule::partition(n.graph, rep);
    ASSERT_TRUE(replicated.replicated());

    auto max_chip_work = [](const compile::Schedule &s) {
        double w = 0.0;
        for (int c = 0; c < s.chips(); ++c)
            w = std::max(w, s.chipWork(c));
        return w;
    };
    EXPECT_LT(max_chip_work(replicated), max_chip_work(contiguous));

    // The stage's work splits evenly across its chips (uniform
    // capacity): per-chip work sums back to the stage work.
    for (int st = 0; st < replicated.stages(); ++st) {
        double sum = 0.0;
        const int first = replicated.stageFirstChip(st);
        for (int c = first; c < first + replicated.stageWidth(st); ++c)
            sum += replicated.chipWork(c);
        EXPECT_NEAR(sum, replicated.stageWork(st),
                    1e-9 * replicated.stageWork(st));
    }
}

TEST(Schedule, ReplicationUsesChipsBeyondTheLiveNodeCount)
{
    // 7 live nodes. Without replication the chip count clamps to 7;
    // an eligible anchor can absorb up to maxReplicas - 1 extra
    // chips, so 9 requested chips are all usable.
    StemHeavyNet n(45);
    compile::ScheduleConfig cfg;
    cfg.chips = 9;
    cfg.replicateThreshold = 1.0;
    cfg.maxReplicas = 4;
    const auto s = compile::Schedule::partition(n.graph, cfg);
    EXPECT_EQ(s.chips(), 9);
    ASSERT_TRUE(s.replicated());

    int stem = -1;
    for (int id = 0; id < n.graph.capacity(); ++id)
        if (n.graph.alive(id) &&
            n.graph.node(id).op == compile::Op::Conv)
            stem = id;
    ASSERT_GE(stem, 0);
    EXPECT_GE(s.replicasOf(stem), 3);

    // Replication off: the old clamp-to-live-nodes invariant holds.
    compile::ScheduleConfig off;
    off.chips = 9;
    const auto c = compile::Schedule::partition(n.graph, off);
    EXPECT_EQ(c.chips(), static_cast<int>(n.graph.size()));
}

/**
 * Four identical convs in a chain: under AdcTime every conv costs the
 * same, so density annotations are the only thing EicTime can differ
 * on.
 */
struct UniformConvChain
{
    std::unique_ptr<nn::Network> net;
    compile::Graph graph;

    explicit UniformConvChain(uint64_t seed)
    {
        Rng rng(seed);
        net = std::make_unique<nn::Network>();
        net->emplace<nn::Conv2D>("c0", 4, 4, 3, 1, 1, rng);
        net->emplace<nn::ReLU>("r0");
        net->emplace<nn::Conv2D>("c1", 4, 4, 3, 1, 1, rng);
        net->emplace<nn::ReLU>("r1");
        net->emplace<nn::Conv2D>("c2", 4, 4, 3, 1, 1, rng);
        net->emplace<nn::ReLU>("r2");
        net->emplace<nn::Conv2D>("c3", 4, 4, 3, 1, 1, rng);
        graph = compile::lowerNetwork(*net);
        graph.inferShapes({4, 16, 16});
    }

    int find(const std::string &name) const
    {
        for (int id = 0; id < graph.capacity(); ++id)
            if (graph.alive(id) && graph.node(id).name == name)
                return id;
        return -1;
    }

    void setDensity(const std::string &name, float d)
    {
        const int id = find(name);
        ASSERT_GE(id, 0) << name;
        graph.node(id).eicDensity = d;
    }
};

TEST(EicTimeWorkModel, NodeWorkScalesAdcTimeByMeasuredDensity)
{
    UniformConvChain n(61);
    compile::Node &conv = n.graph.node(n.find("c1"));
    const double adc = compile::nodeWork(conv, compile::WorkModel::AdcTime);
    ASSERT_GT(adc, 0.0);

    // Unmeasured (density 0) falls back to plain AdcTime.
    EXPECT_DOUBLE_EQ(
        compile::nodeWork(conv, compile::WorkModel::EicTime), adc);
    conv.eicDensity = 0.25f;
    EXPECT_DOUBLE_EQ(
        compile::nodeWork(conv, compile::WorkModel::EicTime),
        adc * 0.25);
    // The Macs model ignores the annotation entirely.
    conv.eicDensity = 0.25f;
    EXPECT_DOUBLE_EQ(compile::nodeWork(conv, compile::WorkModel::Macs),
                     compile::nodeWork(conv));

    // Functional ops charge output elements under both timed models.
    const compile::Node &relu = n.graph.node(n.find("r1"));
    EXPECT_DOUBLE_EQ(
        compile::nodeWork(relu, compile::WorkModel::EicTime),
        compile::nodeWork(relu, compile::WorkModel::AdcTime));
}

TEST(EicTimeWorkModel, UnannotatedGraphPartitionsExactlyLikeAdcTime)
{
    ResNetGraph r(62);
    compile::ScheduleConfig adc;
    adc.chips = 4;
    adc.workModel = compile::WorkModel::AdcTime;
    compile::ScheduleConfig eic = adc;
    eic.workModel = compile::WorkModel::EicTime;
    const auto a = compile::Schedule::partition(r.graph, adc);
    const auto b = compile::Schedule::partition(r.graph, eic);
    ASSERT_EQ(a.stages(), b.stages());
    for (int id = 0; id < r.graph.capacity(); ++id)
        EXPECT_EQ(a.chipOf(id), b.chipOf(id)) << "node " << id;
}

TEST(EicTimeWorkModel, SparseDensitiesShiftTheCutTowardDenseNodes)
{
    // Dense stem (density 1), sparse tail (0.25): AdcTime sees four
    // equal convs and splits them 2/2; EicTime sees works
    // 1/.25/.25/.25 and gives the dense stem a chip of its own.
    UniformConvChain n(63);
    n.setDensity("c0", 1.0f);
    n.setDensity("c1", 0.25f);
    n.setDensity("c2", 0.25f);
    n.setDensity("c3", 0.25f);

    compile::ScheduleConfig adc;
    adc.chips = 2;
    adc.workModel = compile::WorkModel::AdcTime;
    compile::ScheduleConfig eic = adc;
    eic.workModel = compile::WorkModel::EicTime;
    const auto a = compile::Schedule::partition(n.graph, adc);
    const auto b = compile::Schedule::partition(n.graph, eic);

    const int c1 = n.find("c1");
    EXPECT_EQ(a.chipOf(c1), 0) << "AdcTime should balance convs 2/2";
    EXPECT_EQ(b.chipOf(c1), 1)
        << "EicTime should cut right after the dense stem";
    EXPECT_EQ(b.chipOf(n.find("c0")), 0);
    EXPECT_EQ(b.chipOf(n.find("c3")), 1);

    // Flipping the sparsity pattern flips the cut: a sparse prefix
    // and dense tail pushes most convs onto chip 0.
    UniformConvChain m(63);
    m.setDensity("c0", 0.25f);
    m.setDensity("c1", 0.25f);
    m.setDensity("c2", 0.25f);
    m.setDensity("c3", 1.0f);
    const auto c = compile::Schedule::partition(m.graph, eic);
    EXPECT_EQ(c.chipOf(m.find("c2")), 0);
    EXPECT_EQ(c.chipOf(m.find("c3")), 1);
}

TEST(HeterogeneousChips, DefaultSpecsReproduceHomogeneousBitwise)
{
    // All-default ChipSpecs must be a no-op: the /1.0 normalizations
    // and the double-valued cut cost keep the DP objective on exact
    // integer-valued doubles, so every historical partition is pinned
    // bit-for-bit — under every work model.
    ResNetGraph r(81);
    for (const auto model :
         {compile::WorkModel::Macs, compile::WorkModel::AdcTime,
          compile::WorkModel::EicTime}) {
        compile::ScheduleConfig plain;
        plain.chips = 4;
        plain.workModel = model;
        compile::ScheduleConfig spec = plain;
        spec.chipSpecs.assign(4, compile::ChipSpec{});
        const auto a = compile::Schedule::partition(r.graph, plain);
        const auto b = compile::Schedule::partition(r.graph, spec);
        ASSERT_EQ(a.stages(), b.stages());
        for (int id = 0; id < r.graph.capacity(); ++id) {
            EXPECT_EQ(a.chipOf(id), b.chipOf(id))
                << "node " << id << " model "
                << static_cast<int>(model);
            EXPECT_EQ(a.stageOf(id), b.stageOf(id));
        }
        EXPECT_EQ(a.cutBytesPerSample(), b.cutBytesPerSample());
        ASSERT_EQ(b.chipSpecs().size(), 4u);
    }
}

TEST(HeterogeneousChips, CapacityShiftsTheBoundaryUnderEveryModel)
{
    auto g = reluChain(8);
    for (const auto model :
         {compile::WorkModel::Macs, compile::WorkModel::AdcTime,
          compile::WorkModel::EicTime}) {
        compile::ScheduleConfig cfg;
        cfg.chips = 2;
        cfg.workModel = model;
        cfg.chipSpecs.resize(2);
        cfg.chipSpecs[0].capacity = 2.0;
        const auto s = compile::Schedule::partition(g, cfg);
        EXPECT_EQ(s.chipNodes()[0].size(), 6u)
            << "model " << static_cast<int>(model);
        EXPECT_EQ(s.chipNodes()[1].size(), 3u);
    }
}

TEST(HeterogeneousChips, AdcScaleShiftsTimedCutsButNotMacs)
{
    // Chip 0 has a 3x faster ADC. The timed models fold that into the
    // chip's effective throughput (3 of the 4 uniform convs land on
    // it); the device-count Macs model must ignore it and keep the
    // balanced 2/2 split.
    UniformConvChain n(82);
    const int c1 = n.find("c1");
    const int c2 = n.find("c2");

    compile::ScheduleConfig cfg;
    cfg.chips = 2;
    cfg.chipSpecs.resize(2);
    cfg.chipSpecs[0].adcScale = 3.0;

    cfg.workModel = compile::WorkModel::Macs;
    const auto macs = compile::Schedule::partition(n.graph, cfg);
    EXPECT_EQ(macs.chipOf(c1), 0);
    EXPECT_EQ(macs.chipOf(c2), 1);

    for (const auto model :
         {compile::WorkModel::AdcTime, compile::WorkModel::EicTime}) {
        cfg.workModel = model;
        const auto timed = compile::Schedule::partition(n.graph, cfg);
        EXPECT_EQ(timed.chipOf(c2), 0)
            << "model " << static_cast<int>(model)
            << ": the fast-ADC chip should absorb the third conv";
        EXPECT_EQ(timed.chipOf(n.find("c3")), 1);
    }
}

TEST(HeterogeneousChips, PartitionRecordsTheResolvedSpecs)
{
    auto g = reluChain(8);
    compile::ScheduleConfig cfg;
    cfg.chips = 2;
    cfg.chipSpecs.resize(2);
    cfg.chipSpecs[0].capacity = 2.0;
    cfg.chipSpecs[1].linkIn = 0.5;
    const auto s = compile::Schedule::partition(g, cfg);
    ASSERT_EQ(s.chipSpecs().size(), 2u);
    EXPECT_DOUBLE_EQ(s.chipSpecs()[0].capacity, 2.0);
    EXPECT_DOUBLE_EQ(s.chipSpecs()[1].linkIn, 0.5);
}

TEST(HeterogeneousChips, MalformedSpecsDie)
{
    auto g = reluChain(8);
    compile::ScheduleConfig wrong_count;
    wrong_count.chips = 2;
    wrong_count.chipSpecs.resize(3);
    EXPECT_DEATH(compile::Schedule::partition(g, wrong_count), "");

    compile::ScheduleConfig bad_value;
    bad_value.chips = 2;
    bad_value.chipSpecs.resize(2);
    bad_value.chipSpecs[1].linkIn = 0.0;
    EXPECT_DEATH(compile::Schedule::partition(g, bad_value), "");
}

TEST(Schedule, ReplicatedPartitionIsDeterministic)
{
    ResNetGraph r(44);
    compile::ScheduleConfig cfg;
    cfg.chips = 4;
    cfg.replicateThreshold = 0.8;
    cfg.maxReplicas = 3;
    const auto a = compile::Schedule::partition(r.graph, cfg);
    const auto b = compile::Schedule::partition(r.graph, cfg);
    ASSERT_EQ(a.stages(), b.stages());
    for (int id = 0; id < r.graph.capacity(); ++id) {
        EXPECT_EQ(a.stageOf(id), b.stageOf(id));
        EXPECT_EQ(a.replicasOf(id), b.replicasOf(id));
    }
    ASSERT_EQ(a.transfers().size(), b.transfers().size());
    for (size_t i = 0; i < a.transfers().size(); ++i)
        EXPECT_EQ(a.transfers()[i].mergeReplicas,
                  b.transfers()[i].mergeReplicas);
}

} // namespace
} // namespace forms
