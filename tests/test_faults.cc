/**
 * @file
 * Resilience tier: deterministic fault maps, the conductance overlay,
 * and spare-crossbar remapping.
 *
 * The load-bearing property is exact recovery: a column-kill-only
 * fault map plus a sufficient spare budget plus the remap pass must
 * reproduce the fault-free logits AND EngineStats bit-for-bit —
 * remapping swaps physical identities only, never accumulation order.
 * When the spare budget runs out, the pass must die loudly, naming
 * the node, crossbar and dead column (death test).
 */

#include <gtest/gtest.h>

#include <limits>

#include "arch/remap.hh"
#include "compile/passes.hh"
#include "nn/zoo.hh"
#include "reram/faults.hh"
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

/** ADC quantization + device variation + read noise all on. */
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

// ---------------------------------------------------------------------
// FaultMap: deterministic, keyed draws.
// ---------------------------------------------------------------------

TEST(FaultMap, DrawsAreDeterministicAndKeyed)
{
    reram::FaultConfig fc;
    fc.stuckLrsRate = 0.02;
    fc.stuckHrsRate = 0.02;
    fc.columnKillRate = 0.05;
    fc.driftRate = 0.05;
    fc.seed = 77;
    reram::FaultMap map(fc);

    const auto a = map.draw(3, 5, 64, 64);
    const auto b = map.draw(3, 5, 64, 64);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.colDead, b.colDead);
    EXPECT_EQ(a.drift, b.drift);

    // A different physical crossbar (or owner) draws a different
    // pattern — with these rates a 64x64 collision is astronomically
    // unlikely.
    const auto other_phys = map.draw(3, 6, 64, 64);
    const auto other_key = map.draw(4, 5, 64, 64);
    EXPECT_NE(a.kind, other_phys.kind);
    EXPECT_NE(a.kind, other_key.kind);
}

TEST(FaultMap, ColumnStreamIsIndependentOfCellRates)
{
    // The remap pass probes only the column stream; its verdicts must
    // not shift when stuck/drift rates change.
    reram::FaultConfig cols_only;
    cols_only.columnKillRate = 0.1;
    cols_only.seed = 11;

    reram::FaultConfig all = cols_only;
    all.stuckLrsRate = 0.2;
    all.stuckHrsRate = 0.2;
    all.driftRate = 0.3;

    reram::FaultMap a(cols_only), b(all);
    for (int phys = 0; phys < 16; ++phys) {
        EXPECT_EQ(a.draw(9, phys, 32, 32).colDead,
                  b.draw(9, phys, 32, 32).colDead)
            << "phys " << phys;
        EXPECT_EQ(a.deadColumns(9, phys, 32), b.deadColumns(9, phys, 32))
            << "phys " << phys;
    }
}

TEST(FaultMap, FirstDeadColumnMatchesTheFullDraw)
{
    reram::FaultConfig fc;
    fc.columnKillRate = 0.08;
    fc.seed = 21;
    reram::FaultMap map(fc);

    // The remap pass probes deadColumns() alone; it must equal the
    // full draw's dead columns, and the first-dead search must find
    // the first column the full draw kills.
    int probed_dead = 0;
    for (int phys = 0; phys < 32; ++phys) {
        const auto full = map.draw(2, phys, 64, 64);
        const auto probe = map.deadColumns(2, phys, 64);
        EXPECT_EQ(probe, full.colDead) << "phys " << phys;
        for (int used : {16, 48, 64}) {
            int want = -1;
            for (int col = 0; col < used && want < 0; ++col)
                if (full.columnDead(col))
                    want = col;
            EXPECT_EQ(reram::firstDeadColumn(probe, used), want)
                << "phys " << phys << " used " << used;
        }
        if (reram::firstDeadColumn(probe, 64) >= 0)
            ++probed_dead;
    }
    EXPECT_GT(probed_dead, 0) << "rate 0.08 over 32x64 columns drew "
                                 "no kill; seed is broken";
}

// ---------------------------------------------------------------------
// Overlay: a fault map changes only what it should.
// ---------------------------------------------------------------------

TEST(FaultOverlay, ZeroRateMapIsBitwiseInert)
{
    CompiledResNet c(301);
    Rng rng(302);
    Tensor batch({2, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);

    ThreadPool pool(4);
    sim::PipelineRuntime clean(c.graph, c.states, noisyConfig(&pool));
    sim::RuntimeReport clean_rep;
    const Tensor clean_logits = clean.forward(batch, &clean_rep);

    reram::FaultMap zero{reram::FaultConfig{}};
    sim::RuntimeConfig rcfg = noisyConfig(&pool);
    rcfg.faults = &zero;
    sim::PipelineRuntime faulted(c.graph, c.states, rcfg);
    sim::RuntimeReport rep;
    const Tensor logits = faulted.forward(batch, &rep);

    EXPECT_TRUE(logits.equals(clean_logits));
    ASSERT_EQ(rep.layers.size(), clean_rep.layers.size());
    for (size_t i = 0; i < rep.layers.size(); ++i)
        expectStatsIdentical(rep.layers[i].stats,
                             clean_rep.layers[i].stats);
}

TEST(FaultOverlay, StuckCellsPerturbLogitsDeterministically)
{
    CompiledResNet c(311);
    Rng rng(312);
    Tensor batch({2, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);

    ThreadPool pool(4);
    sim::PipelineRuntime clean(c.graph, c.states, noisyConfig(&pool));
    const Tensor clean_logits = clean.forward(batch);

    reram::FaultConfig fc;
    fc.stuckLrsRate = 0.01;
    fc.stuckHrsRate = 0.01;
    fc.driftRate = 0.02;
    fc.seed = 313;
    reram::FaultMap map(fc);

    sim::RuntimeConfig rcfg = noisyConfig(&pool);
    rcfg.faults = &map;
    sim::PipelineRuntime faulted_a(c.graph, c.states, rcfg);
    sim::PipelineRuntime faulted_b(c.graph, c.states, rcfg);
    const Tensor a = faulted_a.forward(batch);
    const Tensor b = faulted_b.forward(batch);

    EXPECT_FALSE(a.equals(clean_logits))
        << "1-2% stuck cells left every logit untouched";
    EXPECT_TRUE(a.equals(b)) << "fault overlay is nondeterministic";
}

// ---------------------------------------------------------------------
// Remap: exact recovery while spares last, loud death after.
// ---------------------------------------------------------------------

TEST(Remap, ColumnKillWithSparesRecoversCleanLogitsExactly)
{
    CompiledResNet c(321);
    Rng rng(322);
    Tensor batch({2, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);

    ThreadPool pool(4);
    sim::PipelineRuntime clean(c.graph, c.states, noisyConfig(&pool));
    sim::RuntimeReport clean_rep;
    const Tensor clean_logits = clean.forward(batch, &clean_rep);

    reram::FaultConfig fc;
    fc.columnKillRate = 0.002;   // ~12% of 64-column tiles hit
    fc.seed = 323;
    reram::FaultMap map(fc);

    sim::RuntimeConfig rcfg = noisyConfig(&pool);
    rcfg.faults = &map;
    rcfg.mapping.spareXbars = 16;
    sim::PipelineRuntime repaired(c.graph, c.states, rcfg);
    sim::RuntimeReport rep;
    const Tensor logits = repaired.forward(batch, &rep);

    EXPECT_TRUE(logits.equals(clean_logits))
        << "remap changed the numbers: physical-identity swap leaked "
           "into accumulation order";
    ASSERT_EQ(rep.layers.size(), clean_rep.layers.size());
    for (size_t i = 0; i < rep.layers.size(); ++i)
        expectStatsIdentical(rep.layers[i].stats,
                             clean_rep.layers[i].stats);

    // Without remapping the same map must hurt — otherwise this test
    // proved nothing (no crossbar actually drew a dead used column).
    sim::RuntimeConfig broken = rcfg;
    broken.mapping.spareXbars = 0;
    sim::PipelineRuntime unrepaired(c.graph, c.states, broken);
    EXPECT_FALSE(unrepaired.forward(batch).equals(clean_logits))
        << "fault map killed no used column; raise the rate or reseed";
}

TEST(Remap, SparesAloneTurnOnRemap)
{
    // A spare budget is the remap switch: a column-kill map plus
    // spareXbars > 0, with nothing else set, repairs every tile.
    CompiledResNet c(351);
    Rng rng(352);
    Tensor batch({1, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);

    ThreadPool pool(2);
    sim::RuntimeConfig rcfg = noisyConfig(&pool);
    sim::PipelineRuntime clean(c.graph, c.states, rcfg);
    const Tensor clean_logits = clean.forward(batch);

    reram::FaultConfig fc;
    fc.columnKillRate = 0.002;
    fc.seed = 353;
    reram::FaultMap map(fc);
    rcfg.faults = &map;
    rcfg.mapping.spareXbars = 16;
    sim::PipelineRuntime spared(c.graph, c.states, rcfg);
    sim::PipelineReport rep;
    EXPECT_TRUE(spared.forward(batch, &rep).equals(clean_logits))
        << "spares were budgeted but the dead columns stayed";
    EXPECT_GT(rep.remappedCrossbars, 0);
}

TEST(Remap, ReportCountsFaultyAndRemappedTiles)
{
    CompiledResNet c(331);
    Rng rng(332);
    Tensor batch({2, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);

    reram::FaultConfig fc;
    fc.columnKillRate = 0.002;
    fc.seed = 333;
    reram::FaultMap map(fc);

    ThreadPool pool(4);
    sim::PipelineRuntimeConfig pcfg;
    pcfg.runtime = noisyConfig(&pool);
    pcfg.runtime.faults = &map;
    pcfg.runtime.mapping.spareXbars = 16;
    pcfg.microBatch = 1;

    compile::ScheduleConfig scfg;
    scfg.chips = 2;
    sim::PipelineRuntime rt(c.graph,
                            compile::Schedule::partition(c.graph, scfg),
                            c.states, pcfg);
    sim::PipelineReport rep;
    (void)rt.forward(batch, &rep);

    EXPECT_GT(rep.remappedCrossbars, 0)
        << "rate 0.01 remapped nothing; the report plumbing is dead";
    int64_t chip_faulty = 0, chip_remapped = 0;
    for (const auto &chip : rep.chips) {
        chip_faulty += chip.faultyCrossbars;
        chip_remapped += chip.remappedCrossbars;
    }
    EXPECT_EQ(chip_faulty, rep.faultyCrossbars);
    EXPECT_EQ(chip_remapped, rep.remappedCrossbars);

    // A second forward must not double-count the (static) exposure.
    sim::PipelineReport rep2;
    (void)rt.forward(batch, &rep2);
    EXPECT_EQ(rep2.faultyCrossbars, rep.faultyCrossbars);
    EXPECT_EQ(rep2.remappedCrossbars, rep.remappedCrossbars);
}

TEST(FaultConfigValidate, EachBadRateDiesNamingIt)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto dies = [](double reram::FaultConfig::*field, double value,
                         const char *name) {
        reram::FaultConfig fc;
        fc.*field = value;
        EXPECT_DEATH(reram::FaultMap map(fc),
                     std::string("FaultConfig::") + name);
    };
    for (double bad : {nan, -0.1, 1.5}) {
        dies(&reram::FaultConfig::stuckLrsRate, bad, "stuckLrsRate");
        dies(&reram::FaultConfig::stuckHrsRate, bad, "stuckHrsRate");
        dies(&reram::FaultConfig::columnKillRate, bad, "columnKillRate");
        dies(&reram::FaultConfig::driftRate, bad, "driftRate");
    }
}

using RemapDeathTest = ::testing::Test;

TEST(RemapDeathTest, SpareExhaustionNamesNodeCrossbarAndColumn)
{
    CompiledResNet c(341);

    reram::FaultConfig fc;
    fc.columnKillRate = 1.0;   // every column dead: spares can't help
    fc.seed = 343;
    reram::FaultMap map(fc);

    ThreadPool pool(1);
    sim::RuntimeConfig rcfg = noisyConfig(&pool);
    rcfg.faults = &map;
    rcfg.mapping.spareXbars = 2;   // all spares are dead too

    EXPECT_DEATH(
        {
            sim::PipelineRuntime rt(c.graph, c.states, rcfg);
        },
        "remap: node .* dead cell column .* spare");
}

} // namespace
} // namespace forms
