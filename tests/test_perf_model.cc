/**
 * @file
 * Tests for the analytic performance model: per-layer crossbar math,
 * and the paper's qualitative orderings — compression speeds ISAAC up
 * by one to two orders of magnitude, zero-skip lifts FORMS above the
 * no-skip variant, coarser fragments run faster without skipping, and
 * calibrated FORMS-with-skip beats Pruned/Quantized ISAAC.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sim/perf_model.hh"

namespace forms::sim {
namespace {

class PerfFixture : public ::testing::Test
{
  protected:
    PerfModel model;
    Workload vgg = vgg16Cifar();
    CompressionProfile profile{"vgg16-c100", 8.15, 8};
};

TEST_F(PerfFixture, LayerCrossbarCountClosedForm)
{
    ArchModel isaac = ArchModel::isaac16();
    LayerSpec l;
    l.conv = true;
    l.inC = 64;
    l.outC = 128;
    l.kernel = 3;
    l.inH = 32;
    l.inW = 32;
    l.pad = 1;
    LayerPerf lp = model.layerPerf(isaac, l, nullptr);
    // rows 576 -> 5 grids; cols 128 * 8 cells = 1024 -> 8 grids.
    EXPECT_EQ(lp.crossbars, 5 * 8);
    EXPECT_EQ(lp.presentations, 32 * 32);
}

TEST_F(PerfFixture, IsaacTauMatchesPaperCycleTime)
{
    // ISAAC: 128 columns on one 1.2 GHz ADC per input bit = 106.6 ns;
    // 16 input bits -> ~1706 ns per presentation.
    ArchModel isaac = ArchModel::isaac16();
    LayerSpec l = vgg.layers[3];
    LayerPerf lp = model.layerPerf(isaac, l, nullptr);
    EXPECT_NEAR(lp.tauNs, 16.0 * 128.0 / 1.2, 1.0);
}

TEST_F(PerfFixture, FormsAdcSlotMatchesPaper)
{
    // FORMS: 4 ADCs cover 128 columns at 2.1 GHz -> 15.2 ns per
    // (fragment, bit) step (paper §IV-C's 15 ns figure).
    ArchModel forms = ArchModel::formsFull(8, true);
    const double slot =
        (128.0 / forms.mcu.adcsPerCrossbar) / forms.mcu.adcFreqGhz;
    EXPECT_NEAR(slot, 15.2, 0.3);
}

TEST_F(PerfFixture, CompressionGivesOrderOfMagnitude)
{
    // Paper: pruning/quantization speeds ISAAC up by 7.5x-200x.
    ArchModel base = ArchModel::isaac32();
    ArchModel pq = ArchModel::isaacPrunedQuantized();
    const double fps_base =
        model.evaluate(base, vgg, &profile).fpsRaw;
    const double fps_pq = model.evaluate(pq, vgg, &profile).fpsRaw;
    const double speedup = fps_pq / fps_base;
    EXPECT_GT(speedup, 7.5);
    EXPECT_LT(speedup, 210.0);
}

TEST_F(PerfFixture, ZeroSkipLiftsForms)
{
    ArchModel skip = ArchModel::formsFull(8, true);
    ArchModel noskip = ArchModel::formsFull(8, false);
    const double f_skip = model.evaluate(skip, vgg, &profile).fpsRaw;
    const double f_noskip =
        model.evaluate(noskip, vgg, &profile).fpsRaw;
    EXPECT_GT(f_skip, f_noskip);
    // The raw gain is bounded by 16 / EIC.
    EXPECT_LT(f_skip / f_noskip, 16.0 / 10.0);
}

TEST_F(PerfFixture, CoarserFragmentsFasterWithoutSkip)
{
    // Without zero-skip, fragment 16 halves the row groups vs 8
    // (paper Figs. 13/14: FORMS-16 no-skip > FORMS-8 no-skip).
    ArchModel f8 = ArchModel::formsFull(8, false);
    ArchModel f16 = ArchModel::formsFull(16, false);
    // Compare raw physics at equal calibration.
    f8.calibration = f16.calibration = 1.0;
    EXPECT_GT(model.evaluate(f16, vgg, &profile).fpsRaw /
                  model.evaluate(f8, vgg, &profile).fpsRaw,
              1.0);
}

TEST_F(PerfFixture, CalibratedFormsBeatsPrunedIsaac)
{
    // The paper's headline (abstract): 1.12x-2.4x FPS over optimized
    // ISAAC at almost the same power/area.
    ArchModel forms = ArchModel::formsFull(8, true);
    ArchModel pq = ArchModel::isaacPrunedQuantized();
    for (const auto &c : figure14Cases()) {
        const double r =
            model.evaluate(forms, c.workload, &c.profile).fps /
            model.evaluate(pq, c.workload, &c.profile).fps;
        EXPECT_GT(r, 1.0) << c.label;
        EXPECT_LT(r, 3.0) << c.label;
    }
}

TEST_F(PerfFixture, PumaPaysForSplitting)
{
    // Dual crossbars double n_l: PQ-PUMA below PQ-ISAAC (Table V).
    ArchModel puma = ArchModel::pumaPrunedQuantized();
    ArchModel isaac = ArchModel::isaacPrunedQuantized();
    puma.calibration = isaac.calibration = 1.0;
    EXPECT_LT(model.evaluate(puma, vgg, &profile).fpsRaw,
              model.evaluate(isaac, vgg, &profile).fpsRaw);
}

TEST_F(PerfFixture, EffectiveBitsHonoursZeroSkip)
{
    ArchModel forms = ArchModel::formsFull(8, true);
    ArchModel noskip = ArchModel::formsFull(8, false);
    EXPECT_LT(model.effectiveBitsFor(forms), 16.0);
    EXPECT_DOUBLE_EQ(model.effectiveBitsFor(noskip), 16.0);
}

TEST_F(PerfFixture, EffectiveBitsKeyedOnInputGridNotJustFragSize)
{
    // Regression: the EIC cache used to key on fragment size alone,
    // so whichever inputBits was queried first poisoned every later
    // query sharing the fragment size. An 8-bit grid has strictly
    // fewer effective cycles than the 16-bit one.
    ArchModel b16 = ArchModel::formsFull(8, true);
    ArchModel b8 = b16;
    b8.inputBits = 8;
    const double e16 = model.effectiveBitsFor(b16);
    const double e8 = model.effectiveBitsFor(b8);
    EXPECT_LT(e8, e16);
    EXPECT_LE(e8, 8.0);
    // Re-query in both orders: cached replies stay on their own grid.
    EXPECT_DOUBLE_EQ(model.effectiveBitsFor(b16), e16);
    EXPECT_DOUBLE_EQ(model.effectiveBitsFor(b8), e8);
}

TEST_F(PerfFixture, EffectiveBitsSafeUnderConcurrentQueries)
{
    // Regression: the cache was a mutable vector appended from a
    // const method with no lock — concurrent evaluate() calls raced.
    // The estimate is a deterministic fixed-seed computation, so
    // every thread must reproduce a fresh model's answer exactly.
    ArchModel b16 = ArchModel::formsFull(8, true);
    ArchModel b8 = b16;
    b8.inputBits = 8;
    const double want16 = PerfModel().effectiveBitsFor(b16);
    const double want8 = PerfModel().effectiveBitsFor(b8);
    constexpr int kThreads = 8;
    std::vector<double> got(kThreads * 2, 0.0);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&, t] {
            got[2 * t] = model.effectiveBitsFor(t % 2 ? b8 : b16);
            got[2 * t + 1] = model.effectiveBitsFor(t % 2 ? b16 : b8);
        });
    for (auto &w : workers)
        w.join();
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_DOUBLE_EQ(got[2 * t], t % 2 ? want8 : want16);
        EXPECT_DOUBLE_EQ(got[2 * t + 1], t % 2 ? want16 : want8);
    }
}

TEST_F(PerfFixture, Isaac32NeedsMostCrossbars)
{
    ArchModel b32 = ArchModel::isaac32();
    ArchModel b16 = ArchModel::isaac16();
    LayerSpec l = vgg.layers[5];
    EXPECT_GT(model.layerPerf(b32, l, nullptr).crossbars,
              model.layerPerf(b16, l, nullptr).crossbars);
}

TEST_F(PerfFixture, AreaPowerPopulated)
{
    for (const ArchModel &a :
         {ArchModel::isaac16(), ArchModel::puma16(),
          ArchModel::formsFull(8, true),
          ArchModel::formsPolarizationOnly(16)}) {
        EXPECT_GT(a.chipPowerMw, 0.0) << a.name;
        EXPECT_GT(a.chipAreaMm2, 0.0) << a.name;
    }
    auto res = model.evaluate(ArchModel::isaac16(), vgg, nullptr);
    EXPECT_GT(res.gopsPerMm2, 0.0);
    EXPECT_GT(res.gopsPerW, 0.0);
}

TEST_F(PerfFixture, ReferencePointsPresent)
{
    auto refs = tableVReferencePoints();
    EXPECT_EQ(refs.size(), 4u);
    EXPECT_EQ(refs[0].name, "DaDianNao");
}

TEST(TilePipelineModel, EmptyChipIsNeverBusy)
{
    TilePipeline tile;
    EXPECT_EQ(chipBusyNs({}, tile), 0.0);
    tile.overlap = false;
    EXPECT_EQ(chipBusyNs({}, tile), 0.0);
}

TEST(TilePipelineModel, SerialModeSumsBothPhases)
{
    TilePipeline tile;
    tile.overlap = false;
    const std::vector<PhaseInterval> phases = {
        {10.0, 100.0}, {20.0, 50.0}, {5.0, 200.0}};
    EXPECT_DOUBLE_EQ(chipBusyNs(phases, tile), 385.0);
}

TEST(TilePipelineModel, OverlapHidesQuantBehindCompute)
{
    TilePipeline tile;
    tile.overlap = true;
    // q1 + max(c1, q2) + max(c2, q3) + c3:
    // 10 + max(100, 20) + max(50, 5) + 200 = 360.
    const std::vector<PhaseInterval> phases = {
        {10.0, 100.0}, {20.0, 50.0}, {5.0, 200.0}};
    EXPECT_DOUBLE_EQ(chipBusyNs(phases, tile), 360.0);

    // Quantization dominating a link stalls the pipeline on it:
    // 10 + max(100, 300) + max(50, 5) + 200 = 560.
    const std::vector<PhaseInterval> stalled = {
        {10.0, 100.0}, {300.0, 50.0}, {5.0, 200.0}};
    EXPECT_DOUBLE_EQ(chipBusyNs(stalled, tile), 560.0);
}

TEST(TilePipelineModel, OverlapBoundedByComputeSumAndSerialSum)
{
    TilePipeline over, serial;
    over.overlap = true;
    serial.overlap = false;
    const std::vector<PhaseInterval> phases = {
        {7.0, 31.0}, {13.0, 11.0}, {29.0, 3.0}, {2.0, 17.0}};
    const double o = chipBusyNs(phases, over);
    const double s = chipBusyNs(phases, serial);
    double compute = 0.0;
    for (const auto &p : phases)
        compute += p.computeNs;
    EXPECT_LE(o, s);
    EXPECT_GE(o, compute);

    // A single node has nothing to overlap with: both modes agree.
    const std::vector<PhaseInterval> one = {{7.0, 31.0}};
    EXPECT_DOUBLE_EQ(chipBusyNs(one, over), chipBusyNs(one, serial));
}

TEST(TilePipelineModel, QuantNsScalesWithValueCount)
{
    // A 2 GHz quantizer, one value per cycle: 0.5 ns per value.
    const TilePipeline tile;
    EXPECT_EQ(tile.quantNs(0), 0.0);
    EXPECT_EQ(tile.quantNs(1), 0.5);
    EXPECT_EQ(tile.quantNs(1000), 500.0);
}

TEST(InterChipLinkModel, FixedLatencyPlusBandwidthAndPerByteEnergy)
{
    // 50 ns per hop plus bytes at 25 GB/s; 1 pJ per byte.
    EXPECT_EQ(interChipTransferNs(0), 50.0);
    EXPECT_EQ(interChipTransferNs(1000), 90.0);
    EXPECT_EQ(interChipTransferPj(0), 0.0);
    EXPECT_EQ(interChipTransferPj(1000), 1000.0);
}

TEST_F(PerfFixture, TableVOrderingFormsFullOnTop)
{
    // Table V shape: FORMS full > PQ-ISAAC > everything uncompressed.
    // Use the heavily-compressible CIFAR-10 VGG16 case (41.2x prune).
    const Workload net = vgg16Cifar();
    const CompressionProfile p{"vgg16-c10", 41.2, 8};
    const double isaac =
        model.evaluate(ArchModel::isaac16(), net, &p).gopsPerMm2;
    const double pq = model
        .evaluate(ArchModel::isaacPrunedQuantized(), net, &p).gopsPerMm2;
    const double forms16 = model
        .evaluate(ArchModel::formsFull(16, true), net, &p).gopsPerMm2;
    EXPECT_GT(pq / isaac, 10.0);
    EXPECT_GT(forms16, pq);
}

} // namespace
} // namespace forms::sim
