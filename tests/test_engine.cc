/**
 * @file
 * Tests for the functional crossbar engine: integer exactness at
 * lossless ADC resolution (parameterized over fragment sizes), bounded
 * error at the paper's reduced resolutions, zero-skip equivalence and
 * cycle savings, device-variation behaviour, the exact-integer and
 * general paths against a transcription of the double-panel column
 * loop, the lazy read-noise ADC decision against the literal chain,
 * config validation, the engine's independence from the mapping it
 * was programmed from, and the ADC-energy ledger against the literal
 * addition chain.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "arch/engine.hh"
#include "reram/faults.hh"
#include "stats_testutil.hh"

namespace forms::arch {
namespace {

using admm::FragmentPlan;
using admm::PolarizationPolicy;
using admm::WeightView;

struct TestLayer
{
    Tensor weight;
    Tensor grad;
    admm::LayerState state;

    TestLayer(int cout, int cin, int k, int frag, uint64_t seed)
        : weight({cout, cin, k, k}), grad({cout, cin, k, k})
    {
        Rng rng(seed);
        weight.fillGaussian(rng, 0.0f, 0.5f);
        state.name = "engine-test";
        state.param = {"w", &weight, &grad, true, false};
        state.plan = FragmentPlan::forConv(cout, cin, k, frag,
                                           PolarizationPolicy::WMajor);
        WeightView v = WeightView::conv(weight);
        state.signs = admm::computeSigns(v, state.plan);
        admm::projectPolarization(v, state.plan, *state.signs);
        admm::QuantSpec q;
        q.bits = 8;
        state.quantScale = admm::projectQuantize(v, q);
    }
};

MappingConfig
makeCfg(int frag)
{
    MappingConfig cfg;
    cfg.xbarRows = 32;
    cfg.xbarCols = 32;
    cfg.weightBits = 8;
    cfg.cellBits = 2;
    cfg.inputBits = 12;
    cfg.fragSize = frag;
    return cfg;
}

std::vector<uint32_t>
randomInputs(size_t n, int bits, uint64_t seed, double zero_frac = 0.3)
{
    Rng rng(seed);
    std::vector<uint32_t> v(n);
    for (auto &x : v) {
        if (rng.bernoulli(zero_frac)) {
            x = 0;
        } else {
            // Heavy-tailed small values like real activations.
            const double val = std::exp(rng.gaussian(3.0, 1.5));
            x = static_cast<uint32_t>(
                std::min(val, std::pow(2.0, bits) - 1));
        }
    }
    return v;
}

/** Stream keys 0..n-1. */
std::vector<uint64_t>
keysUpTo(size_t n)
{
    std::vector<uint64_t> keys(n);
    for (size_t j = 0; j < n; ++j)
        keys[j] = j;
    return keys;
}

class EngineExactnessTest : public ::testing::TestWithParam<int>
{
};

TEST_P(EngineExactnessTest, LosslessAdcIsIntegerExact)
{
    const int frag = GetParam();
    TestLayer layer(10, 4, 3, frag, 100 + frag);
    MappingConfig mcfg = makeCfg(frag);
    MappedLayer mapped = mapLayer(layer.state, mcfg);

    EngineConfig ecfg;
    ecfg.adcBits = 0;   // lossless
    CrossbarEngine engine(mapped, ecfg);

    auto inputs = randomInputs(36, mcfg.inputBits, 7);
    auto got = presentOne(engine, inputs);
    auto expect = referenceMvm(mapped, inputs);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_DOUBLE_EQ(got[i], static_cast<double>(expect[i]))
            << "output " << i;
}

TEST_P(EngineExactnessTest, BatchedLosslessAdcIsIntegerExact)
{
    const int frag = GetParam();
    TestLayer layer(10, 4, 3, frag, 300 + frag);
    MappingConfig mcfg = makeCfg(frag);
    MappedLayer mapped = mapLayer(layer.state, mcfg);

    EngineConfig ecfg;
    ecfg.adcBits = 0;   // lossless
    CrossbarEngine engine(mapped, ecfg);

    std::vector<std::vector<uint32_t>> batch;
    for (uint64_t s = 0; s < 6; ++s)
        batch.push_back(randomInputs(36, mcfg.inputBits, 20 + s));

    ThreadPool pool(4);
    auto got = engine.mvmKeyed(batch, 0, batch.size(),
                               keysUpTo(batch.size()).data(), nullptr,
                               nullptr, &pool);
    ASSERT_EQ(got.size(), batch.size());
    for (size_t b = 0; b < batch.size(); ++b) {
        auto expect = referenceMvm(mapped, batch[b]);
        ASSERT_EQ(got[b].size(), expect.size());
        for (size_t i = 0; i < got[b].size(); ++i)
            EXPECT_DOUBLE_EQ(got[b][i], static_cast<double>(expect[i]))
                << "presentation " << b << " output " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(FragSizes, EngineExactnessTest,
                         ::testing::Values(4, 8, 16, 32));

TEST(Engine, ZeroSkipDoesNotChangeResults)
{
    TestLayer layer(8, 4, 3, 8, 11);
    MappedLayer mapped = mapLayer(layer.state, makeCfg(8));

    EngineConfig with, without;
    with.zeroSkip = true;
    without.zeroSkip = false;
    CrossbarEngine e1(mapped, with), e2(mapped, without);

    auto inputs = randomInputs(36, 12, 8);
    EngineStats s1, s2;
    auto r1 = presentOne(e1, inputs, &s1);
    auto r2 = presentOne(e2, inputs, &s2);
    ASSERT_EQ(r1.size(), r2.size());
    for (size_t i = 0; i < r1.size(); ++i)
        EXPECT_DOUBLE_EQ(r1[i], r2[i]);
    // ...but it must save cycles on sparse/small inputs.
    EXPECT_LT(s1.bitCycles, s2.bitCycles);
    EXPECT_GT(s1.skippedCycles, 0u);
    EXPECT_EQ(s2.skippedCycles, 0u);
}

TEST(Engine, SmallerFragmentsSkipMore)
{
    // The unique-opportunity claim (paper §IV-B): skip fraction grows
    // as fragments shrink.
    auto skip_fraction = [](int frag) {
        TestLayer layer(8, 8, 3, frag, 200);
        MappedLayer mapped = mapLayer(layer.state, makeCfg(frag));
        EngineConfig cfg;
        CrossbarEngine engine(mapped, cfg);
        auto inputs = randomInputs(72, 12, 9);
        EngineStats stats;
        presentOne(engine, inputs, &stats);
        return stats.skipFraction();
    };
    const double f4 = skip_fraction(4);
    const double f32 = skip_fraction(32);
    EXPECT_GT(f4, f32);
}

TEST(Engine, PaperAdcResolutionErrorIsBounded)
{
    TestLayer layer(8, 4, 3, 8, 13);
    MappedLayer mapped = mapLayer(layer.state, makeCfg(8));

    EngineConfig paper;
    paper.adcBits = 4;   // the paper's choice for fragment size 8
    CrossbarEngine engine(mapped, paper);

    auto inputs = randomInputs(36, 12, 10);
    auto got = presentOne(engine, inputs);
    auto expect = referenceMvm(mapped, inputs);

    double rel = 0.0;
    double norm = 0.0;
    for (size_t i = 0; i < got.size(); ++i) {
        rel += std::fabs(got[i] - static_cast<double>(expect[i]));
        norm += std::fabs(static_cast<double>(expect[i]));
    }
    ASSERT_GT(norm, 0.0);
    // 4-bit conversion of a 0..24 range loses fine codes; trained
    // (polarized, small-magnitude) weights keep the error modest.
    EXPECT_LT(rel / norm, 0.25);
}

TEST(Engine, VariationPerturbsOutputs)
{
    TestLayer layer(8, 4, 3, 8, 17);
    MappedLayer mapped = mapLayer(layer.state, makeCfg(8));

    EngineConfig ideal, noisy;
    noisy.cell.variationSigma = 0.1;
    CrossbarEngine e_ideal(mapped, ideal), e_noisy(mapped, noisy);

    auto inputs = randomInputs(36, 12, 11, 0.0);
    auto r_ideal = presentOne(e_ideal, inputs);
    auto r_noisy = presentOne(e_noisy, inputs);
    double diff = 0.0, norm = 0.0;
    for (size_t i = 0; i < r_ideal.size(); ++i) {
        diff += std::fabs(r_ideal[i] - r_noisy[i]);
        norm += std::fabs(r_ideal[i]);
    }
    EXPECT_GT(diff, 0.0);
    EXPECT_LT(diff / norm, 0.5);
}

TEST(Engine, StatsAccounting)
{
    TestLayer layer(8, 4, 3, 8, 19);
    MappedLayer mapped = mapLayer(layer.state, makeCfg(8));
    EngineConfig cfg;
    cfg.zeroSkip = false;
    CrossbarEngine engine(mapped, cfg);
    auto inputs = randomInputs(36, 12, 12);
    EngineStats stats;
    presentOne(engine, inputs, &stats);

    // Without skipping: bit cycles = sum over crossbars and fragments
    // of inputBits.
    uint64_t expect_cycles = 0;
    for (const auto &xb : mapped.crossbars)
        expect_cycles += static_cast<uint64_t>(xb.fragsUsed) * 12;
    EXPECT_EQ(stats.bitCycles, expect_cycles);
    EXPECT_GT(stats.adcSamples, stats.bitCycles);
    EXPECT_GT(stats.adcEnergyPj, 0.0);
    EXPECT_GT(stats.timeNs, 0.0);
    EXPECT_EQ(stats.presentations, 1u);
}

/**
 * The engine owns its program: after construction it reads nothing of
 * the mapping it was programmed from. A block run again after that
 * mapping was cleared and reassigned another layer's, and again after
 * it was destroyed, must give the first run's outputs and stats bit for
 * bit, on exact tiles and on noisy ones.
 */
TEST(Engine, OwnsItsProgram)
{
    TestLayer layer(6, 5, 3, 8, 800);   // 45 rows: two crossbars
    TestLayer other(4, 2, 3, 8, 801);   // 18 rows: one crossbar
    EngineConfig noisy;
    noisy.adcBits = 4;
    noisy.cell.variationSigma = 0.1;
    noisy.readNoiseSigma = 0.05;
    for (const EngineConfig &ecfg : {EngineConfig{}, noisy}) {
        SCOPED_TRACE(testing::Message()
                     << "readNoise " << ecfg.readNoiseSigma);
        auto mapped = std::make_unique<MappedLayer>(
            mapLayer(layer.state, makeCfg(8)));
        const CrossbarEngine engine(*mapped, ecfg);
        EXPECT_EQ(engine.exactCrossbars(),
                  ecfg.readNoiseSigma == 0.0 ? 2 : 0);

        const size_t n = 5, rows = 45;
        std::vector<uint32_t> block;
        for (uint64_t j = 0; j < n; ++j) {
            const auto v = randomInputs(rows, 12, 90 + j);
            block.insert(block.end(), v.begin(), v.end());
        }
        const auto keys = keysUpTo(n);
        const size_t ext = static_cast<size_t>(engine.outputExtent());
        ThreadPool pool(3);
        auto run = [&](EngineStats &stats) {
            std::vector<double> out(n * ext);
            engine.mvmBlock(block.data(), rows, 0, n, keys.data(),
                            out.data(), ext, &stats, nullptr, &pool);
            return out;
        };
        EngineStats first_stats;
        const auto first = run(first_stats);

        mapped->crossbars.clear();
        *mapped = mapLayer(other.state, makeCfg(8));
        EngineStats reassigned_stats;
        const auto reassigned = run(reassigned_stats);
        ASSERT_EQ(reassigned.size(), first.size());
        EXPECT_EQ(std::memcmp(reassigned.data(), first.data(),
                              first.size() * sizeof(double)), 0);
        expectStatsIdentical(reassigned_stats, first_stats);

        mapped.reset();
        EngineStats destroyed_stats;
        const auto destroyed = run(destroyed_stats);
        EXPECT_EQ(std::memcmp(destroyed.data(), first.data(),
                              first.size() * sizeof(double)), 0);
        expectStatsIdentical(destroyed_stats, first_stats);
    }
}

/**
 * Test-local transcription of the engine's general column loop, the
 * only loop before the exact-integer path existed: program every
 * crossbar into a double row-panel tile (same variation draw order,
 * same fault overlay), then per (fragment, bit) add the active rows'
 * panels, draw the read noise, convert each column sum with
 * reram::adcRead and add the per-sample ADC energy one sample at a
 * time.
 */
class PanelReference
{
  public:
    PanelReference(const MappedLayer &layer, const EngineConfig &cfg,
                   const reram::FaultMap *faults, uint64_t fault_key)
        : layer_(layer), cfg_(cfg),
          adc_({cfg.adcBits > 0
                    ? cfg.adcBits
                    : reram::AdcModel::losslessBits(layer.cfg.fragSize,
                                                    layer.cfg.cellBits),
                kAdcFreqGhz})
    {
        const int max_level = (1 << layer.cfg.cellBits) - 1;
        const int frag_max = layer.cfg.fragSize * max_level;
        fullScale_ = static_cast<double>(
            std::max(frag_max, adc_.config().codes() - 1));
        const int cells = layer.cfg.cellsPerWeight();
        const double sample_ns = adc_.sampleTimeNs();
        Rng rng(kVariationSeed);
        for (size_t xi = 0; xi < layer.crossbars.size(); ++xi) {
            const auto &xb = layer.crossbars[xi];
            const int cols = xb.weightCols * cells;
            std::vector<double> lvl(static_cast<size_t>(xb.rows * cols));
            for (int r = 0; r < xb.rows; ++r)
                for (int wc = 0; wc < xb.weightCols; ++wc) {
                    const auto levels = reram::sliceMagnitude(
                        xb.mag(r, wc), layer.cfg.weightBits,
                        layer.cfg.cellBits);
                    for (int s = 0; s < cells; ++s)
                        lvl[static_cast<size_t>(r * cols + wc * cells + s)] =
                            reram::programLevel(
                                levels[static_cast<size_t>(s)], max_level,
                                cfg.cell, &rng);
                }
            if (faults && faults->config().any()) {
                const reram::CrossbarFaults f = faults->draw(
                    fault_key, xb.physId >= 0 ? xb.physId
                                              : static_cast<int>(xi),
                    layer.cfg.xbarRows, layer.cfg.xbarCols);
                for (int r = 0; r < xb.rows; ++r)
                    for (int cc = 0; cc < cols; ++cc) {
                        double &v = lvl[static_cast<size_t>(r * cols + cc)];
                        if (f.columnDead(cc))
                            v = 0.0;
                        else if (f.at(r, cc) == reram::FaultKind::StuckLrs)
                            v = max_level;
                        else if (f.at(r, cc) == reram::FaultKind::StuckHrs)
                            v = 0.0;
                        else if (f.at(r, cc) == reram::FaultKind::Drift)
                            v *= f.driftAt(r, cc);
                    }
            }
            std::vector<double> epj;
            for (int fr = 0; fr < xb.fragsUsed; ++fr)
                epj.push_back(reram::readEnergyPj(
                    std::min(layer.cfg.fragSize,
                             xb.rows - fr * layer.cfg.fragSize),
                    std::max(1, cols), sample_ns));
            for (int idx : xb.outputIndex)
                extent_ = std::max(extent_, idx + 1);
            worstStepNs_ = std::max(
                worstStepNs_,
                std::ceil(static_cast<double>(cols) /
                          static_cast<double>(kAdcsPerCrossbar)) *
                    sample_ns);
            lvl_.push_back(std::move(lvl));
            epj_.push_back(std::move(epj));
        }
    }

    std::vector<double>
    mvm(const std::vector<uint32_t> &inputs, uint64_t key,
        EngineStats &stats) const
    {
        std::vector<double> out(static_cast<size_t>(extent_), 0.0);
        const int m = layer_.cfg.fragSize;
        const int cells = layer_.cfg.cellsPerWeight();
        const int in_bits = layer_.cfg.inputBits;
        const double adc_epj = adc_.energyPerSamplePj();
        const int adc_top = adc_.config().codes() - 1;
        const double adc_step = fullScale_ / static_cast<double>(adc_top);
        Rng pres_rng(
            CrossbarEngine::presentationSeed(kVariationSeed, key));
        EngineStats local;
        local.presentations = 1;
        for (size_t xi = 0; xi < layer_.crossbars.size(); ++xi) {
            const auto &xb = layer_.crossbars[xi];
            const int cols = xb.weightCols * cells;
            std::vector<double> acc(static_cast<size_t>(cols));
            std::vector<double> bit_sum(static_cast<size_t>(cols));
            for (int f = 0; f < xb.fragsUsed; ++f) {
                const int r0 = f * m;
                const int rows_here = std::min(m, xb.rows - r0);
                uint32_t merged = 0;
                for (int r = r0; r < r0 + rows_here; ++r)
                    merged |= inputs[static_cast<size_t>(
                        xb.inputIndex[static_cast<size_t>(r)])];
                const int eic =
                    cfg_.zeroSkip ? effectiveBits(merged) : in_bits;
                local.skippedCycles += static_cast<uint64_t>(in_bits - eic);
                std::fill(acc.begin(), acc.end(), 0.0);
                for (int p = eic - 1; p >= 0; --p) {
                    ++local.bitCycles;
                    local.crossbarEnergyPj +=
                        epj_[xi][static_cast<size_t>(f)];
                    std::fill(bit_sum.begin(), bit_sum.end(), 0.0);
                    for (int r = r0; r < r0 + rows_here; ++r) {
                        if (!((inputs[static_cast<size_t>(
                                   xb.inputIndex[static_cast<size_t>(r)])] >>
                               p) & 1u))
                            continue;
                        for (int cc = 0; cc < cols; ++cc)
                            bit_sum[static_cast<size_t>(cc)] +=
                                lvl_[xi][static_cast<size_t>(r * cols + cc)];
                    }
                    for (int cc = 0; cc < cols; ++cc) {
                        double analog = bit_sum[static_cast<size_t>(cc)];
                        if (cfg_.readNoiseSigma > 0.0)
                            analog *=
                                pres_rng.lognormal(0.0, cfg_.readNoiseSigma);
                        acc[static_cast<size_t>(cc)] +=
                            reram::adcRead(analog, adc_step, adc_top) *
                            std::pow(2.0, p);
                        ++local.adcSamples;
                        local.adcEnergyPj += adc_epj;
                    }
                }
                for (int wc = 0; wc < xb.weightCols; ++wc) {
                    double weight_sum = 0.0;
                    for (int s = 0; s < cells; ++s)
                        weight_sum +=
                            acc[static_cast<size_t>(wc * cells + s)] *
                            std::pow(2.0, s * layer_.cfg.cellBits);
                    out[static_cast<size_t>(
                        xb.outputIndex[static_cast<size_t>(wc)])] +=
                        static_cast<double>(xb.sign(wc, f)) * weight_sum;
                }
            }
        }
        local.timeNs = worstStepNs_ * static_cast<double>(local.bitCycles) /
            std::max<double>(1.0,
                             static_cast<double>(layer_.crossbars.size()));
        stats.merge(local);
        return out;
    }

  private:
    const MappedLayer &layer_;
    EngineConfig cfg_;
    reram::AdcModel adc_;
    double fullScale_ = 0.0;
    std::vector<std::vector<double>> lvl_;
    std::vector<std::vector<double>> epj_;
    int extent_ = 0;
    double worstStepNs_ = 0.0;
};

/**
 * Run three random presentations through the engine (batched, on
 * several threads) and through PanelReference, both programmed with
 * `faults` under `fault_key`, and require the outputs and the merged
 * stats to match bit for bit.
 */
void
expectMatchesPanelReference(const MappedLayer &mapped,
                            const EngineConfig &ecfg, uint64_t seed,
                            const reram::FaultMap *faults = nullptr,
                            uint64_t fault_key = 0)
{
    CrossbarEngine engine(mapped, ecfg, faults, fault_key);
    PanelReference ref(mapped, ecfg, faults, fault_key);
    int n_inputs = 0;
    for (const auto &xb : mapped.crossbars)
        for (int idx : xb.inputIndex)
            n_inputs = std::max(n_inputs, idx + 1);
    std::vector<std::vector<uint32_t>> batch;
    for (uint64_t j = 0; j < 3; ++j)
        batch.push_back(randomInputs(static_cast<size_t>(n_inputs),
                                     mapped.cfg.inputBits,
                                     seed + j, 0.2 * static_cast<double>(j)));
    ThreadPool pool(3);
    EngineStats got_stats, want_stats;
    const auto got = engine.mvmKeyed(batch, 0, batch.size(),
                                     keysUpTo(batch.size()).data(),
                                     &got_stats, nullptr, &pool);
    for (size_t j = 0; j < batch.size(); ++j) {
        const auto want = ref.mvm(batch[j], j, want_stats);
        ASSERT_EQ(got[j].size(), want.size());
        for (size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(got[j][i], want[i])
                << "presentation " << j << " output " << i;
    }
    expectStatsIdentical(got_stats, want_stats);
}

TEST(Engine, ExactPathMatchesPanelLoopBitwise)
{
    // 5 x 3 x 3 = 45 rows on 32-row crossbars: the second crossbar's
    // 13 rows end in a partial fragment (and a partial 4-row group)
    // at every fragment size.
    enum class Fault { None, StuckLrs, StuckHrs, DeadColumn };
    for (int frag : {4, 8, 16}) {
        TestLayer layer(6, 5, 3, frag, 500 + frag);
        const MappedLayer mapped = mapLayer(layer.state, makeCfg(frag));
        for (int adc_bits : {4, 0})
            for (bool skip : {true, false})
                for (Fault fk : {Fault::None, Fault::StuckLrs,
                                 Fault::StuckHrs, Fault::DeadColumn}) {
                    SCOPED_TRACE(testing::Message()
                                 << "frag " << frag << " adcBits "
                                 << adc_bits << " zeroSkip " << skip
                                 << " fault " << static_cast<int>(fk));
                    reram::FaultConfig fc;
                    fc.stuckLrsRate = fk == Fault::StuckLrs ? 0.05 : 0.0;
                    fc.stuckHrsRate = fk == Fault::StuckHrs ? 0.05 : 0.0;
                    fc.columnKillRate =
                        fk == Fault::DeadColumn ? 0.1 : 0.0;
                    const reram::FaultMap fmap(fc);
                    EngineConfig ecfg;
                    ecfg.adcBits = adc_bits;
                    ecfg.zeroSkip = skip;
                    CrossbarEngine engine(mapped, ecfg, &fmap, 3);
                    EXPECT_EQ(engine.exactCrossbars(),
                              static_cast<int64_t>(mapped.crossbars.size()));
                    if (fk != Fault::None) {
                        EXPECT_GT(engine.faultyCrossbars(), 0);
                    }
                    expectMatchesPanelReference(mapped, ecfg,
                                                40 + frag + adc_bits,
                                                &fmap, 3);
                }
    }
}

TEST(Engine, GeneralPathMatchesPanelLoopBitwise)
{
    // Variation, drift and read noise each leave the exact path; the
    // general loop's lazy ADC decision must still equal the
    // transcription. 2-bit cells give 4 cells per weight (even
    // cellCols); 3-bit cells with 5 weight columns give 15, so the
    // polar spare crosses bit steps, fragments and crossbars. Read
    // noise 0.02 is the benchmark's, 0.5 sends many samples past the
    // exp polynomial's range, and at 60 exp(sigma * g) can overflow.
    reram::FaultConfig drift;
    drift.driftRate = 0.2;
    const reram::FaultMap drift_map(drift);
    for (int cell_bits : {2, 3}) {
        TestLayer layer(cell_bits == 2 ? 6 : 5, 5, 3, 8, 600);
        MappingConfig mcfg = makeCfg(8);
        mcfg.cellBits = cell_bits;
        const MappedLayer mapped = mapLayer(layer.state, mcfg);
        if (cell_bits == 3) {
            EXPECT_EQ(mapped.crossbars[0].weightCols * 3 % 2, 1);
        }
        // Each case: an engine config and the fault map it runs under.
        std::vector<std::pair<EngineConfig, const reram::FaultMap *>>
            cases(2);
        cases[0].first.cell.variationSigma = 0.1;
        cases[1].second = &drift_map;
        for (double sigma : {0.02, 0.05, 0.5, 60.0}) {
            cases.emplace_back();
            cases.back().first.readNoiseSigma = sigma;
        }
        for (auto [c, faults] : cases)
            for (int adc_bits : {3, 4, 0})
                for (bool skip : {true, false}) {
                    c.adcBits = adc_bits;
                    c.zeroSkip = skip;
                    SCOPED_TRACE(testing::Message()
                                 << "cellBits " << cell_bits
                                 << " variation " << c.cell.variationSigma
                                 << " drift " << (faults != nullptr)
                                 << " readNoise " << c.readNoiseSigma
                                 << " adcBits " << adc_bits
                                 << " zeroSkip " << skip);
                    EXPECT_EQ(CrossbarEngine(mapped, c, faults)
                                  .exactCrossbars(),
                              0);
                    expectMatchesPanelReference(mapped, c, 70, faults);
                }
    }
}

/** The ADC grid an engine derives for 8-row fragments of 2-bit cells. */
struct AdcGrid
{
    int bits;     //!< 0 = lossless
    int top = 0;
    double step = 0.0;

    explicit AdcGrid(int b) : bits(b)
    {
        const int codes =
            1 << (b > 0 ? b : reram::AdcModel::losslessBits(8, 2));
        top = codes - 1;
        step = static_cast<double>(std::max(24, top)) /
            static_cast<double>(top);
    }
};

/**
 * LazyAdc::convert against the literal chain -- Rng::lognormal, then
 * reram::adcRead -- on 10^6 real draws for each noise sigma and ADC:
 * odd and even column counts, so the spare carries between calls, and
 * some zero column sums. At the benchmark's sigma = 0.02 under 1% of
 * the samples may take the literal chain.
 */
TEST(Engine, LazyAdcMatchesLiteralChain)
{
    const size_t widths[] = {1, 7, 64, 255, 256};
    for (int bits : {3, 4, 0}) {
        const AdcGrid grid(bits);
        for (double sigma : {0.02, 0.05, 0.5, 60.0}) {
            SCOPED_TRACE(testing::Message()
                         << "adcBits " << bits << " sigma " << sigma);
            const LazyAdc lazy(sigma, grid.step, grid.top);
            LazyAdc::Stream stream(42);
            Rng ref(42), gen(43);
            size_t total = 0, literal = 0;
            bool same = true;
            for (int call = 0; total < 1000000 && same; ++call) {
                const size_t cols = widths[call % 5];
                const double bw = std::ldexp(1.0, call % 8);
                std::vector<double> analog(cols), got(cols, 0.0),
                    want(cols, 0.0);
                for (double &a : analog)
                    a = gen.bernoulli(0.1)
                        ? 0.0
                        : gen.uniform(0.0, 1.2 * grid.step * grid.top);
                literal += lazy.convert(analog.data(), cols, bw, stream,
                                        got.data());
                for (size_t c = 0; c < cols; ++c) {
                    want[c] += reram::adcRead(
                                   analog[c] * ref.lognormal(0.0, sigma),
                                   grid.step, grid.top) * bw;
                    if (got[c] != want[c]) {
                        ADD_FAILURE() << "call " << call << " column " << c
                                      << " analog " << analog[c] << ": "
                                      << got[c] << " != " << want[c];
                        same = false;
                        break;
                    }
                }
                total += cols;
            }
            EXPECT_EQ(stream.rng.next(), ref.next());
            if (sigma == 0.02) {
                EXPECT_LT(literal * 100, total) << literal << " of " << total;
            }
            if (sigma >= 0.5) {
                EXPECT_GT(literal, 0u);
            }
        }
    }
}

/**
 * LazyAdc::resolve on hand-placed pairs and column sums: each sample's
 * noisy sum lands within 1e-15 .. 1e-6 relative of every code
 * boundary, so the literal chain must decide it, and the code must be
 * the literal one. The pairs include real draws, s within 2^-40 of 1
 * (ln s cancels, m -> 0), s within 2^-7 of 1 (where sigma = 3 meets
 * the polynomial's range) and s = 2^-104 (|g| near 12, the polar
 * method's largest). sigma = 0 is the noise-free general tile.
 */
TEST(Engine, LazyAdcFallsBackAtCodeBoundaries)
{
    std::vector<double> uv, s;
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        Rng::PolarAttempt a = rng.polarAttempt();
        while (!Rng::polarAccepts(a.s))
            a = rng.polarAttempt();
        uv.insert(uv.end(), {a.u, a.v});
        s.push_back(a.s);
    }
    for (int i = 1; i <= 64; ++i) {
        uv.insert(uv.end(), {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
        s.push_back(1.0 - std::ldexp(static_cast<double>(i * i), -53));
        // The ln series' cell next to 1 (s >= 1 - 2^-9) and the cells
        // below it: at sigma = 3, |sigma * g| reaches 0.24 here.
        uv.insert(uv.end(), {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
        s.push_back(1.0 - std::ldexp(static_cast<double>(i), -13));
    }
    for (double a : {1.0, -1.0}) {
        uv.insert(uv.end(), {a * 0x1p-52, 0.0});
        s.push_back(0x1p-104);
    }
    uv.insert(uv.end(), {0x1p-52, -0x1p-52});
    s.push_back(0x1p-103);

    const double rhos[] = {0.0, 1e-15, -1e-15, 1e-12, -1e-12,
                           1e-9, -1e-9, 1e-6, -1e-6};
    for (int bits : {3, 4, 0}) {
        const AdcGrid grid(bits);
        for (double sigma : {0.0, 0.019, 0.02, 0.05, 0.5, 3.0, 60.0}) {
            SCOPED_TRACE(testing::Message()
                         << "adcBits " << bits << " sigma " << sigma);
            const LazyAdc lazy(sigma, grid.step, grid.top);
            const size_t samples = sigma == 0.0 ? 1 : uv.size();
            size_t mismatches = 0, fast = 0;
            for (size_t t = 0; t < samples; ++t) {
                const double *pair_uv = uv.data() + 2 * (t / 2);
                const double *pair_s = s.data() + t / 2;
                const double factor = sigma == 0.0 ? 1.0
                    : std::exp(0.0 + sigma * (uv[t] *
                                              Rng::polarScale(s[t / 2])));
                for (int k = 1; k <= grid.top; ++k)
                    for (double rho : rhos) {
                        const double analog = (k - 0.5) * grid.step /
                            factor * (1.0 + rho);
                        double got = 0.0;
                        const size_t literal = lazy.resolve(
                            &analog, 1, 1.0, pair_uv, pair_s, t % 2, &got);
                        // A factor of 0 or inf leaves no boundary.
                        if (std::isnormal(analog))
                            fast += 1 - literal;
                        const double want = reram::adcRead(
                            analog * factor, grid.step, grid.top);
                        mismatches += got != want;
                    }
            }
            EXPECT_EQ(mismatches, 0u);
            EXPECT_EQ(fast, 0u);
        }
    }
}

TEST(Engine, ValidateNamesTheBadField)
{
    TestLayer layer(4, 3, 3, 8, 7);
    const MappedLayer mapped = mapLayer(layer.state, makeCfg(8));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad : {-0.1, nan, inf}) {
        EngineConfig c;
        c.readNoiseSigma = bad;
        EXPECT_DEATH(CrossbarEngine(mapped, c), "readNoiseSigma");
        c = EngineConfig();
        c.cell.variationSigma = bad;
        EXPECT_DEATH(CrossbarEngine(mapped, c), "cell\\.variationSigma");
    }
    for (int bad : {-1, 31}) {
        EngineConfig c;
        c.adcBits = bad;
        EXPECT_DEATH(CrossbarEngine(mapped, c), "adcBits");
    }
    EngineConfig c;
    c.adcBits = 30;
    EXPECT_EQ(CrossbarEngine(mapped, c).adcBitsInUse(), 30);

    // The layer's mapping is checked too, before the lossless ADC width
    // is derived from it: cellBits = 0 would otherwise slice by zero.
    MappedLayer spoiled = mapped;
    spoiled.cfg.cellBits = 0;
    EXPECT_DEATH(CrossbarEngine(spoiled, EngineConfig()),
                 "MappingConfig::cellBits");
}

TEST(Engine, RepeatedSumEqualsAdditionChain)
{
    constexpr uint64_t kMaxN = uint64_t{1} << 20;
    std::vector<double> steps = {1.5, 0.75, 0.1, 3.0 / 64.0,
                                 std::ldexp(5.0, -9), 1.0};
    // Odd significands of 34..50 bits reach the binade where e / ulp
    // ends in one half (a tie binade) within 2^20 steps.
    for (int j : {33, 40, 47, 50})
        steps.push_back(1.0 + std::ldexp(1.0, -j));
    steps.push_back(std::ldexp(0x1.8000000000ab3p0, -7));
    Rng rng(77);
    for (int i = 0; i < 6; ++i)
        steps.push_back(rng.uniform(0.0, 1.0) *
                        std::pow(10.0, rng.uniform(-6.0, 3.0)));

    uint64_t tie_steps = 0;
    for (double e : steps) {
        SCOPED_TRACE(testing::Message() << std::hexfloat << "e " << e);
        const RepeatedSum ledger(e, kMaxN);
        EXPECT_LT(ledger.segments(), 300u);
        double r = 0.0;
        for (uint64_t n = 0; n <= kMaxN; ++n) {
            const double got = ledger.at(n);
            if (got != r) {
                ADD_FAILURE() << "n " << n << ": " << got << " != " << r;
                break;
            }
            if (r > 0.0) {
                const double q = e / (std::nextafter(r, INFINITY) - r);
                tie_steps += q - std::floor(q) == 0.5;
            }
            r += e;
        }
    }
    EXPECT_GT(tie_steps, 0u);
    // e = 0 never moves.
    EXPECT_EQ(RepeatedSum(0.0, 10).at(10), 0.0);
}

TEST(Engine, QuantizeActivationsSaturatesNonFinite)
{
    const float inf = std::numeric_limits<float>::infinity();
    const std::vector<float> x = {0.4f, 1.0f, inf,
                                  std::numeric_limits<float>::quiet_NaN(),
                                  -inf};
    std::vector<uint32_t> q(x.size());
    const float scale = quantizeActivations(x.data(), x.size(), 4, q.data());
    EXPECT_EQ(q, (std::vector<uint32_t>{6, 15, 15, 15, 0}));
    EXPECT_FLOAT_EQ(scale, 1.0f / 15.0f);
}

TEST(Engine, QuantizeActivationsRoundTrip)
{
    std::vector<float> x = {0.0f, -0.5f, 1.0f, 0.25f};
    std::vector<uint32_t> q(x.size());
    const float scale = quantizeActivations(x.data(), x.size(), 8, q.data());
    EXPECT_EQ(q[0], 0u);
    EXPECT_EQ(q[1], 0u);   // negatives clamp (post-ReLU convention)
    EXPECT_EQ(q[2], 255u);
    EXPECT_NEAR(static_cast<float>(q[3]) * scale, 0.25f, scale);
}

/**
 * Literal std::lround transcriptions of the two quantizers as they
 * were written before the branch-free pointer forms: the reference the
 * pointer forms must equal bit for bit.
 */
std::vector<uint32_t>
lroundPerPresentation(const std::vector<float> &x, int bits, float *scale_out)
{
    float mx = 0.0f;
    for (float v : x)
        if (std::isfinite(v))
            mx = std::max(mx, v);
    const uint32_t qmax = (1u << bits) - 1;
    const float scale = mx > 0.0f ? mx / static_cast<float>(qmax) : 1.0f;
    std::vector<uint32_t> q(x.size(), 0);
    for (size_t i = 0; i < x.size(); ++i) {
        const float v = x[i];
        if (v <= 0.0f)
            continue;
        q[i] = std::isfinite(v)
            ? std::min<uint32_t>(
                  qmax, static_cast<uint32_t>(std::lround(v / scale)))
            : qmax;
    }
    *scale_out = scale;
    return q;
}

std::vector<uint32_t>
lroundStatic(const std::vector<float> &x, int bits, float scale,
             uint64_t *clipped_out)
{
    const uint32_t qmax = (1u << bits) - 1;
    std::vector<uint32_t> q(x.size(), 0);
    for (size_t i = 0; i < x.size(); ++i) {
        const float v = x[i];
        if (v <= 0.0f)
            continue;
        const double code = static_cast<double>(v) /
            static_cast<double>(scale);
        if (!(code < static_cast<double>(qmax) + 0.5)) {
            q[i] = qmax;
            ++*clipped_out;
        } else {
            q[i] = static_cast<uint32_t>(std::lround(code));
        }
    }
    return q;
}

/** Pointer quantizers vs the lround transcriptions on one vector. */
void
expectQuantizersMatchLround(const std::vector<float> &x, int bits,
                            float static_scale)
{
    SCOPED_TRACE(::testing::Message() << bits << " bits, static scale "
                                      << static_scale);
    float want_scale = 0.0f;
    const auto want = lroundPerPresentation(x, bits, &want_scale);
    std::vector<uint32_t> got(x.size(), 0xdeadbeefu);
    const float got_scale =
        quantizeActivations(x.data(), x.size(), bits, got.data());
    EXPECT_EQ(got, want);
    EXPECT_EQ(std::memcmp(&got_scale, &want_scale, sizeof got_scale), 0);

    uint64_t want_clipped = 0;
    const auto want_s = lroundStatic(x, bits, static_scale, &want_clipped);
    std::vector<uint32_t> got_s(x.size(), 0xdeadbeefu);
    const uint64_t got_clipped = quantizeActivationsStatic(
        x.data(), x.size(), bits, static_scale, got_s.data());
    EXPECT_EQ(got_s, want_s);
    EXPECT_EQ(got_clipped, want_clipped);
}

TEST(Engine, PointerQuantizersEqualLroundOnEdgeCases)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float denorm = std::numeric_limits<float>::denorm_min();
    for (int bits : {1, 8, 31}) {
        const uint32_t qmax = (1u << bits) - 1;
        const auto fq = static_cast<float>(qmax);
        // Static grid of step 1: codes are the values themselves, so
        // k + 0.5 halves, 0.49999997f and qmax +- 0.5 land exactly.
        std::vector<float> x = {0.0f, -0.0f, -1.0f, -inf, 0.5f, 1.5f,
                                2.5f, 0.49999997f, 0.50000006f, fq,
                                fq - 0.5f, fq + 0.5f, fq + 1.0f,
                                2.0f * fq, inf, nan, denorm,
                                1e-38f, 3.0f, 1e30f, -nan};
        for (float k = 0.5f; k < 64.0f; k += 1.0f)
            x.push_back(k);
        expectQuantizersMatchLround(x, bits, 1.0f);
        // Static grid of step 0.1 (inexact in binary): halves of the
        // grid meet the double quotient's rounding.
        expectQuantizersMatchLround(x, bits, 0.1f);
        // A denormal scale pushes every positive code past the grid.
        expectQuantizersMatchLround(x, bits, denorm);

        // Per-presentation grids set by finite maxima: the largest
        // value maps to qmax, the others land on its grid, with
        // halves, the near-halves and denormals in between.
        for (float mx : {1.0f, 3.0f, 255.0f, 1e-30f}) {
            std::vector<float> y = {0.0f, -0.0f, -2.0f, mx, mx * 0.5f,
                                    mx / fq * 0.5f, mx / fq * 1.5f,
                                    mx / fq * 0.49999997f, denorm,
                                    inf, nan, -inf, mx * 0.999f};
            expectQuantizersMatchLround(y, bits, mx / fq);
        }
        // All-denormal presentation on a representable grid (for 31
        // bits the quotient of a denormal max underflows to a zero
        // scale, where the lround form is undefined; skip it there).
        if (bits < 31) {
            std::vector<float> d = {denorm, 3 * denorm, 1e-40f, 0.0f,
                                    -denorm};
            expectQuantizersMatchLround(d, bits, 1e-40f);
        }
    }
}

/**
 * The quantizer loops as written before they were made branch-free,
 * transcribed scalar: the references the vectorized loops must equal
 * code for code, in scale bits and in clip count.
 */
uint32_t
scalarRoundCode(double d, double top)
{
    d = d < top ? d : top;
    d = d > 0.0 ? d : 0.0;
    const int32_t t = static_cast<int32_t>(d);
    return static_cast<uint32_t>(t) +
        static_cast<uint32_t>(d - static_cast<double>(t) >= 0.5);
}

float
scalarQuantize(const float *x, size_t n, int bits, uint32_t *q)
{
    float mx = 0.0f;
    for (size_t i = 0; i < n; ++i)
        mx = x[i] > mx && x[i] <= std::numeric_limits<float>::max()
            ? x[i] : mx;
    const uint32_t qmax = (1u << bits) - 1;
    const float scale = mx > 0.0f ? mx / static_cast<float>(qmax) : 1.0f;
    for (size_t i = 0; i < n; ++i)
        q[i] = scalarRoundCode(static_cast<double>(x[i] / scale),
                               static_cast<double>(qmax));
    return scale;
}

uint64_t
scalarQuantizeStatic(const float *x, size_t n, int bits, float scale,
                     uint32_t *q)
{
    const double top = static_cast<double>((1u << bits) - 1);
    uint64_t clipped = 0;
    for (size_t i = 0; i < n; ++i) {
        const float v = x[i] <= 0.0f ? 0.0f : x[i];
        const double code =
            static_cast<double>(v) / static_cast<double>(scale);
        clipped += !(code < top + 0.5);
        q[i] = scalarRoundCode(code, top);
    }
    return clipped;
}

TEST(Engine, BranchFreeQuantizersEqualScalarLoopsOnRandomBlocks)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float denorm = std::numeric_limits<float>::denorm_min();
    Rng rng(0x5eed);
    auto uniform = [&] {
        return static_cast<double>(rng.next() >> 11) * 0x1p-53;
    };
    // One block: interleaved zeros, negatives, +-inf, +-NaN,
    // +-subnormals, FLT_MAX, wide-range normals and values within one
    // ulp of (k + 0.5) * grid for the grid the block will quantize on.
    auto block = [&](size_t n, uint32_t qmax, float grid) {
        std::vector<float> x(n);
        for (float &v : x) {
            const auto pick = rng.next() % 12;
            const float k = std::floor(static_cast<float>(
                uniform() * static_cast<double>(qmax)));
            const float half = (k + 0.5f) * grid;
            switch (pick) {
              case 0: v = 0.0f; break;
              case 1: v = -0.0f; break;
              case 2: v = -static_cast<float>(uniform() * 100.0); break;
              case 3: v = rng.next() & 1 ? inf : -inf; break;
              case 4: v = rng.next() & 1 ? nan : -nan; break;
              case 5:
                v = denorm * static_cast<float>(1 + rng.next() % 1000);
                v = rng.next() & 1 ? v : -v;
                break;
              case 6: v = std::numeric_limits<float>::max(); break;
              case 7:
                v = static_cast<float>(std::exp2(uniform() * 80.0 - 40.0));
                break;
              default: {
                const float toward[] = {-inf, half, inf};
                v = std::nextafter(half, toward[rng.next() % 3]);
                break;
              }
            }
        }
        return x;
    };
    const int bit_widths[] = {1, 3, 8, 16, 31};
    const float scales[] = {0.01f, 1.0f, 1e-20f, denorm, 3e38f, inf};
    for (int trial = 0; trial < 400; ++trial) {
        const int bits = bit_widths[trial % 5];
        const uint32_t qmax = (1u << bits) - 1;
        const size_t n = rng.next() % 300;
        const float s = scales[rng.next() % 6];
        std::vector<float> x = block(n, qmax, s);
        // Per-presentation grid: the block's own finite max sets it,
        // so aim some values near a half of that grid. The reference
        // runs again after, as one of them may have been the max.
        std::vector<uint32_t> want(n), got(n, 0xdeadbeefu);
        const float grid = scalarQuantize(x.data(), n, bits, want.data());
        for (size_t i = 0; i + 1 < n; i += 2)
            if (rng.next() % 2)
                x[i] = std::nextafter(
                    (std::floor(static_cast<float>(uniform() * qmax)) +
                     0.5f) * grid, rng.next() & 1 ? inf : -inf);
        const float ref_scale = scalarQuantize(x.data(), n, bits,
                                               want.data());
        const float got_scale = quantizeActivations(x.data(), n, bits,
                                                    got.data());
        EXPECT_EQ(got, want) << "trial " << trial;
        EXPECT_EQ(std::memcmp(&got_scale, &ref_scale, sizeof got_scale), 0)
            << "trial " << trial;

        x = block(n, qmax, s);
        std::fill(got.begin(), got.end(), 0xdeadbeefu);
        const uint64_t want_clipped =
            scalarQuantizeStatic(x.data(), n, bits, s, want.data());
        EXPECT_EQ(quantizeActivationsStatic(x.data(), n, bits, s,
                                            got.data()),
                  want_clipped)
            << "trial " << trial;
        EXPECT_EQ(got, want) << "trial " << trial;
    }
}

TEST(Engine, RoundCodeEqualsClampedLround)
{
    // The rounding core of both quantizers, on doubles no float
    // quotient reaches: the neighbours of every half k + 0.5, the
    // largest double below 0.5 (where d + 0.5 rounds up to 1.0), qmax
    // +- 0.5 and the non-finite and signed-zero inputs.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (int bits : {1, 8, 31}) {
        const uint32_t qmax = (1u << bits) - 1;
        const double top = static_cast<double>(qmax);
        auto want = [&](double d) -> uint32_t {
            if (!(d < top))
                return qmax;   // NaN and d >= top
            if (!(d > 0.0))
                return 0;
            return std::min<uint32_t>(
                qmax, static_cast<uint32_t>(std::lround(d)));
        };
        std::vector<double> d = {0.0, -0.0, -1.0, -inf, inf, nan,
                                 0.49999999999999994, 0.5,
                                 std::numeric_limits<double>::denorm_min(),
                                 top - 0.5, top + 0.5, top, 2.0 * top};
        for (double k : {0.0, 1.0, 2.0, 254.0, 1e6, top - 1.0}) {
            const double h = k + 0.5;
            d.push_back(h);
            d.push_back(std::nextafter(h, 0.0));
            d.push_back(std::nextafter(h, inf));
        }
        for (double v : d)
            EXPECT_EQ(roundCode(v, top), want(v))
                << bits << " bits, d = " << v;
    }
    EXPECT_EQ(roundCode(0.49999999999999994, 255.0), 0u);
    EXPECT_EQ(std::lround(0.49999999999999994 + 0.5), 1);
}

TEST(Engine, DequantizeScalesProducts)
{
    EXPECT_NEAR(dequantize(100.0, 0.01f, 0.002f), 100.0 * 0.01 * 0.002,
                1e-9);
    EXPECT_NEAR(dequantize(-50.0, 0.01f, 0.002f), -50.0 * 0.01 * 0.002,
                1e-9);
}

} // namespace
} // namespace forms::arch
