/**
 * @file
 * Batched engine tests: the determinism contract. mvmBlock across
 * N threads must be bit-identical (outputs AND merged stats) to a
 * serial loop of one-presentation blocks keyed 0..n-1 — including with ADC
 * quantization, device variation and transient read noise enabled —
 * and, because the engine holds no presentation state, repeating a
 * batch on one engine must reproduce it exactly. The conv and dense
 * stages' block path must equal, bit for bit, the per-vector pipeline
 * it replaced (im2col matrix -> quantizePresentations -> mvmKeyed ->
 * dequantize). Whole-network forwards are covered by
 * tests/test_graph_runtime.cc.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "sim/activation_model.hh"
#include "sim/runtime.hh"
#include "sim/stage_kernels.hh"
#include "stats_testutil.hh"
#include "tensor/ops.hh"

namespace forms {
namespace {

/** Polarized, quantized random conv layer mapped onto crossbars. */
arch::MappedLayer
buildMappedLayer(int frag, Tensor &weight, Tensor &grad, uint64_t seed)
{
    Rng rng(seed);
    weight.fillGaussian(rng, 0.0f, 0.4f);

    admm::LayerState st;
    st.name = "runtime-test";
    st.param = {"w", &weight, &grad, true, false};
    st.plan = admm::FragmentPlan::forConv(
        static_cast<int>(weight.dim(0)), static_cast<int>(weight.dim(1)), 3,
        frag, admm::PolarizationPolicy::CMajor);
    admm::WeightView v = admm::WeightView::conv(weight);
    st.signs = admm::computeSigns(v, st.plan);
    admm::projectPolarization(v, st.plan, *st.signs);
    admm::QuantSpec q;
    q.bits = 8;
    st.quantScale = admm::projectQuantize(v, q);

    arch::MappingConfig mcfg;
    mcfg.xbarRows = 64;
    mcfg.xbarCols = 64;
    mcfg.fragSize = frag;
    mcfg.inputBits = 16;
    return arch::mapLayer(st, mcfg);
}

std::vector<std::vector<uint32_t>>
samplePresentations(size_t count, size_t rows, uint64_t seed)
{
    sim::ActivationModel act = sim::ActivationModel::calibratedResNet50();
    Rng rng(seed);
    std::vector<std::vector<uint32_t>> batch;
    batch.reserve(count);
    for (size_t i = 0; i < count; ++i)
        batch.push_back(act.sampleVector(rng, rows));
    return batch;
}

/**
 * Run `batch` through mvmBlock with keys 0..n-1, on a block whose rows
 * are padded past the presentation length and whose out-block rows are
 * padded by `gap` past the output extent, so the strides are honoured.
 */
std::vector<std::vector<double>>
blockMvm(arch::CrossbarEngine &engine,
         const std::vector<std::vector<uint32_t>> &batch,
         arch::EngineStats *stats = nullptr, ThreadPool *pool = nullptr,
         size_t gap = 2)
{
    const size_t n = batch.size();
    const size_t rows = n ? batch[0].size() : 0;
    const size_t in_stride = rows + 3;
    const size_t ext = static_cast<size_t>(engine.outputExtent());
    const size_t out_stride = ext + gap;
    std::vector<uint32_t> in(n * in_stride, 0xdeadbeefu);
    for (size_t j = 0; j < n; ++j)
        std::copy(batch[j].begin(), batch[j].end(),
                  in.begin() + static_cast<ptrdiff_t>(j * in_stride));
    std::vector<uint64_t> keys(n);
    for (size_t j = 0; j < n; ++j)
        keys[j] = j;
    std::vector<double> out(n * out_stride, -1.0);
    engine.mvmBlock(in.data(), in_stride, 0, n, keys.data(), out.data(),
                    out_stride, stats, nullptr, pool);
    std::vector<std::vector<double>> outs(n);
    for (size_t j = 0; j < n; ++j) {
        const auto row = out.begin() + static_cast<ptrdiff_t>(j * out_stride);
        outs[j].assign(row, row + static_cast<ptrdiff_t>(ext));
        // The padding past the extent is never written.
        for (size_t g = ext; g < out_stride; ++g)
            EXPECT_EQ(out[j * out_stride + g], -1.0)
                << "presentation " << j << " gap slot " << g - ext;
    }
    return outs;
}

/**
 * Serial loop of one-presentation blocks keyed 0..n-1 vs one block on
 * `threads` threads: bit-identical.
 */
void
checkBatchMatchesSerial(arch::EngineConfig ecfg, int threads)
{
    static Tensor weight({16, 16, 3, 3}), grad({16, 16, 3, 3});
    const arch::MappedLayer mapped =
        buildMappedLayer(8, weight, grad, 2024);
    const auto batch = samplePresentations(33, 16 * 9, 7);

    // Two engines with identical construction: program-time variation
    // draws are identical.
    arch::CrossbarEngine serial_engine(mapped, ecfg);
    arch::CrossbarEngine batch_engine(mapped, ecfg);

    arch::EngineStats serial_stats;
    std::vector<std::vector<double>> serial_out;
    for (size_t j = 0; j < batch.size(); ++j)
        serial_out.push_back(
            presentOne(serial_engine, batch[j], &serial_stats, j));

    ThreadPool pool(threads);
    arch::EngineStats batch_stats;
    const auto batch_out =
        blockMvm(batch_engine, batch, &batch_stats, &pool);

    ASSERT_EQ(batch_out.size(), serial_out.size());
    for (size_t i = 0; i < batch_out.size(); ++i) {
        ASSERT_EQ(batch_out[i].size(), serial_out[i].size());
        for (size_t j = 0; j < batch_out[i].size(); ++j)
            EXPECT_EQ(batch_out[i][j], serial_out[i][j])
                << "presentation " << i << " output " << j;
    }
    expectStatsIdentical(batch_stats, serial_stats);
    EXPECT_EQ(batch_stats.presentations, batch.size());
}

TEST(MvmBatch, BitIdenticalToSerialLossless)
{
    arch::EngineConfig ecfg;
    ecfg.adcBits = 0;
    checkBatchMatchesSerial(ecfg, 4);
}

TEST(MvmBatch, BitIdenticalToSerialWithAdcQuantization)
{
    arch::EngineConfig ecfg;
    ecfg.adcBits = 4;
    checkBatchMatchesSerial(ecfg, 4);
}

TEST(MvmBatch, BitIdenticalToSerialWithDeviceVariation)
{
    arch::EngineConfig ecfg;
    ecfg.adcBits = 4;
    ecfg.cell.variationSigma = 0.1;
    checkBatchMatchesSerial(ecfg, 4);
}

TEST(MvmBatch, BitIdenticalToSerialWithReadNoise)
{
    // Read noise is the per-presentation stochastic path: its streams
    // are keyed by (seed, presentation key), not by thread.
    arch::EngineConfig ecfg;
    ecfg.adcBits = 5;
    ecfg.cell.variationSigma = 0.1;
    ecfg.readNoiseSigma = 0.05;
    checkBatchMatchesSerial(ecfg, 4);
    checkBatchMatchesSerial(ecfg, 7);
}

TEST(MvmBatch, SerialMvmIsBatchOfOne)
{
    static Tensor weight({16, 16, 3, 3}), grad({16, 16, 3, 3});
    const arch::MappedLayer mapped =
        buildMappedLayer(8, weight, grad, 11);
    const auto batch = samplePresentations(3, 16 * 9, 5);

    arch::CrossbarEngine a(mapped, {});
    arch::CrossbarEngine b(mapped, {});
    for (const auto &p : batch) {
        const auto tight = presentOne(a, p);
        const auto padded = blockMvm(b, {p});
        ASSERT_EQ(padded.size(), 1u);
        EXPECT_EQ(tight, padded.front());
    }
}

TEST(MvmBatch, ReadNoisePerturbsButPreservesDeterminism)
{
    static Tensor weight({16, 16, 3, 3}), grad({16, 16, 3, 3});
    const arch::MappedLayer mapped =
        buildMappedLayer(8, weight, grad, 12);
    const auto batch = samplePresentations(4, 16 * 9, 9);

    arch::EngineConfig noisy;
    noisy.adcBits = 0;
    noisy.readNoiseSigma = 0.2;
    arch::CrossbarEngine clean_engine(mapped, {});
    arch::CrossbarEngine noisy_engine(mapped, noisy);
    arch::CrossbarEngine noisy_again(mapped, noisy);

    const auto clean = blockMvm(clean_engine, batch);
    const auto first = blockMvm(noisy_engine, batch);
    const auto second = blockMvm(noisy_again, batch);
    EXPECT_EQ(first, second);   // same seed, same stream
    EXPECT_NE(first, clean);    // the noise actually does something
}

TEST(MvmBatch, RepeatedBatchOnOneNoisyEngineIsBitIdentical)
{
    // The engine holds no presentation state: a second mvmBlock on the
    // same engine draws the same keyed read-noise streams as the first.
    static Tensor weight({16, 16, 3, 3}), grad({16, 16, 3, 3});
    const arch::MappedLayer mapped =
        buildMappedLayer(8, weight, grad, 13);
    const auto batch = samplePresentations(9, 16 * 9, 10);

    arch::EngineConfig noisy;
    noisy.adcBits = 4;
    noisy.cell.variationSigma = 0.1;
    noisy.readNoiseSigma = 0.1;
    arch::CrossbarEngine engine(mapped, noisy);

    ThreadPool pool(3);
    arch::EngineStats first_stats, second_stats;
    const auto first = blockMvm(engine, batch, &first_stats, &pool);
    const auto second = blockMvm(engine, batch, &second_stats, &pool);
    EXPECT_EQ(first, second);
    expectStatsIdentical(first_stats, second_stats);
    EXPECT_EQ(first_stats.presentations, batch.size());
}

TEST(MvmBatch, PrivateRowsMatchSerialForAnyExtentAndThreadCount)
{
    // Each presentation accumulates in a worker-private row and stores
    // [0, outputExtent) once. Extents from 1 to 16 doubles put 8 to 1/2
    // rows on one cache line; every row must equal the serial loop of
    // one-presentation blocks bit for bit and every stride-gap sentinel
    // must survive, on exact and noisy tiles alike.
    for (int out_c : {1, 3, 8, 16}) {
        Tensor weight({out_c, 16, 3, 3}), grad({out_c, 16, 3, 3});
        const arch::MappedLayer mapped =
            buildMappedLayer(8, weight, grad, 40 + out_c);
        const auto batch = samplePresentations(29, 16 * 9, out_c);
        arch::EngineConfig noisy;
        noisy.adcBits = 5;
        noisy.readNoiseSigma = 0.05;
        for (const arch::EngineConfig &ecfg : {arch::EngineConfig{}, noisy}) {
            arch::CrossbarEngine engine(mapped, ecfg);
            ASSERT_EQ(engine.outputExtent(), out_c);
            arch::EngineStats serial_stats;
            std::vector<std::vector<double>> serial;
            for (size_t j = 0; j < batch.size(); ++j)
                serial.push_back(
                    presentOne(engine, batch[j], &serial_stats, j));
            for (int threads : {1, 2, 3, 4, 8}) {
                ThreadPool pool(threads);
                arch::EngineStats stats;
                const auto rows = blockMvm(engine, batch, &stats, &pool, 5);
                ASSERT_EQ(rows.size(), serial.size());
                for (size_t j = 0; j < rows.size(); ++j)
                    EXPECT_EQ(std::memcmp(rows[j].data(), serial[j].data(),
                                          rows[j].size() * sizeof(double)),
                              0)
                        << out_c << " outputs, " << threads
                        << " threads, presentation " << j;
                expectStatsIdentical(stats, serial_stats);
            }
        }
    }
}

/** Geometry of one matrix stage under test; k == 0 means dense. */
struct StageGeom
{
    int64_t inC, h, w;   //!< dense: inC features, h = w = 1
    int k, stride, pad;
    int outC;
    bool chanScale;      //!< exercise the digital BN scale
};

/** Everything a stage call writes: the bit-identity surface. */
struct StageResult
{
    Tensor out;
    arch::EngineStats stats;
    std::vector<arch::EngineStats> perImage;
    std::vector<float> maxima;
    arch::EicStats eic{8};
};

/** The stage's inputs, shared by the block path and the reference. */
struct StageCase
{
    StageGeom g;
    Tensor act;
    std::vector<const arch::CrossbarEngine *> replicas;
    const arch::MappedLayer *mapped = nullptr;
    std::vector<float> bias, chan;
    std::vector<uint64_t> ids;
    arch::ScaleMode mode = arch::ScaleMode::PerPresentation;
    float staticScale = 0.0f;

    sim::StageScale scale(StageResult &r) const
    {
        sim::StageScale sc;
        sc.mode = mode;
        sc.staticScale = staticScale;
        sc.record = &r.maxima;
        sc.eicStats = &r.eic;
        sc.eicFragSize = 4;
        return sc;
    }
};

/** The block path: convStage / denseStage on `threads` threads. */
StageResult
blockStage(const StageCase &c, int threads)
{
    ThreadPool pool(threads);
    StageResult r;
    r.perImage.resize(static_cast<size_t>(c.act.dim(0)));
    const sim::StageScale sc = c.scale(r);
    sim::StageEngines se;
    se.replicas = c.replicas;
    se.imageIds = c.ids.data();
    se.perImage = r.perImage.data();
    r.out = c.g.k > 0
        ? sim::convStage(c.act, se, {}, c.bias, c.chan, c.g.outC, c.g.k,
                         c.g.stride, c.g.pad, 8, sc, pool, &r.stats)
        : sim::denseStage(c.act, se, c.bias, c.g.outC, 8, sc, pool,
                          &r.stats);
    return r;
}

/**
 * The per-vector pipeline the block path replaced, composed by hand:
 * lower to an im2col matrix, quantize one vector per presentation,
 * run replica slices through mvmKeyed, fold per-image stats, and
 * dequantize each output through the digital output stage.
 */
StageResult
referenceStage(const StageCase &c)
{
    ThreadPool pool(1);
    StageResult r;
    const int64_t n = c.act.dim(0);
    r.perImage.resize(static_cast<size_t>(n));
    const sim::StageScale sc = c.scale(r);
    const bool conv = c.g.k > 0;
    Tensor cols;
    int64_t rows = c.act.dim(1), count = n, ppi = 1;
    Shape shape = {n, c.g.outC};
    const float *base = c.act.data();
    int64_t j_stride = rows, r_stride = 1;
    if (conv) {
        im2colInto(c.act, c.g.k, c.g.k, c.g.stride, c.g.pad, cols);
        rows = cols.dim(0);
        count = cols.dim(1);
        ppi = count / n;
        const int oh = convOutDim(static_cast<int>(c.g.h), c.g.k,
                                  c.g.stride, c.g.pad);
        shape = {n, c.g.outC, oh, ppi / oh};
        base = cols.data();
        j_stride = 1;
        r_stride = count;
    }
    std::vector<float> scales;
    const auto q = sim::quantizePresentations(
        pool, count, rows, 8, sc, scales, base, j_stride, r_stride,
        &r.stats, ppi, r.perImage.data());

    const size_t p = static_cast<size_t>(count);
    std::vector<uint64_t> keys(p);
    for (size_t j = 0; j < p; ++j)
        keys[j] = c.ids[j / static_cast<size_t>(ppi)] *
                static_cast<uint64_t>(ppi) +
            j % static_cast<size_t>(ppi);
    std::vector<arch::EngineStats> per(p);
    std::vector<std::vector<double>> raw;
    const size_t reps = c.replicas.size();
    for (size_t rep = 0; rep < reps; ++rep) {
        auto part = c.replicas[rep]->mvmKeyed(q, p * rep / reps,
                                              p * (rep + 1) / reps,
                                              keys.data(), &r.stats,
                                              per.data(), &pool);
        for (auto &v : part)
            raw.push_back(std::move(v));
    }
    for (size_t j = 0; j < p; ++j)
        r.perImage[j / static_cast<size_t>(ppi)].merge(per[j]);

    r.out = Tensor(shape);
    float *po = r.out.data();
    for (int64_t j = 0; j < count; ++j) {
        const auto &rj = raw[static_cast<size_t>(j)];
        for (int oc = 0; oc < c.g.outC; ++oc) {
            const size_t u = static_cast<size_t>(oc);
            const float s = c.chan.empty() ? 1.0f : c.chan[u];
            const float deq = u < rj.size()
                ? arch::dequantize(rj[u], c.mapped->scale,
                                   scales[static_cast<size_t>(j)])
                : 0.0f;
            po[((j / ppi) * c.g.outC + oc) * ppi + j % ppi] =
                s * deq + c.bias[u];
        }
    }
    return r;
}

void
expectSameStage(const StageResult &a, const StageResult &b)
{
    ASSERT_EQ(a.out.shape(), b.out.shape());
    EXPECT_EQ(std::memcmp(a.out.data(), b.out.data(),
                          static_cast<size_t>(a.out.numel()) *
                              sizeof(float)),
              0);
    expectStatsIdentical(a.stats, b.stats);
    ASSERT_EQ(a.perImage.size(), b.perImage.size());
    for (size_t i = 0; i < a.perImage.size(); ++i)
        expectStatsIdentical(a.perImage[i], b.perImage[i]);
    EXPECT_EQ(a.maxima, b.maxima);
    EXPECT_EQ(a.eic.histogram().total(), b.eic.histogram().total());
    for (int bin = 0; bin <= 8; ++bin)
        EXPECT_EQ(a.eic.histogram().bin(bin), b.eic.histogram().bin(bin));
}

TEST(BlockStage, BitIdenticalToPerVectorPipeline)
{
    const std::vector<StageGeom> geoms = {
        {3, 7, 9, 3, 1, 1, 6, false},   // odd H/W, pad 1
        {4, 9, 7, 3, 2, 0, 5, true},    // stride 2, no pad
        {2, 8, 8, 3, 2, 1, 6, false},   // stride 2, pad 1
        {5, 7, 7, 1, 1, 0, 6, true},    // 1x1
        {5, 9, 9, 1, 2, 0, 4, false},   // 1x1 stride-2 projection
        {37, 1, 1, 0, 1, 0, 10, false}, // dense
    };
    Rng rng(4242);
    for (size_t gi = 0; gi < geoms.size(); ++gi) {
        const StageGeom &g = geoms[gi];
        SCOPED_TRACE(::testing::Message() << "geometry " << gi);
        const bool conv = g.k > 0;
        Tensor weight(conv ? Shape{g.outC, g.inC, g.k, g.k}
                           : Shape{g.outC, g.inC});
        Tensor grad(weight.shape());
        weight.fillGaussian(rng, 0.0f, 0.4f);
        admm::LayerState st;
        st.name = "block-stage";
        st.param = {"w", &weight, &grad, conv, !conv};
        admm::WeightView v = conv ? admm::WeightView::conv(weight)
                                  : admm::WeightView::dense(weight);
        st.plan = conv
            ? admm::FragmentPlan::forConv(g.outC, g.inC, g.k, 4,
                                          admm::PolarizationPolicy::CMajor)
            : admm::FragmentPlan::forDense(g.outC, g.inC, 4);
        st.signs = admm::computeSigns(v, st.plan);
        admm::projectPolarization(v, st.plan, *st.signs);
        admm::QuantSpec qs;
        qs.bits = 8;
        st.quantScale = admm::projectQuantize(v, qs);
        arch::MappingConfig mcfg;
        mcfg.xbarRows = 32;
        mcfg.xbarCols = 32;
        mcfg.fragSize = 4;
        mcfg.inputBits = 8;
        const arch::MappedLayer mapped = arch::mapLayer(st, mcfg);

        StageCase c;
        c.g = g;
        c.mapped = &mapped;
        c.act = conv ? Tensor({2, g.inC, g.h, g.w}) : Tensor({3, g.inC});
        c.act.fillUniform(rng, -0.3f, 1.0f);   // negatives map to 0
        c.ids = {5, 9, 2};
        c.bias.resize(static_cast<size_t>(g.outC));
        for (auto &b : c.bias)
            b = static_cast<float>(rng.gaussian(0.0, 0.1));
        if (g.chanScale) {
            c.chan.resize(static_cast<size_t>(g.outC));
            for (auto &s : c.chan)
                s = static_cast<float>(rng.gaussian(1.0, 0.2));
        }

        arch::EngineConfig noisy;
        noisy.adcBits = 4;
        noisy.cell.variationSigma = 0.1;
        noisy.readNoiseSigma = 0.05;
        for (const arch::EngineConfig &ecfg : {arch::EngineConfig{}, noisy}) {
            std::vector<std::unique_ptr<arch::CrossbarEngine>> engines;
            for (int rep = 0; rep < 3; ++rep)
                engines.push_back(
                    std::make_unique<arch::CrossbarEngine>(mapped, ecfg));
            for (auto mode : {arch::ScaleMode::PerPresentation,
                              arch::ScaleMode::Static}) {
                c.mode = mode;
                // A grid topping out at 0.6 clips the upper values.
                c.staticScale = 0.6f / 255.0f;
                for (size_t reps = 1; reps <= 3; ++reps) {
                    c.replicas.clear();
                    for (size_t rep = 0; rep < reps; ++rep)
                        c.replicas.push_back(engines[rep].get());
                    const StageResult want = referenceStage(c);
                    if (mode == arch::ScaleMode::Static)
                        EXPECT_GT(want.stats.quantClipped, 0u);
                    for (int threads : {1, 3, 4}) {
                        SCOPED_TRACE(::testing::Message()
                                     << "noise " << ecfg.readNoiseSigma
                                     << ", static "
                                     << (mode == arch::ScaleMode::Static)
                                     << ", replicas " << reps
                                     << ", threads " << threads);
                        expectSameStage(blockStage(c, threads), want);
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace forms
