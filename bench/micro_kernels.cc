/**
 * @file
 * Micro-benchmarks of the runtime-dispatched hot-path kernels
 * (common/simd.hh): the four primitives, the tensor kernels built on
 * them (matmul / matmulTransposeB / im2col) and the full
 * CrossbarEngine presentation loop — each timed in scalar mode and in
 * the dispatched (best-available) mode.
 *
 * Self-timed (no external benchmark library) and machine-readable:
 * writes BENCH_kernels.json with per-kernel ns/op and GB/s for both
 * modes so CI tracks the kernel speedup trajectory. Every pair is also
 * cross-checked bitwise before timing — a scalar/vector divergence
 * fails the run (non-zero exit), so the perf tracker doubles as a
 * determinism tripwire.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "arch/engine.hh"
#include "common/logging.hh"
#include "common/simd.hh"
#include "obs/run_manifest.hh"
#include "tensor/ops.hh"

using namespace forms;

namespace {

bool g_identical = true;

/** Best-of-3 ns per call of `fn`, auto-scaling the inner repeat. */
template <typename Fn>
double
nsPerCall(Fn &&fn)
{
    using clock = std::chrono::steady_clock;
    fn();   // warm-up (and first-touch)
    // Scale reps so one trial runs a few milliseconds.
    int64_t reps = 1;
    for (;;) {
        const auto t0 = clock::now();
        for (int64_t i = 0; i < reps; ++i)
            fn();
        const double ns = std::chrono::duration<double, std::nano>(
                              clock::now() - t0).count();
        if (ns >= 4e6 || reps >= (int64_t(1) << 28))
            break;
        reps *= 2;
    }
    double best = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
        const auto t0 = clock::now();
        for (int64_t i = 0; i < reps; ++i)
            fn();
        const double ns = std::chrono::duration<double, std::nano>(
                              clock::now() - t0).count() /
            static_cast<double>(reps);
        if (trial == 0 || ns < best)
            best = ns;
    }
    return best;
}

struct KernelRow
{
    std::string name;
    int64_t n = 0;       //!< elements (or presentations) per call
    int64_t bytes = 0;   //!< bytes moved per call (for GB/s)
    double scalarNs = 0.0;
    double dispatchNs = 0.0;
};

std::vector<KernelRow> g_rows;

double
gbps(int64_t bytes, double ns)
{
    return ns > 0.0 ? static_cast<double>(bytes) / ns : 0.0;
}

void
report(KernelRow row)
{
    std::printf("%-18s n=%-7lld scalar %10.1f ns  dispatch %10.1f ns  "
                "(%5.2fx, %6.2f GB/s)\n",
                row.name.c_str(), static_cast<long long>(row.n),
                row.scalarNs, row.dispatchNs,
                row.dispatchNs > 0.0 ? row.scalarNs / row.dispatchNs
                                     : 0.0,
                gbps(row.bytes, row.dispatchNs));
    g_rows.push_back(std::move(row));
}

void
mismatch(const char *what)
{
    std::printf("BIT-IDENTITY FAILURE: scalar and dispatched %s "
                "disagree\n",
                what);
    g_identical = false;
}

/** The four dispatch primitives, sized to force tail lanes. */
void
benchPrimitives()
{
    constexpr int64_t kN = 4096 + 3;
    const simd::Kernels &sk = simd::kernels(simd::Mode::Scalar);
    const simd::Kernels &dk = simd::kernels(simd::Mode::Auto);

    Rng rng(42);
    std::vector<double> d_acc(kN), d_x(kN);
    std::vector<float> f_y(kN), f_x(kN), f_a(kN), f_b(kN);
    for (int64_t i = 0; i < kN; ++i) {
        d_x[i] = rng.gaussian(0.0, 1.0);
        d_acc[i] = rng.gaussian(0.0, 1.0);
        f_x[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
        f_y[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
        f_a[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
        f_b[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
    }

    // Correctness first: identical bits on every ragged size.
    for (int64_t n : {int64_t(0), int64_t(1), int64_t(7), kN}) {
        std::vector<double> d_ref = d_acc, d_got = d_acc;
        sk.addF64(d_ref.data(), d_x.data(), n);
        dk.addF64(d_got.data(), d_x.data(), n);
        if (std::memcmp(d_ref.data(), d_got.data(),
                        static_cast<size_t>(kN) * sizeof(double)) != 0)
            mismatch("addF64");

        std::vector<float> f_ref = f_y, f_got = f_y;
        sk.axpyF32(f_ref.data(), f_x.data(), 1.7f, n);
        dk.axpyF32(f_got.data(), f_x.data(), 1.7f, n);
        if (std::memcmp(f_ref.data(), f_got.data(),
                        static_cast<size_t>(kN) * sizeof(float)) != 0)
            mismatch("axpyF32");

        const double r = sk.dotF32(f_a.data(), f_b.data(), n);
        const double g = dk.dotF32(f_a.data(), f_b.data(), n);
        if (std::memcmp(&r, &g, sizeof(double)) != 0)
            mismatch("dotF32");
    }

    KernelRow row{"addF64", kN, kN * 24, 0.0, 0.0};
    row.scalarNs =
        nsPerCall([&] { sk.addF64(d_acc.data(), d_x.data(), kN); });
    row.dispatchNs =
        nsPerCall([&] { dk.addF64(d_acc.data(), d_x.data(), kN); });
    report(row);

    row = {"axpyF32", kN, kN * 12, 0.0, 0.0};
    row.scalarNs = nsPerCall(
        [&] { sk.axpyF32(f_y.data(), f_x.data(), 1.0001f, kN); });
    row.dispatchNs = nsPerCall(
        [&] { dk.axpyF32(f_y.data(), f_x.data(), 1.0001f, kN); });
    report(row);

    volatile double sink = 0.0;
    row = {"dotF32", kN, kN * 8, 0.0, 0.0};
    row.scalarNs = nsPerCall(
        [&] { sink = sk.dotF32(f_a.data(), f_b.data(), kN); });
    row.dispatchNs = nsPerCall(
        [&] { sink = dk.dotF32(f_a.data(), f_b.data(), kN); });
    (void)sink;
    report(row);

    row = {"copyF32", kN, kN * 8, 0.0, 0.0};
    row.scalarNs =
        nsPerCall([&] { sk.copyF32(f_y.data(), f_x.data(), kN); });
    row.dispatchNs =
        nsPerCall([&] { dk.copyF32(f_y.data(), f_x.data(), kN); });
    report(row);
}

/** Tensor kernels through the process-wide dispatch mode. */
void
benchTensorOps()
{
    Rng rng(43);
    Tensor a({128, 255});   // odd K exercises the dot tail lanes
    Tensor b({255, 128});
    Tensor bt({128, 255});
    Tensor img({8, 16, 31, 31});
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    bt.fillGaussian(rng, 0.0f, 1.0f);
    img.fillUniform(rng, 0.0f, 1.0f);

    struct OpCase
    {
        const char *name;
        std::function<Tensor()> run;
        int64_t bytes;
    };
    const std::vector<OpCase> cases = {
        {"matmul", [&] { return matmul(a, b); },
         (a.numel() + b.numel() + int64_t(128) * 128) * 4},
        {"matmulTransposeB", [&] { return matmulTransposeB(a, bt); },
         (a.numel() + bt.numel() + int64_t(128) * 128) * 4},
        {"im2col", [&] { return im2col(img, 3, 3, 1, 1); },
         (img.numel() +
          img.dim(1) * 9 * img.dim(0) * int64_t(31) * 31) * 4},
    };

    for (const auto &c : cases) {
        simd::setProcessMode(simd::Mode::Scalar);
        const Tensor ref = c.run();
        const double scalar_ns = nsPerCall([&] { c.run(); });
        simd::setProcessMode(simd::Mode::Auto);
        const Tensor got = c.run();
        const double dispatch_ns = nsPerCall([&] { c.run(); });
        if (!got.equals(ref))
            mismatch(c.name);
        report({c.name, ref.numel(), c.bytes, scalar_ns, dispatch_ns});
    }
    simd::setProcessMode(simd::Mode::Auto);
}

/** The full engine presentation loop, noise + variation + ADC on. */
void
benchEngine()
{
    using namespace forms::arch;

    const int cout = 32, cin = 16, k = 3, frag = 8;
    Tensor weight({cout, cin, k, k});
    Tensor grad({cout, cin, k, k});
    Rng rng(44);
    weight.fillGaussian(rng, 0.0f, 0.5f);
    admm::LayerState state;
    state.name = "bench";
    state.param = {"w", &weight, &grad, true, false};
    state.plan = admm::FragmentPlan::forConv(
        cout, cin, k, frag, admm::PolarizationPolicy::WMajor);
    admm::WeightView v = admm::WeightView::conv(weight);
    state.signs = admm::computeSigns(v, state.plan);
    admm::projectPolarization(v, state.plan, *state.signs);
    admm::QuantSpec q;
    q.bits = 8;
    state.quantScale = admm::projectQuantize(v, q);

    MappingConfig mcfg;
    mcfg.xbarRows = 64;
    mcfg.xbarCols = 64;
    mcfg.fragSize = frag;
    mcfg.inputBits = 8;
    const MappedLayer mapped = mapLayer(state, mcfg);

    EngineConfig ecfg;
    ecfg.adcBits = 4;
    ecfg.cell.variationSigma = 0.1;
    ecfg.readNoiseSigma = 0.02;

    const size_t rows = static_cast<size_t>(mapped.logicalRows);
    std::vector<std::vector<uint32_t>> batch(16);
    Rng irng(45);
    for (auto &pres : batch) {
        pres.resize(rows);
        for (auto &x : pres)
            x = irng.bernoulli(0.3)
                ? 0u
                : static_cast<uint32_t>(irng.below(255) + 1);
    }

    EngineConfig scalar_cfg = ecfg;
    scalar_cfg.simdMode = simd::Mode::Scalar;
    CrossbarEngine scalar_eng(mapped, scalar_cfg);
    CrossbarEngine dispatch_eng(mapped, ecfg);

    // Bit-identity across dispatch modes: same outputs, same stats.
    EngineStats s_ref, s_got;
    const auto out_ref = scalar_eng.mvmBatch(batch, &s_ref);
    const auto out_got = dispatch_eng.mvmBatch(batch, &s_got);
    bool same = out_ref.size() == out_got.size();
    for (size_t i = 0; same && i < out_ref.size(); ++i)
        same = out_ref[i].size() == out_got[i].size() &&
            std::memcmp(out_ref[i].data(), out_got[i].data(),
                        out_ref[i].size() * sizeof(double)) == 0;
    same = same &&
        std::memcmp(&s_ref.adcEnergyPj, &s_got.adcEnergyPj,
                    sizeof(double)) == 0 &&
        s_ref.bitCycles == s_got.bitCycles &&
        s_ref.adcSamples == s_got.adcSamples;
    if (!same)
        mismatch("mvmBatch");

    // Throughput proxy: one accumulated double per ADC sample (the
    // tile sweep feeds exactly the converted columns), so bytes =
    // adcSamples * 8 per batch — a stable lower bound across PRs.
    const int64_t bytes =
        static_cast<int64_t>(s_ref.adcSamples * sizeof(double));
    KernelRow row{"engine_mvmBatch",
                  static_cast<int64_t>(batch.size()), bytes, 0.0, 0.0};
    row.scalarNs = nsPerCall([&] { scalar_eng.mvmBatch(batch); });
    row.dispatchNs = nsPerCall([&] { dispatch_eng.mvmBatch(batch); });
    report(row);
}

void
writeJson()
{
    FILE *json = std::fopen("BENCH_kernels.json", "w");
    if (!json) {
        warn("cannot write BENCH_kernels.json");
        return;
    }
    obs::RunManifest manifest = obs::RunManifest::collect("micro_kernels");
    obs::JsonWriter w(json);
    w.beginObject();
    obs::writeBenchHeader(w, manifest);
    w.field("bench", "micro_kernels");
    w.field("dispatch", simd::modeName(simd::processMode()));
#if defined(FORMS_BUILD_TYPE)
    w.field("build", FORMS_BUILD_TYPE);
#else
    w.field("build", "unknown");
#endif
    w.field("bit_identical", g_identical);
    w.key("kernels");
    w.beginArray();
    for (const KernelRow &r : g_rows) {
        w.beginObject();
        w.field("name", r.name);
        w.field("n", r.n);
        w.field("scalar_ns_op", r.scalarNs);
        w.field("dispatch_ns_op", r.dispatchNs);
        w.field("scalar_gbps", gbps(r.bytes, r.scalarNs));
        w.field("dispatch_gbps", gbps(r.bytes, r.dispatchNs));
        w.field("speedup", r.dispatchNs > 0.0
                               ? r.scalarNs / r.dispatchNs
                               : 0.0);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::fputc('\n', json);
    std::fclose(json);
    std::printf("wrote BENCH_kernels.json (%zu kernels, dispatch=%s)\n",
                g_rows.size(), simd::modeName(simd::processMode()));
}

} // namespace

int
main()
{
    simd::printBenchBanner("bench_micro_kernels");
    benchPrimitives();
    benchTensorOps();
    benchEngine();
    writeJson();
    if (!g_identical) {
        std::printf("FAILED: scalar and dispatched kernels are not "
                    "bit-identical\n");
        return 1;
    }
    return 0;
}
