#include "sim/stage_kernels.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "sim/runtime.hh"
#include "tensor/ops.hh"

namespace forms::sim {

StageScale
resolveStageScale(const RuntimeConfig &cfg, const std::string &name,
                  float attached_scale, int attached_bits)
{
    StageScale sc;
    sc.mode = cfg.scaleMode;
    if (cfg.scaleMode == arch::ScaleMode::Static) {
        if (!(std::isfinite(attached_scale) && attached_scale > 0.0f)) {
            fatal("runtime: ScaleMode::Static but stage '%s' has no "
                  "finite calibrated scale > 0 (%g) — run "
                  "sim::Calibrator on finite inputs and attach its "
                  "table to the graph with CalibrationTable::attachTo",
                  name.c_str(), static_cast<double>(attached_scale));
        }
        if (attached_bits != 0 && attached_bits != cfg.mapping.inputBits) {
            fatal("runtime: stage '%s' carries a scale calibrated at "
                  "%d input bits but the mapping uses %d — it would "
                  "mis-span the DAC range; recalibrate at the "
                  "deployment resolution",
                  name.c_str(), attached_bits, cfg.mapping.inputBits);
        }
        sc.staticScale = attached_scale;
    }
    if (cfg.recorder) {
        sc.record = &cfg.recorder->maxima[name];
        // Bit-level activity channel: fold this stage's fragment EICs
        // into a per-stage histogram on the mapping's input grid,
        // fragmenting consecutive im2col rows the way the engine
        // fragments its input presentations.
        sc.eicStats = &cfg.recorder->eic
                           .try_emplace(name, cfg.mapping.inputBits)
                           .first->second;
        sc.eicFragSize = cfg.mapping.fragSize;
    }
    return sc;
}

namespace {

/**
 * A stage's quantized presentations as one presentation-major block:
 * presentation j's `rows` codes at q[j * rows], its dequantization
 * scale at scales[j].
 */
struct PresentationBlock
{
    int64_t count = 0;
    int64_t rows = 0;
    std::unique_ptr<uint32_t[]> q;   //!< count x rows, every code written
    std::vector<float> scales;
};

/**
 * The quantize core of every matrix stage. patch(j, buf) returns
 * presentation j's `rows` values contiguously: a pointer into the
 * activation when they already are, else gathered into buf (`rows`
 * floats). Negative values map to zero (the bit-serial input encoding
 * is unsigned, DESIGN.md §2). quantValues/quantClipped counters,
 * recorded maxima and EIC histograms fold in presentation order, so
 * they are bit-identical for any thread count (DESIGN.md §3).
 */
template <class Patch>
PresentationBlock
quantizeBlock(ThreadPool &tp, int64_t count, int64_t rows, int bits,
              const StageScale &sc, const Patch &patch,
              arch::EngineStats *stats, int64_t ppi,
              arch::EngineStats *per_image)
{
    const bool is_static = sc.mode == arch::ScaleMode::Static;
    const size_t n = static_cast<size_t>(count);
    const size_t u_rows = static_cast<size_t>(rows);
    // Not value-initialised: each worker writes its own rows in full.
    PresentationBlock blk{count, rows, std::unique_ptr<uint32_t[]>(
                              new uint32_t[n * u_rows]),
                          std::vector<float>(n, is_static ? sc.staticScale
                                                          : 0.0f)};
    std::vector<uint64_t> clipped(is_static ? n : 0, 0);
    std::vector<float> maxima(sc.record ? n : 0, 0.0f);

    tp.parallelFor(0, count, 16, [&](int64_t j, int) {
        // Per-thread gather buffer: no allocation per presentation.
        static thread_local std::vector<float> buf;
        buf.resize(u_rows);
        const size_t s = static_cast<size_t>(j);
        const float *x = patch(j, buf.data());
        uint32_t *q = blk.q.get() + s * u_rows;
        if (sc.record) {
            float mx = 0.0f;
            for (size_t r = 0; r < u_rows; ++r)
                mx = std::max(mx, x[r]);
            maxima[s] = mx;
        }
        if (is_static)
            clipped[s] = arch::quantizeActivationsStatic(
                x, u_rows, bits, sc.staticScale, q);
        else
            blk.scales[s] = arch::quantizeActivations(x, u_rows, bits, q);
    });

    if (stats) {
        stats->quantValues +=
            static_cast<uint64_t>(count) * static_cast<uint64_t>(rows);
        for (uint64_t c : clipped)
            stats->quantClipped += c;
    }
    // Per-image quantization counters (the per-request stats channel):
    // image i sees ppi presentations x rows values, and only its own
    // presentations' clip counts — exactly what a single-image run of
    // this stage would have counted. Integer counters, so the split
    // fold cannot perturb the flat batch fold above.
    if (per_image) {
        FORMS_ASSERT(ppi > 0 && count % ppi == 0,
                     "quantizePresentations: per-image stats need the "
                     "per-image presentation count");
        for (int64_t i = 0; i < count / ppi; ++i) {
            per_image[i].quantValues += static_cast<uint64_t>(ppi) *
                static_cast<uint64_t>(rows);
        }
        if (is_static)
            for (int64_t j = 0; j < count; ++j)
                per_image[j / ppi].quantClipped +=
                    clipped[static_cast<size_t>(j)];
    }
    if (sc.record)
        sc.record->insert(sc.record->end(), maxima.begin(), maxima.end());
    // EIC fold runs serially after the parallel quantize, presentation
    // by presentation, so the histogram is bit-identical for any
    // thread count (and only calibration runs pay for it).
    if (sc.eicStats)
        for (size_t at = 0; at < n * u_rows; at += u_rows)
            sc.eicStats->recordVector(blk.q.get() + at, u_rows,
                                      sc.eicFragSize);
    return blk;
}

/**
 * Execute one micro-batch's presentation block on a stage's engine
 * replicas (see StageEngines in the header for the slicing and
 * bit-identity contract) into a count x ext out-block. `ppi` is
 * presentations per image, used to expand per-image stream ids into
 * per-presentation keys.
 */
std::unique_ptr<double[]>
replicatedMvm(const StageEngines &eng, const PresentationBlock &blk,
              int64_t ppi, arch::EngineStats *stats, ThreadPool &tp,
              size_t ext)
{
    const size_t p = static_cast<size_t>(blk.count);
    // The phase samples need model-time deltas even when the caller
    // passes no accumulator; without phase samples none are taken.
    arch::EngineStats scratch;
    arch::EngineStats *acc =
        stats ? stats : (eng.phases ? &scratch : nullptr);

    // Presentation j's RNG key is imageIds[j/ppi]*ppi + j%ppi, so an
    // image's draws depend only on its own id — not on batch
    // position, batch composition, replica, or what ran before.
    const size_t u_ppi = static_cast<size_t>(ppi);
    std::vector<uint64_t> keys(p);
    for (size_t j = 0; j < p; ++j)
        keys[j] = eng.imageIds[j / u_ppi] * static_cast<uint64_t>(ppi) +
            static_cast<uint64_t>(j % u_ppi);
    std::vector<arch::EngineStats> per(eng.perImage ? p : 0);
    arch::EngineStats *per_out = eng.perImage ? per.data() : nullptr;

    // Replica r takes the contiguous presentation slice
    // [floor(p*r/R), floor(p*(r+1)/R)) and writes those rows of the
    // out-block. Slices run (and fold their per-presentation stats
    // into `acc`) in ascending replica order and carry their global
    // keys, which reproduces the exact outputs and stat fold of one
    // engine running the whole batch.
    const size_t r_count = eng.replicas.size();
    // Not value-initialised: mvmBlock stores every row in full.
    std::unique_ptr<double[]> out(new double[p * ext]);
    for (size_t r = 0; r < r_count; ++r) {
        const size_t lo = p * r / r_count;
        const size_t hi = p * (r + 1) / r_count;
        const arch::EngineStats before =
            eng.phases ? *acc : arch::EngineStats{};
        eng.replicas[r]->mvmBlock(blk.q.get(),
                                  static_cast<size_t>(blk.rows), lo, hi,
                                  keys.data(), out.get(), ext, acc,
                                  per_out, &tp);
        if (eng.phases) {
            PhaseSample &ps = eng.phases[r];
            ps.adcNs = acc->timeNs - before.timeNs;
            ps.quantValues = (hi - lo) * static_cast<uint64_t>(blk.rows);
            ps.bitCycles = acc->bitCycles - before.bitCycles;
            ps.skippedCycles = acc->skippedCycles - before.skippedCycles;
        }
    }

    // Per-image fold: image i's accumulator merges its own
    // presentations in within-image order from zero — the same merge
    // sequence a single-image batch would have produced.
    if (eng.perImage)
        for (size_t j = 0; j < p; ++j)
            eng.perImage[j / u_ppi].merge(per[j]);
    return out;
}

/**
 * The body of convStage and denseStage: quantize `count` presentations
 * of `rows` values from `patch` (see quantizeBlock) into a block, run
 * it on the stage's replicas, and dequantize the out-block through the
 * digital output stage into a tensor of `shape`. Presentation
 * j = img*ppi + pix writes output channel oc to element
 * (img*shape[1] + oc)*ppi + pix.
 */
template <class Patch>
Tensor
matrixStage(const Shape &shape, int64_t count, int64_t rows, int64_t ppi,
            const Patch &patch, const StageEngines &engines,
            const std::vector<float> &bias,
            const std::vector<float> &chan_scale, int input_bits,
            const StageScale &sc, ThreadPool &tp, arch::EngineStats *stats)
{
    const int64_t out_c = shape[1];
    FORMS_ASSERT(chan_scale.empty() ||
                     chan_scale.size() == static_cast<size_t>(out_c),
                 "matrix stage: digital scale extent mismatch");
    FORMS_ASSERT(!engines.replicas.empty() && engines.imageIds,
                 "matrix stage needs an engine and per-image stream ids");
    const size_t ext =
        static_cast<size_t>(engines.replicas[0]->outputExtent());
    const float w_scale = engines.replicas[0]->weightScale();
    std::vector<float> scales;
    std::unique_ptr<double[]> raw;
    {
        PresentationBlock blk = quantizeBlock(
            tp, count, rows, input_bits, sc, patch, stats, ppi,
            engines.perImage);
        raw = replicatedMvm(engines, blk, ppi, stats, tp, ext);
        scales = std::move(blk.scales);
    }

    // out[oc] = chan_scale[oc] * deq[oc] + bias[oc]. Channels past the
    // engine's output extent were pruned away entirely (the mapper
    // compacts them): all their weights are zero, so they
    // legitimately dequantize to 0. A worker fills whole output planes
    // (img, oc), ppi contiguous floats each, and at least 256 floats
    // per chunk, so workers share no lines but at chunk ends.
    Tensor out(shape);
    float *po = out.data();
    tp.parallelFor(0, count / ppi * out_c, std::max<int64_t>(1, 256 / ppi),
                   [&](int64_t plane, int) {
        const size_t u = static_cast<size_t>(plane % out_c);
        const float s = chan_scale.empty() ? 1.0f : chan_scale[u];
        const size_t j0 = static_cast<size_t>(plane / out_c * ppi);
        for (size_t j = j0; j < j0 + static_cast<size_t>(ppi); ++j) {
            const float deq = u < ext
                ? arch::dequantize(raw[j * ext + u], w_scale, scales[j])
                : 0.0f;
            po[plane * ppi + static_cast<int64_t>(j - j0)] = s * deq + bias[u];
        }
    });
    return out;
}

} // namespace

std::vector<float>
tensorToVector(const Tensor &t)
{
    return std::vector<float>(t.data(), t.data() + t.numel());
}

std::vector<std::vector<uint32_t>>
quantizePresentations(ThreadPool &tp, int64_t count, int64_t rows,
                      int bits, const StageScale &sc,
                      std::vector<float> &scales, const float *base,
                      int64_t j_stride, int64_t r_stride,
                      arch::EngineStats *stats, int64_t ppi,
                      arch::EngineStats *per_image)
{
    auto strided = [&](int64_t j, float *buf) -> const float * {
        const float *p = base + j * j_stride;
        if (r_stride == 1)
            return p;
        for (int64_t r = 0; r < rows; ++r)
            buf[r] = p[r * r_stride];
        return buf;
    };
    PresentationBlock blk = quantizeBlock(tp, count, rows, bits, sc,
                                          strided, stats, ppi, per_image);
    scales = std::move(blk.scales);
    std::vector<std::vector<uint32_t>> q(static_cast<size_t>(count));
    for (size_t j = 0; j < q.size(); ++j)
        q[j].assign(blk.q.get() + j * static_cast<size_t>(rows),
                    blk.q.get() + (j + 1) * static_cast<size_t>(rows));
    return q;
}

Tensor
convStage(const Tensor &act, const StageEngines &engines,
          const arch::MappedLayer &, const std::vector<float> &bias,
          const std::vector<float> &chan_scale, int out_c, int k,
          int stride, int pad, int input_bits, const StageScale &sc,
          ThreadPool &tp, arch::EngineStats *stats, Tensor *)
{
    FORMS_ASSERT(act.rank() == 4, "conv stage expects NCHW");
    const int64_t n = act.dim(0);
    const int64_t c_in = act.dim(1);
    const int h = static_cast<int>(act.dim(2));
    const int w = static_cast<int>(act.dim(3));
    const int oh = convOutDim(h, k, stride, pad);
    const int ow = convOutDim(w, k, stride, pad);

    // Presentation j is the patch of (img, oy, ox) with
    // j = (img*oh + oy)*ow + ox, one image contributing one plane of
    // oh*ow contiguous presentations — the per-image presentation count
    // the request-keyed stream path slices by. Its rows follow im2col
    // order (c*k + ky)*k + kx, zero outside the input: gathered
    // straight from the NCHW activation, never lowered to a matrix.
    const int64_t plane = int64_t(oh) * ow;
    const float *pa = act.data();
    auto patch = [&](int64_t j, float *buf) -> const float * {
        const int64_t img = j / plane, pix = j % plane;
        const int y0 = static_cast<int>(pix / ow) * stride - pad;
        const int x0 = static_cast<int>(pix % ow) * stride - pad;
        // Only border patches test each element against the input.
        const bool inside = y0 >= 0 && y0 + k <= h && x0 >= 0 && x0 + k <= w;
        float *dst = buf;
        for (int64_t c = 0; c < c_in; ++c)
            for (int iy = y0; iy < y0 + k; ++iy)
                for (int ix = x0; ix < x0 + k; ++ix)
                    *dst++ = inside ||
                            (iy >= 0 && iy < h && ix >= 0 && ix < w)
                        ? pa[((img * c_in + c) * h + iy) * w + ix] : 0.0f;
        return buf;
    };
    return matrixStage({n, out_c, oh, ow}, n * plane, c_in * k * k, plane,
                       patch, engines, bias, chan_scale,
                       input_bits, sc, tp, stats);
}

Tensor
denseStage(const Tensor &act, const StageEngines &engines,
           const std::vector<float> &bias, int out_dim, int input_bits,
           const StageScale &sc, ThreadPool &tp,
           arch::EngineStats *stats)
{
    FORMS_ASSERT(act.rank() == 2, "dense stage needs a flattened input");
    const int64_t n = act.dim(0);
    const int64_t feats = act.dim(1);
    const float *pi = act.data();
    // A dense presentation is one image's contiguous feature row; an
    // empty chan_scale multiplies by 1.0f, which is exact.
    auto row = [&](int64_t j, float *) { return pi + j * feats; };
    return matrixStage({n, out_dim}, n, feats, /*ppi=*/1, row, engines,
                       bias, {}, input_bits, sc, tp, stats);
}

Tensor
batchNormStage(const Tensor &in, const std::vector<float> &scale,
               const std::vector<float> &shift, ThreadPool &tp)
{
    const int64_t n = in.dim(0);
    const int64_t c = in.dim(1);
    const int64_t plane = in.dim(2) * in.dim(3);
    Tensor out(in.shape());
    const float *pi = in.data();
    float *po = out.data();
    tp.parallelFor(0, n * c, 4, [&](int64_t j, int) {
        const float s = scale[static_cast<size_t>(j % c)];
        const float b = shift[static_cast<size_t>(j % c)];
        const float *src = pi + j * plane;
        float *dst = po + j * plane;
        for (int64_t i = 0; i < plane; ++i)
            dst[i] = src[i] * s + b;
    });
    return out;
}

admm::LayerState *
findLayerState(std::vector<admm::LayerState> &layers, const Tensor *weight)
{
    for (auto &st : layers)
        if (st.param.value == weight)
            return &st;
    return nullptr;
}

double
logitsAccuracy(const Tensor &logits, const std::vector<int> &labels)
{
    FORMS_ASSERT(logits.dim(0) == static_cast<int64_t>(labels.size()),
                 "accuracy: label count mismatch");
    const int64_t n = logits.dim(0), k = logits.dim(1);
    int64_t hits = 0;
    for (int64_t i = 0; i < n; ++i) {
        int64_t best = 0;
        for (int64_t j = 1; j < k; ++j)
            if (logits.at(i, j) > logits.at(i, best))
                best = j;
        hits += best == labels[static_cast<size_t>(i)];
    }
    return n > 0 ? static_cast<double>(hits) / static_cast<double>(n)
                 : 0.0;
}

} // namespace forms::sim
