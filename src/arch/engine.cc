#include "arch/engine.hh"

#include <algorithm>
#include <cmath>

namespace forms::arch {

void
EngineStats::merge(const EngineStats &other)
{
    presentations += other.presentations;
    bitCycles += other.bitCycles;
    skippedCycles += other.skippedCycles;
    adcSamples += other.adcSamples;
    quantValues += other.quantValues;
    quantClipped += other.quantClipped;
    adcEnergyPj += other.adcEnergyPj;
    crossbarEnergyPj += other.crossbarEnergyPj;
    timeNs += other.timeNs;
}

CrossbarEngine::CrossbarEngine(const MappedLayer &layer, EngineConfig cfg)
    : layer_(layer), cfg_(cfg),
      adc_({cfg.adcBits > 0
                ? cfg.adcBits
                : reram::AdcModel::losslessBits(layer.cfg.fragSize,
                                                layer.cfg.cellBits),
            cfg.adcFreqGhz}),
      rng_(cfg.variationSeed)
{
    // The mapper sliced magnitudes at the mapping's cell precision;
    // programming them into a device model with a different precision
    // would fail cell-by-cell deep in the program loop.
    FORMS_ASSERT(cfg_.cell.bitsPerCell == layer.cfg.cellBits,
                 "engine: device model stores %d bits/cell but the "
                 "mapping sliced weights at %d bits/cell — set "
                 "EngineConfig::cell.bitsPerCell to match the "
                 "MappingConfig",
                 cfg_.cell.bitsPerCell, layer.cfg.cellBits);

    // ADC full scale covers the worst-case fragment column sum; when
    // the resolution affords more codes than that (the lossless
    // setting), stretch the scale to the code count so the step is
    // exactly one level and integer sums convert exactly.
    const int frag_max =
        layer_.cfg.fragSize * ((1 << layer_.cfg.cellBits) - 1);
    fullScale_ = static_cast<double>(
        std::max(frag_max, adc_.config().codes() - 1));

    const int cells = layer_.cfg.cellsPerWeight();
    for (const auto &xb : layer_.crossbars) {
        reram::CrossbarArray arr(
            std::max(1, xb.rows), std::max(1, xb.weightCols * cells),
            cfg_.cell, cfg_.cell.variationSigma > 0.0 ? &rng_ : nullptr);
        for (int r = 0; r < xb.rows; ++r) {
            for (int wc = 0; wc < xb.weightCols; ++wc) {
                const auto levels = reram::sliceMagnitude(
                    xb.mag(r, wc), layer_.cfg.weightBits,
                    layer_.cfg.cellBits);
                for (int s = 0; s < cells; ++s) {
                    arr.programCell(r, wc * cells + s,
                                    levels[static_cast<size_t>(s)]);
                }
            }
        }
        arrays_.push_back(std::move(arr));
    }

    // Output extent and the ADC-limited per-step time of the slowest
    // crossbar depend only on the mapping geometry: precompute once.
    for (const auto &xb : layer_.crossbars)
        for (int idx : xb.outputIndex)
            outputExtent_ = std::max(outputExtent_, idx + 1);
    const double sample_ns = adc_.sampleTimeNs();
    for (const auto &xb : layer_.crossbars) {
        const int cell_cols = xb.weightCols * cells;
        const double per_step = std::ceil(
            static_cast<double>(cell_cols) /
            static_cast<double>(cfg_.adcsPerCrossbar)) * sample_ns;
        worstStepNs_ = std::max(worstStepNs_, per_step);
    }

    // Re-lay the realized conductances into contiguous tiles and
    // precompute the per-fragment read energy and the exact powers of
    // two the bit loop needs: the hot path then touches only dense
    // arrays.
    tiles_.reserve(arrays_.size());
    for (size_t xi = 0; xi < arrays_.size(); ++xi) {
        const auto &xb = layer_.crossbars[xi];
        const auto &arr = arrays_[xi];
        XbarTile tile;
        tile.cellCols = xb.weightCols * cells;
        tile.lvl.resize(static_cast<size_t>(xb.rows) *
                        static_cast<size_t>(tile.cellCols));
        for (int r = 0; r < xb.rows; ++r)
            for (int cc = 0; cc < tile.cellCols; ++cc)
                tile.lvl[static_cast<size_t>(r) *
                             static_cast<size_t>(tile.cellCols) +
                         static_cast<size_t>(cc)] =
                    arr.cellAnalogLevel(r, cc);

        // Hard-fault overlay: deterministic per (faultKey, physId),
        // applied to the snapshot only — the programmed arrays (and
        // their energy accounting) are what the write path produced.
        if (cfg_.faults && cfg_.faults->config().any()) {
            const int phys = xb.physId >= 0 ? xb.physId
                                            : static_cast<int>(xi);
            const reram::CrossbarFaults f = cfg_.faults->draw(
                cfg_.faultKey, phys, layer_.cfg.xbarRows,
                layer_.cfg.xbarCols);
            const double lrs =
                static_cast<double>(cfg_.cell.maxLevel());
            bool any_here = false;
            for (int r = 0; r < xb.rows; ++r) {
                for (int cc = 0; cc < tile.cellCols; ++cc) {
                    double &lvl =
                        tile.lvl[static_cast<size_t>(r) *
                                     static_cast<size_t>(tile.cellCols) +
                                 static_cast<size_t>(cc)];
                    if (f.columnDead(cc)) {
                        lvl = 0.0;
                        any_here = true;
                        continue;
                    }
                    switch (f.at(r, cc)) {
                      case reram::FaultKind::StuckLrs:
                        lvl = lrs;
                        any_here = true;
                        ++faultyCells_;
                        break;
                      case reram::FaultKind::StuckHrs:
                        lvl = 0.0;
                        any_here = true;
                        ++faultyCells_;
                        break;
                      case reram::FaultKind::Drift:
                        lvl *= f.driftAt(r, cc);
                        any_here = true;
                        ++faultyCells_;
                        break;
                      case reram::FaultKind::None:
                        break;
                    }
                }
            }
            if (any_here)
                ++faultyCrossbars_;
        }
        tile.fragReadEpj.resize(static_cast<size_t>(xb.fragsUsed));
        for (int f = 0; f < xb.fragsUsed; ++f) {
            const int rows_here =
                std::min(layer_.cfg.fragSize, xb.rows - f * layer_.cfg.fragSize);
            tile.fragReadEpj[static_cast<size_t>(f)] =
                arr.readEnergyPj(rows_here, sample_ns);
        }
        tiles_.push_back(std::move(tile));
    }
    bitWeight_.resize(static_cast<size_t>(layer_.cfg.inputBits));
    for (int p = 0; p < layer_.cfg.inputBits; ++p)
        bitWeight_[static_cast<size_t>(p)] = std::pow(2.0, p);
    cellWeight_.resize(static_cast<size_t>(cells));
    for (int s = 0; s < cells; ++s)
        cellWeight_[static_cast<size_t>(s)] =
            std::pow(2.0, s * layer_.cfg.cellBits);
}

uint64_t
CrossbarEngine::presentationSeed(uint64_t seed, uint64_t key)
{
    // splitmix64 finalizer over a golden-ratio combination: adjacent
    // keys land in statistically independent streams.
    uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (key + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

void
CrossbarEngine::mvmOne(const std::vector<uint32_t> &inputs,
                       uint64_t key, std::vector<double> &out,
                       EngineStats &stats) const
{
    out.assign(static_cast<size_t>(outputExtent_), 0.0);

    const int m = layer_.cfg.fragSize;
    const int cells = layer_.cfg.cellsPerWeight();
    const int in_bits = layer_.cfg.inputBits;
    const double adc_epj = adc_.energyPerSamplePj();
    const bool noisy_reads = cfg_.readNoiseSigma > 0.0;
    // The same step AdcModel::quantize/reconstruct derive per call;
    // hoisting the division out of the column loop is bitwise neutral.
    const int adc_top = adc_.config().codes() - 1;
    const double adc_step = fullScale_ / static_cast<double>(adc_top);
    Rng pres_rng(presentationSeed(cfg_.variationSeed, key));

    // Per-thread scratch: mvmOne runs concurrently on pool workers and
    // a presentation must not pay heap allocations in the hot loop.
    static thread_local std::vector<double> acc_bit;
    static thread_local std::vector<double> acc;
    static thread_local std::vector<uint32_t> in_vals;

    EngineStats local;
    local.presentations = 1;

    for (size_t xi = 0; xi < layer_.crossbars.size(); ++xi) {
        const auto &xb = layer_.crossbars[xi];
        const XbarTile &tile = tiles_[xi];
        const int cell_cols = tile.cellCols;

        // Gather this crossbar's activations once; the bit loop then
        // consumes them from registers instead of re-materializing a
        // row_bits vector per presented bit.
        in_vals.resize(static_cast<size_t>(xb.rows));
        for (int r = 0; r < xb.rows; ++r)
            in_vals[static_cast<size_t>(r)] = inputs[static_cast<size_t>(
                xb.inputIndex[static_cast<size_t>(r)])];

        acc.resize(static_cast<size_t>(cell_cols));
        acc_bit.resize(static_cast<size_t>(cell_cols));

        for (int f = 0; f < xb.fragsUsed; ++f) {
            const int r0 = f * m;
            const int rows_here = std::min(m, xb.rows - r0);

            // Zero-skip: the controller inspects the fragment's shift
            // registers and feeds only the effective bits.
            uint32_t merged = 0;
            for (int r = r0; r < r0 + rows_here; ++r)
                merged |= in_vals[static_cast<size_t>(r)];
            const int eic = cfg_.zeroSkip
                ? effectiveBits(merged) : in_bits;
            local.skippedCycles +=
                static_cast<uint64_t>(in_bits - eic);

            const double *frag_lvl = tile.lvl.data() +
                static_cast<size_t>(r0) * static_cast<size_t>(cell_cols);
            std::fill(acc.begin(), acc.end(), 0.0);
            for (int p = eic - 1; p >= 0; --p) {
                ++local.bitCycles;
                local.crossbarEnergyPj +=
                    tile.fragReadEpj[static_cast<size_t>(f)];

                // Stride-1 row sweep: add each active row's level
                // panel into acc_bit. Per column this reproduces
                // columnSum's ascending-row additions exactly, for any
                // vector width (elementwise rule, DESIGN.md §6), while
                // skipping inactive rows like the bit-serial hardware.
                std::fill(acc_bit.begin(), acc_bit.end(), 0.0);
                double *bit_sum = acc_bit.data();
                for (int r = 0; r < rows_here; ++r) {
                    if (!((in_vals[static_cast<size_t>(r0 + r)] >> p) & 1u))
                        continue;
                    const double *panel = frag_lvl +
                        static_cast<size_t>(r) *
                            static_cast<size_t>(cell_cols);
                    for (int cc = 0; cc < cell_cols; ++cc)
                        bit_sum[cc] += panel[cc];
                }

                // Fused noise -> ADC -> shift-accumulate per column,
                // preserving the reference operation order: lognormal
                // draws in ascending column order, clamp(lround(x /
                // step)) * step, then one multiply by the exact power
                // of two for this bit.
                for (int cc = 0; cc < cell_cols; ++cc) {
                    double analog = acc_bit[static_cast<size_t>(cc)];
                    if (noisy_reads) {
                        analog *=
                            pres_rng.lognormal(0.0, cfg_.readNoiseSigma);
                    }
                    const int count = std::clamp(
                        static_cast<int>(std::lround(analog / adc_step)),
                        0, adc_top);
                    acc[static_cast<size_t>(cc)] +=
                        static_cast<double>(count) * adc_step *
                        bitWeight_[static_cast<size_t>(p)];
                    ++local.adcSamples;
                    local.adcEnergyPj += adc_epj;
                }
            }

            // Digital shift-and-add across cell significance plus the
            // signed accumulation steered by the sign indicator.
            for (int wc = 0; wc < xb.weightCols; ++wc) {
                double weight_sum = 0.0;
                for (int s = 0; s < cells; ++s) {
                    weight_sum += acc[static_cast<size_t>(wc * cells + s)] *
                        cellWeight_[static_cast<size_t>(s)];
                }
                out[static_cast<size_t>(
                    xb.outputIndex[static_cast<size_t>(wc)])] +=
                    static_cast<double>(xb.sign(wc, f)) * weight_sum;
            }
        }
    }

    // ADC-limited serial time: each (fragment, bit) step converts
    // cell_cols columns on adcsPerCrossbar parallel ADCs. Crossbars
    // operate in parallel, so charge the slowest one.
    local.timeNs = worstStepNs_ * static_cast<double>(local.bitCycles) /
        std::max<double>(1.0, static_cast<double>(layer_.crossbars.size()));

    stats.merge(local);
}

std::vector<double>
CrossbarEngine::mvm(const std::vector<uint32_t> &inputs,
                    EngineStats *stats, uint64_t key)
{
    // Semantically a keyed batch of one, without mvmKeyed's
    // batch-container scaffolding.
    std::vector<double> out;
    EngineStats local;
    mvmOne(inputs, key, out, local);
    if (stats)
        stats->merge(local);
    return out;
}

std::vector<std::vector<double>>
CrossbarEngine::mvmBatch(const std::vector<std::vector<uint32_t>> &batch,
                         EngineStats *stats, ThreadPool *pool)
{
    std::vector<uint64_t> keys(batch.size());
    for (size_t j = 0; j < keys.size(); ++j)
        keys[j] = j;
    return mvmKeyed(batch, 0, batch.size(), keys.data(), stats, nullptr,
                    pool);
}

std::vector<std::vector<double>>
CrossbarEngine::mvmKeyed(const std::vector<std::vector<uint32_t>> &batch,
                         size_t lo, size_t hi, const uint64_t *keys,
                         EngineStats *stats, EngineStats *per_out,
                         ThreadPool *pool)
{
    FORMS_ASSERT(lo <= hi && hi <= batch.size(),
                 "mvmKeyed: slice [%zu, %zu) outside batch of %zu", lo,
                 hi, batch.size());
    const size_t count = hi - lo;
    std::vector<std::vector<double>> outs(count);
    std::vector<EngineStats> per(count);
    if (count == 0)
        return outs;

    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    tp.parallelFor(
        0, static_cast<int64_t>(count), 1,
        [&](int64_t i, int) {
            const size_t s = static_cast<size_t>(i);
            mvmOne(batch[lo + s], keys[lo + s], outs[s], per[s]);
        });

    // Merge per-presentation stats in presentation order: identical
    // floating-point accumulation order to the serial mvm() loop.
    if (stats)
        for (const auto &s : per)
            stats->merge(s);
    if (per_out)
        for (size_t i = 0; i < count; ++i)
            per_out[lo + i].merge(per[i]);
    return outs;
}

std::vector<float>
dequantizeOutputs(const std::vector<double> &raw, float w_scale,
                  float in_scale)
{
    std::vector<float> out(raw.size());
    const double k = static_cast<double>(w_scale) *
        static_cast<double>(in_scale);
    for (size_t i = 0; i < raw.size(); ++i)
        out[i] = static_cast<float>(raw[i] * k);
    return out;
}

std::vector<uint32_t>
quantizeActivations(const std::vector<float> &x, int bits,
                    float *scale_out)
{
    FORMS_ASSERT(bits >= 1 && bits <= 31, "bad activation bits");
    float mx = 0.0f;
    for (float v : x)
        mx = std::max(mx, v);
    const uint32_t qmax = (1u << bits) - 1;
    const float scale = mx > 0.0f ? mx / static_cast<float>(qmax) : 1.0f;
    std::vector<uint32_t> q(x.size(), 0);
    for (size_t i = 0; i < x.size(); ++i) {
        const float v = x[i];
        if (v <= 0.0f)
            continue;   // post-ReLU activations are nonnegative
        q[i] = std::min<uint32_t>(
            qmax, static_cast<uint32_t>(std::lround(v / scale)));
    }
    if (scale_out)
        *scale_out = scale;
    return q;
}

std::vector<uint32_t>
quantizeActivationsStatic(const std::vector<float> &x, int bits,
                          float scale, uint64_t *clipped_out)
{
    FORMS_ASSERT(bits >= 1 && bits <= 31, "bad activation bits");
    FORMS_ASSERT(scale > 0.0f,
                 "static activation scale must be positive — was the "
                 "calibration table built for this layer?");
    const uint32_t qmax = (1u << bits) - 1;
    std::vector<uint32_t> q(x.size(), 0);
    uint64_t clipped = 0;
    for (size_t i = 0; i < x.size(); ++i) {
        const float v = x[i];
        if (v <= 0.0f)
            continue;   // unsigned encoding: negatives map to zero
        // Saturation test in double, before lround: an extreme
        // outlier (or inf/NaN) must clip to the top code, not feed
        // lround a value outside long's range (UB). NaN fails the
        // comparison and clips too.
        const double code = static_cast<double>(v) /
            static_cast<double>(scale);
        if (!(code < static_cast<double>(qmax) + 0.5)) {
            q[i] = qmax;
            ++clipped;
        } else {
            q[i] = static_cast<uint32_t>(std::lround(code));
        }
    }
    if (clipped_out)
        *clipped_out += clipped;
    return q;
}

} // namespace forms::arch
