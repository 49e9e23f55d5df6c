#include "arch/engine.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace forms::arch {

namespace {

uint64_t
bitsOf(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

double
fromBits(uint64_t b)
{
    double v;
    std::memcpy(&v, &b, sizeof v);
    return v;
}

// LazyAdc's fast path (DESIGN.md §6): the exp polynomial holds for
// |sigma * g| < kXMax, and a code is taken when y + 0.5 lies farther
// than kMargin * (y + 0.5) from every integer. kMargin is 2^17 times the
// relative error bound of the approximation.
constexpr double kXMax = 0.24;
constexpr double kMargin = 0x1p-14;

/** ln(1 + j/128) and 1 / (1 + j/128). */
struct LnTable
{
    double ln[128];
    double rc[128];
};

const LnTable kLnTable = [] {
    LnTable t{};
    for (int j = 0; j < 128; ++j) {
        const double c = 1.0 + j * 0x1p-7;
        t.ln[j] = std::log(c);
        t.rc[j] = 1.0 / c;
    }
    return t;
}();

/**
 * sqrt(-2 ln s / s) to within 2^-38 relative, s a normal double in
 * (0, 1). s = 2^e * y with y within 2^-8 of c = 1 + j/128 (the
 * exponent and top mantissa bits of s, rounded), so
 * ln s = e ln 2 + ln c + ln(1 + r) with r = (y - c) / c, |r| <= 2^-8.
 * Near s = 1, e = j = 0 and r = s - 1 exactly, so the cancellation of
 * ln s costs no relative accuracy.
 */
double
polarScaleApprox(double s)
{
    const uint64_t b = bitsOf(s);
    const uint64_t rounded = b + (uint64_t{1} << 44);
    const auto e = static_cast<int64_t>(rounded >> 52) - 1023;
    const size_t j = (rounded >> 45) & 127;
    const double y = fromBits(b - (static_cast<uint64_t>(e) << 52));
    const double r = (y - (1.0 + static_cast<double>(j) * 0x1p-7)) *
        kLnTable.rc[j];
    const double ln1p_r =
        r * (1.0 + r * (-0.5 + r * (1.0 / 3.0 + r * -0.25)));
    const double ln_s = (static_cast<double>(e) * 0x1.62e42fefa39efp-1 +
                         kLnTable.ln[j]) + ln1p_r;
    return std::sqrt(-2.0 * ln_s / s);
}

/**
 * min(floor(y), top) for an approximate y (0.5 already added), or -1
 * when `x_ok` is false or y lies within the margin of an integer (NaN
 * and inf included). Selects only, so the column loops vectorize. For
 * y >= 0.5, y - 0.5 is exact and rounds to floor(y) through the 2^52
 * shift unless y is an integer, where d is 0 or 1 and the test fails.
 * A negative result (only for y < 0.5) also takes the literal chain.
 */
inline double
fastCode(double y, bool x_ok, double top)
{
    const double fl = ((y - 0.5) + 0x1p52) - 0x1p52;
    const double d = y - fl;
    const double lim = kMargin * y;
    const double code = fl < top ? fl : top;
    return x_ok & (d > lim) & (1.0 - d > lim) ? code : -1.0;
}

/** Per-thread scratch of LazyAdc: grows, never shrinks. */
struct LazyScratch
{
    std::vector<double> uv;     //!< each pair's u, v
    std::vector<double> s;      //!< each pair's s
    std::vector<double> g;      //!< approximate normal per u, v slot
    std::vector<double> code;   //!< per column; < 0 = literal chain
};

thread_local LazyScratch tlLazy;

template <typename T>
T *
grown(std::vector<T> &v, size_t n)
{
    if (v.size() < n)
        v.resize(n);
    return v.data();
}

/**
 * One (fragment, bit p) step of a general tile. Stride-1 row sweep:
 * add each active row's level panel into bit_sum, so per column the
 * active rows add in ascending order for any vector width (elementwise
 * rule, DESIGN.md §6) while inactive rows are skipped like the
 * bit-serial hardware does. Then read noise in ascending column order,
 * the ADC and the bit weight through `lazy`. Out of line, so the exact
 * tiles' loop in mvmOne keeps its registers.
 */
[[gnu::noinline]] void
generalStep(const LazyAdc &lazy, const double *frag_lvl,
            const uint32_t *in_vals, int rows, size_t cols, int p,
            double bit_weight, LazyAdc::Stream &noise, double *bit_sum,
            double *acc)
{
    std::fill(bit_sum, bit_sum + cols, 0.0);
    for (int r = 0; r < rows; ++r) {
        if (!((in_vals[r] >> p) & 1u))
            continue;
        const double *panel = frag_lvl + static_cast<size_t>(r) * cols;
        for (size_t cc = 0; cc < cols; ++cc)
            bit_sum[cc] += panel[cc];
    }
    lazy.convert(bit_sum, cols, bit_weight, noise, acc);
}

} // namespace

LazyAdc::LazyAdc(double sigma, double step, int top)
    : sigma_(sigma), step_(step), invStep_(1.0 / step), top_(top)
{
}

[[gnu::noinline]] size_t
LazyAdc::convert(const double *analog, size_t cols, double bit_weight,
                 Stream &st, double *acc) const
{
    if (sigma_ == 0.0)
        return resolve(analog, cols, bit_weight, nullptr, nullptr, 0, acc);
    // Step 1: the polar attempts, branch-free. Slot 0 holds the carried
    // pair when its v is still due; every attempt is stored and the
    // slot advances on acceptance, so the uniforms go in gaussian()'s
    // order.
    const size_t base = st.haveSpare ? 1 : 0;
    const size_t pairs = (base + cols + 1) / 2;
    double *uv = grown(tlLazy.uv, 2 * pairs);
    double *s = grown(tlLazy.s, pairs);
    if (st.haveSpare) {
        uv[1] = st.spareV;
        s[0] = st.spareS;
    }
    for (size_t k = base; k < pairs;) {
        const Rng::PolarAttempt a = st.rng.polarAttempt();
        uv[2 * k] = a.u;
        uv[2 * k + 1] = a.v;
        s[k] = a.s;
        k += Rng::polarAccepts(a.s);
    }
    st.haveSpare = 2 * pairs > base + cols;
    if (st.haveSpare) {
        st.spareV = uv[2 * pairs - 1];
        st.spareS = s[pairs - 1];
    }
    return resolve(analog, cols, bit_weight, uv, s, base, acc);
}

[[gnu::noinline]] size_t
LazyAdc::resolve(const double *analog, size_t cols, double bit_weight,
                 const double *uv, const double *s, size_t base,
                 double *acc) const
{
    double *code = grown(tlLazy.code, cols);
    const double top = static_cast<double>(top_);
    const bool noisy = sigma_ != 0.0;
    if (noisy) {
        // Step 2: one approximate scale per pair.
        const size_t pairs = (base + cols + 1) / 2;
        double *g = grown(tlLazy.g, 2 * pairs);
        for (size_t k = 0; k < pairs; ++k) {
            const double m = polarScaleApprox(s[k]);
            g[2 * k] = uv[2 * k] * m;
            g[2 * k + 1] = uv[2 * k + 1] * m;
        }
        // Step 3: exp's degree-7 Taylor polynomial, used only where
        // |x| < kXMax. A zero column sum reads code 0 whatever the
        // factor: +0, or NaN from 0 * inf, which adcCode reads as 0.
        const double *gc = g + base;
        for (size_t c = 0; c < cols; ++c) {
            const double x = sigma_ * gc[c];
            const double p = 1.0 + x * (1.0 + x * (1.0 / 2 + x * (
                1.0 / 6 + x * (1.0 / 24 + x * (1.0 / 120 + x * (
                1.0 / 720 + x * (1.0 / 5040)))))));
            code[c] = fastCode(analog[c] * p * invStep_ + 0.5,
                               (std::fabs(x) < kXMax) | (analog[c] == 0.0),
                               top);
        }
    } else {
        for (size_t c = 0; c < cols; ++c)
            code[c] = fastCode(analog[c] * invStep_ + 0.5, true, top);
    }
    // Step 4: the literal chain where the bound straddles a boundary.
    size_t literal = 0;
    for (size_t c = 0; c < cols; ++c) {
        if (!(code[c] < 0.0))
            continue;
        double a = analog[c];
        if (noisy) {
            const size_t t = base + c;
            const double g = uv[t] * Rng::polarScale(s[t / 2]);
            a *= std::exp(0.0 + sigma_ * g);
        }
        code[c] = reram::adcCode(a, step_, top_);
        ++literal;
    }
    // The same double adcRead(...) * 2^p gives.
    for (size_t c = 0; c < cols; ++c)
        acc[c] += code[c] * step_ * bit_weight;
    return literal;
}

RepeatedSum::RepeatedSum(double e, uint64_t max_n) : maxN_(max_n)
{
    FORMS_ASSERT(e == 0.0 || (std::isnormal(e) && e > 0.0),
                 "RepeatedSum: step %g must be 0 or a positive normal "
                 "double", e);
    uint64_t n = 0;
    double r = 0.0;
    while (n < max_n) {
        // Longest run of equal steps d = m * u inside r's binade
        // [2^k, top), whose ulp u is also the spacing of every double
        // up to top. A step from r is safe while r + d <= top - u:
        // then r + e, within u/2 of r + d, rounds on the u grid to
        // r + d. All grid counts below are integers <= 2^53, exact in
        // double.
        uint64_t run = 0;
        double d = 0.0;
        if (r > 0.0) {
            const double u = std::nextafter(r, INFINITY) - r;
            const double top = std::ldexp(1.0, std::ilogb(r) + 1);
            const double q = e / u;   // exact: u is a power of two
            double m = std::floor(q);
            bool constant = true;
            if (q - m == 0.5) {
                // Tie binade: r + e sits halfway between two grid
                // points and rounds to the even one. From an even
                // multiple of u the step is the even one of m,
                // m + 1 every time; from an odd one, step once.
                constant = std::fmod(r / u, 2.0) == 0.0;
                m += std::fmod(m, 2.0);
            } else {
                m = std::round(q);
            }
            const auto k0 = static_cast<uint64_t>((top - r) / u);
            const auto mi = static_cast<uint64_t>(m);
            if (constant && mi == 0)
                run = max_n - n;
            else if (constant && k0 >= mi + 1)
                run = std::min((k0 - mi - 1) / mi + 1, max_n - n);
            d = m * u;
        }
        if (run > 0) {
            segs_.push_back({n, r, d});
            n += run;
            r += static_cast<double>(run) * d;
        } else {
            segs_.push_back({n, r, 0.0});
            r += e;
            ++n;
        }
    }
    segs_.push_back({n, r, 0.0});
}

double
RepeatedSum::at(uint64_t n) const
{
    FORMS_ASSERT(n <= maxN_, "RepeatedSum: n = %llu past the bound %llu",
                 static_cast<unsigned long long>(n),
                 static_cast<unsigned long long>(maxN_));
    const auto it = std::upper_bound(
        segs_.begin(), segs_.end(), n,
        [](uint64_t v, const Segment &s) { return v < s.n0; });
    const Segment &s = *(it - 1);
    return s.r0 + static_cast<double>(n - s.n0) * s.d;
}

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

void
EngineConfig::validate() const
{
    FORMS_ASSERT(adcBits >= 0 && adcBits <= 30,
                 "EngineConfig::adcBits = %d outside [0, 30] (0 = lossless)",
                 adcBits);
    FORMS_ASSERT(std::isfinite(readNoiseSigma) && readNoiseSigma >= 0.0,
                 "EngineConfig::readNoiseSigma = %g, need a finite "
                 "value >= 0 (0 = noiseless reads)", readNoiseSigma);
    FORMS_ASSERT(std::isfinite(cell.variationSigma) &&
                     cell.variationSigma >= 0.0,
                 "EngineConfig::cell.variationSigma = %g, need a finite "
                 "value >= 0 (0 = ideal devices)", cell.variationSigma);
}

CrossbarEngine::CrossbarEngine(const MappedLayer &layer, EngineConfig cfg)
    // The mapping is validated before adc_ sizes a lossless ADC from it.
    : map_((layer.cfg.validate(), layer.cfg)), weightScale_(layer.scale),
      cfg_(cfg),
      adc_({cfg.adcBits > 0
                ? cfg.adcBits
                : reram::AdcModel::losslessBits(layer.cfg.fragSize,
                                                layer.cfg.cellBits),
            kAdcFreqGhz})
{
    cfg_.validate();

    // ADC full scale covers the worst-case fragment column sum; when
    // the resolution affords more codes than that (the lossless
    // setting), stretch the scale to the code count so the step is
    // exactly one level and integer sums convert exactly.
    const int max_level = (1 << map_.cellBits) - 1;
    const int frag_max = map_.fragSize * max_level;
    fullScale_ = static_cast<double>(
        std::max(frag_max, adc_.config().codes() - 1));

    // Program each crossbar into a contiguous row-panel tile: row r's
    // cell columns at lvl[r * cellCols + cc], so the per-bit MVM is a
    // stride-1 sweep over active rows' panels. Device variation is
    // drawn once here, at program time, in crossbar, row, weight
    // column, cell slice order; the tile is then frozen, and an exact
    // one re-laid as nibble planes. Alongside, precompute the
    // per-fragment read energy, the output extent, the slowest
    // crossbar's ADC-limited per-step time and the worst-case samples
    // per presentation: the hot path then touches only dense arrays.
    const int cells = map_.cellsPerWeight();
    // Nibble-plane entries are uint8_t sums of up to 4 levels.
    const bool planes_fit = 4 * max_level <= 255;
    groups_ = (map_.fragSize + 3) / 4;
    uint64_t max_samples = 0;
    const double sample_ns = adc_.sampleTimeNs();
    Rng rng(kVariationSeed);
    // Program into scratch: a non-exact tile takes it over, an exact
    // one leaves it for the next crossbar.
    std::vector<double> lvl;
    tiles_.reserve(layer.crossbars.size());
    xbs_.reserve(layer.crossbars.size());
    for (size_t xi = 0; xi < layer.crossbars.size(); ++xi) {
        const auto &xb = layer.crossbars[xi];
        // Magnitudes stay out of the copy: they live on as levels.
        xbs_.push_back({xb.rows, xb.weightCols, xb.inputIndex,
                        xb.outputIndex, {}, xb.fragSign, xb.fragsUsed,
                        xb.physId});
        XbarTile tile;
        tile.cellCols = xb.weightCols * cells;
        lvl.resize(static_cast<size_t>(xb.rows) *
                   static_cast<size_t>(tile.cellCols));
        for (int r = 0; r < xb.rows; ++r) {
            double *row = lvl.data() +
                static_cast<size_t>(r) * static_cast<size_t>(tile.cellCols);
            for (int wc = 0; wc < xb.weightCols; ++wc) {
                // reram::sliceMagnitude's cells, without its vector.
                const uint32_t mag = xb.mag(r, wc);
                for (int s = 0; s < cells; ++s)
                    row[wc * cells + s] = reram::programLevel(
                        static_cast<int>((mag >> (s * map_.cellBits)) &
                                         static_cast<uint32_t>(max_level)),
                        max_level, cfg_.cell, &rng);
            }
        }

        // Hard-fault overlay: deterministic per (faultKey, physId),
        // applied to the programmed levels only — read energy keeps
        // the fault-free mid-range conductance model.
        if (cfg_.faults && cfg_.faults->config().any()) {
            const int phys = xb.physId >= 0 ? xb.physId
                                            : static_cast<int>(xi);
            const reram::CrossbarFaults f = cfg_.faults->draw(
                cfg_.faultKey, phys, map_.xbarRows, map_.xbarCols);
            const double lrs = static_cast<double>(max_level);
            bool any_here = false;
            for (int r = 0; r < xb.rows; ++r) {
                for (int cc = 0; cc < tile.cellCols; ++cc) {
                    double &v = lvl[static_cast<size_t>(r) *
                                        static_cast<size_t>(tile.cellCols) +
                                    static_cast<size_t>(cc)];
                    if (f.columnDead(cc)) {
                        v = 0.0;
                        any_here = true;
                        continue;
                    }
                    switch (f.at(r, cc)) {
                      case reram::FaultKind::StuckLrs:
                        v = lrs;
                        any_here = true;
                        break;
                      case reram::FaultKind::StuckHrs:
                        v = 0.0;
                        any_here = true;
                        break;
                      case reram::FaultKind::Drift:
                        v *= f.driftAt(r, cc);
                        any_here = true;
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
                std::min(map_.fragSize, xb.rows - f * map_.fragSize);
            tile.fragReadEpj[static_cast<size_t>(f)] = reram::readEnergyPj(
                rows_here, std::max(1, tile.cellCols), sample_ns);
        }
        // Exact tile: noiseless reads and integer levels in
        // [0, maxLevel]. The scan runs a row at a time and stops after
        // the first row holding another level, so a tile with
        // variation or drift costs about one row. It is branch-free
        // so it vectorizes: adding 2^52 to a level v rounds it to the
        // integer n in the low bits of the sum, and v is exact iff
        // n <= maxLevel (unsigned, so a negative n, NaN or inf fails)
        // and subtracting 2^52 again gives back v bit for bit.
        tile.exact = planes_fit && cfg_.readNoiseSigma == 0.0;
        const size_t cols = static_cast<size_t>(tile.cellCols);
        const uint64_t two52 = bitsOf(0x1p52);
        const auto top = static_cast<uint64_t>(max_level);
        for (size_t i0 = 0; tile.exact && i0 < lvl.size(); i0 += cols) {
            uint64_t bad = 0;
            for (size_t i = i0; i < i0 + cols; ++i) {
                const double t = lvl[i] + 0x1p52;
                const uint64_t n = bitsOf(t) - two52;
                bad |= ((n | (top - n)) >> 63) |
                    (bitsOf(t - 0x1p52) ^ bitsOf(lvl[i]));
            }
            tile.exact = bad == 0;
        }
        if (tile.exact) {
            buildPlanes(xb, lvl, tile);
            ++exactCrossbars_;
        } else {
            tile.lvl = std::move(lvl);
        }
        max_samples += static_cast<uint64_t>(xb.fragsUsed) *
            static_cast<uint64_t>(map_.inputBits) *
            static_cast<uint64_t>(tile.cellCols);
        for (int idx : xb.outputIndex)
            outputExtent_ = std::max(outputExtent_, idx + 1);
        const double per_step = std::ceil(
            static_cast<double>(tile.cellCols) /
            static_cast<double>(kAdcsPerCrossbar)) * sample_ns;
        worstStepNs_ = std::max(worstStepNs_, per_step);
        tiles_.push_back(std::move(tile));
    }
    bitWeight_.resize(static_cast<size_t>(map_.inputBits));
    for (int p = 0; p < map_.inputBits; ++p)
        bitWeight_[static_cast<size_t>(p)] = std::pow(2.0, p);
    cellWeight_.resize(static_cast<size_t>(cells));
    for (int s = 0; s < cells; ++s)
        cellWeight_[static_cast<size_t>(s)] =
            std::pow(2.0, s * map_.cellBits);

    // ADC code table of the exact path: the converted column sum s at
    // input bit p, the same double expression mvmOne's general column
    // loop evaluates for analog = s.
    const int adc_top = adc_.config().codes() - 1;
    const double adc_step = fullScale_ / static_cast<double>(adc_top);
    codeStride_ = static_cast<size_t>(groups_) * 4 *
        static_cast<size_t>(max_level) + 1;
    codeW_.resize(bitWeight_.size() * codeStride_);
    for (size_t p = 0; p < bitWeight_.size(); ++p)
        for (size_t v = 0; v < codeStride_; ++v)
            codeW_[p * codeStride_ + v] =
                reram::adcRead(static_cast<double>(v), adc_step, adc_top) *
                bitWeight_[p];

    adcEnergy_ = RepeatedSum(adc_.energyPerSamplePj(), max_samples);
    lazyAdc_ = LazyAdc(cfg_.readNoiseSigma, adc_step, adc_top);
}

void
CrossbarEngine::buildPlanes(const MappedCrossbar &xb,
                            const std::vector<double> &lvl,
                            XbarTile &tile) const
{
    const int m = map_.fragSize;
    const size_t cols = static_cast<size_t>(tile.cellCols);
    tile.nib.resize(static_cast<size_t>(xb.fragsUsed) *
                    static_cast<size_t>(groups_) * 16 * cols);
    for (int f = 0; f < xb.fragsUsed; ++f) {
        const int rows_here = std::min(m, xb.rows - f * m);
        for (int g = 0; g < groups_; ++g) {
            uint8_t *planes = tile.nib.data() +
                (static_cast<size_t>(f) * static_cast<size_t>(groups_) +
                 static_cast<size_t>(g)) * 16 * cols;
            // The single-row planes are the rows' levels as uint8_t;
            // rows past the crossbar's last row read as 0.
            std::fill(planes, planes + cols, 0);
            for (int k = 0; k < 4; ++k) {
                uint8_t *dst = planes + (size_t{1} << k) * cols;
                const int r = 4 * g + k;
                if (r >= rows_here) {
                    std::fill(dst, dst + cols, 0);
                    continue;
                }
                const double *row =
                    lvl.data() + static_cast<size_t>(f * m + r) * cols;
                for (size_t cc = 0; cc < cols; ++cc)
                    dst[cc] = static_cast<uint8_t>(
                        static_cast<int>(row[cc]));
            }
            // plane[mask] = plane[mask without its lowest row] + the
            // plane of that row.
            for (unsigned mask = 3; mask < 16; ++mask) {
                const unsigned low = mask & (~mask + 1);
                if (mask == low)
                    continue;
                const uint8_t *prev = planes + (mask ^ low) * cols;
                const uint8_t *row = planes + low * cols;
                uint8_t *dst = planes + mask * cols;
                for (size_t cc = 0; cc < cols; ++cc)
                    dst[cc] = static_cast<uint8_t>(prev[cc] + row[cc]);
            }
        }
    }
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
CrossbarEngine::mvmOne(const uint32_t *inputs, uint64_t key, double *out,
                       EngineStats &stats) const
{
    const int m = map_.fragSize;
    const int cells = map_.cellsPerWeight();
    const int in_bits = map_.inputBits;
    LazyAdc::Stream noise(presentationSeed(kVariationSeed, key));

    // Per-thread scratch: mvmOne runs concurrently on pool workers and
    // a presentation must not pay heap allocations in the hot loop.
    static thread_local std::vector<double> acc_bit;
    static thread_local std::vector<double> acc;
    static thread_local std::vector<uint32_t> in_vals;
    static thread_local std::vector<uint16_t> code_idx;
    static thread_local std::vector<const uint8_t *> active;
    // The outputs accumulate in a worker-private row and are stored
    // once: neighbouring presentations' out-block rows share cache
    // lines but run on different workers.
    static thread_local std::vector<double> row;
    row.assign(static_cast<size_t>(outputExtent_), 0.0);

    EngineStats local;
    local.presentations = 1;

    for (size_t xi = 0; xi < tiles_.size(); ++xi) {
        const MappedCrossbar &xb = xbs_[xi];
        const XbarTile &tile = tiles_[xi];
        const int cell_cols = tile.cellCols;

        // Gather this crossbar's activations once; the bit loop then
        // consumes them from registers instead of re-materializing a
        // row_bits vector per presented bit.
        in_vals.resize(static_cast<size_t>(xb.rows));
        for (int r = 0; r < xb.rows; ++r)
            in_vals[static_cast<size_t>(r)] =
                inputs[xb.inputIndex[static_cast<size_t>(r)]];

        acc.resize(static_cast<size_t>(cell_cols));
        if (tile.exact) {
            code_idx.resize(static_cast<size_t>(cell_cols));
            active.resize(static_cast<size_t>(groups_));
        } else {
            acc_bit.resize(static_cast<size_t>(cell_cols));
        }

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

            std::fill(acc.begin(), acc.end(), 0.0);
            const size_t cols = static_cast<size_t>(cell_cols);
            const double *frag_lvl = tile.exact ? nullptr
                : tile.lvl.data() + static_cast<size_t>(r0) * cols;
            const uint8_t *frag_nib = tile.exact
                ? tile.nib.data() + static_cast<size_t>(f) *
                      static_cast<size_t>(groups_) * 16 * cols
                : nullptr;
            for (int p = eic - 1; p >= 0; --p) {
                ++local.bitCycles;
                local.crossbarEnergyPj +=
                    tile.fragReadEpj[static_cast<size_t>(f)];
                local.adcSamples += cols;

                if (tile.exact) {
                    // Exact tile: each 4-row group's active rows form
                    // a mask selecting the plane of their integer
                    // sums; the groups' sum indexes the ADC code
                    // table. Integer sums are exact in any order, and
                    // the table entry is the general loop's double.
                    // An all-inactive group adds 0 and is dropped; so
                    // is a step with no active row, whose +0 codes
                    // leave acc unchanged.
                    int n_act = 0;
                    for (int g = 0; g < groups_; ++g) {
                        unsigned mask = 0;
                        const int hi = std::min(rows_here, 4 * g + 4);
                        for (int r = 4 * g; r < hi; ++r)
                            mask |= ((in_vals[static_cast<size_t>(r0 + r)] >>
                                      p) & 1u) << (r - 4 * g);
                        if (mask)
                            active[static_cast<size_t>(n_act++)] =
                                frag_nib +
                                (static_cast<size_t>(g) * 16 + mask) * cols;
                    }
                    const double *code =
                        codeW_.data() + static_cast<size_t>(p) * codeStride_;
                    double *a = acc.data();
                    const uint8_t *p0 = active[0];
                    if (n_act == 1) {
                        for (size_t cc = 0; cc < cols; ++cc)
                            a[cc] += code[p0[cc]];
                    } else if (n_act == 2) {
                        const uint8_t *p1 = active[1];
                        for (size_t cc = 0; cc < cols; ++cc)
                            a[cc] += code[p0[cc] + p1[cc]];
                    } else if (n_act > 2) {
                        const uint8_t *p1 = active[1];
                        uint16_t *sum = code_idx.data();
                        for (size_t cc = 0; cc < cols; ++cc)
                            sum[cc] = static_cast<uint16_t>(p0[cc] + p1[cc]);
                        for (int k = 2; k < n_act; ++k) {
                            const uint8_t *pk =
                                active[static_cast<size_t>(k)];
                            for (size_t cc = 0; cc < cols; ++cc)
                                sum[cc] = static_cast<uint16_t>(sum[cc] +
                                                                pk[cc]);
                        }
                        for (size_t cc = 0; cc < cols; ++cc)
                            a[cc] += code[sum[cc]];
                    }
                    continue;
                }

                generalStep(lazyAdc_, frag_lvl, in_vals.data() + r0,
                            rows_here, cols, p,
                            bitWeight_[static_cast<size_t>(p)], noise,
                            acc_bit.data(), acc.data());
            }

            // Digital shift-and-add across cell significance plus the
            // signed accumulation steered by the sign indicator.
            for (int wc = 0; wc < xb.weightCols; ++wc) {
                double weight_sum = 0.0;
                for (int s = 0; s < cells; ++s) {
                    weight_sum += acc[static_cast<size_t>(wc * cells + s)] *
                        cellWeight_[static_cast<size_t>(s)];
                }
                row[static_cast<size_t>(
                    xb.outputIndex[static_cast<size_t>(wc)])] +=
                    static_cast<double>(xb.sign(wc, f)) * weight_sum;
            }
        }
    }
    std::copy(row.begin(), row.end(), out);

    // ADC-limited serial time: each (fragment, bit) step converts
    // cell_cols columns on kAdcsPerCrossbar parallel ADCs. Crossbars
    // operate in parallel, so charge the slowest one.
    local.timeNs = worstStepNs_ * static_cast<double>(local.bitCycles) /
        std::max<double>(1.0, static_cast<double>(tiles_.size()));
    // Every conversion costs the same energy, so the presentation's
    // ADC energy is the n-fold sum of it, looked up instead of chained.
    local.adcEnergyPj = adcEnergy_.at(local.adcSamples);

    stats.merge(local);
}

void
CrossbarEngine::mvmBlock(const uint32_t *in, size_t in_stride, size_t lo,
                         size_t hi, const uint64_t *keys, double *out,
                         size_t out_stride, EngineStats *stats,
                         EngineStats *per_out, ThreadPool *pool) const
{
    FORMS_ASSERT(lo <= hi && out_stride >= static_cast<size_t>(outputExtent_),
                 "mvmBlock: slice [%zu, %zu), out stride %zu < extent %d",
                 lo, hi, out_stride, outputExtent_);
    const size_t count = hi - lo;
    if (count == 0)
        return;
    std::vector<EngineStats> per(count);
    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    tp.parallelFor(
        0, static_cast<int64_t>(count), 1,
        [&](int64_t i, int) {
            const size_t j = lo + static_cast<size_t>(i);
            mvmOne(in + j * in_stride, keys[j], out + j * out_stride,
                   per[static_cast<size_t>(i)]);
        });

    // Merge per-presentation stats in presentation order: identical
    // floating-point accumulation order to a serial loop of blocks.
    if (stats)
        for (const auto &s : per)
            stats->merge(s);
    if (per_out)
        for (size_t i = 0; i < count; ++i)
            per_out[lo + i].merge(per[i]);
}

std::vector<std::vector<double>>
CrossbarEngine::mvmKeyed(const std::vector<std::vector<uint32_t>> &batch,
                         size_t lo, size_t hi, const uint64_t *keys,
                         EngineStats *stats, EngineStats *per_out,
                         ThreadPool *pool) const
{
    FORMS_ASSERT(lo <= hi && hi <= batch.size(),
                 "mvmKeyed: slice [%zu, %zu) outside batch of %zu", lo,
                 hi, batch.size());
    const size_t count = hi - lo;
    const size_t rows = count ? batch[lo].size() : 0;
    const size_t ext = static_cast<size_t>(outputExtent_);
    std::vector<uint32_t> in;
    in.reserve(count * rows);
    for (size_t j = lo; j < hi; ++j) {
        FORMS_ASSERT(batch[j].size() == rows,
                     "mvmKeyed: presentations of unequal length");
        in.insert(in.end(), batch[j].begin(), batch[j].end());
    }
    std::vector<double> out(count * ext);
    mvmBlock(in.data(), rows, 0, count, keys + lo, out.data(), ext, stats,
             per_out ? per_out + lo : nullptr, pool);
    std::vector<std::vector<double>> outs;
    for (size_t i = 0; i < count; ++i)
        outs.emplace_back(out.data() + i * ext, out.data() + (i + 1) * ext);
    return outs;
}

uint32_t
roundCode(double d, double top)
{
    // Selects on non-constants and bit arithmetic only, so the loops
    // inlining this vectorize (DESIGN.md §6): NaN fails d < top, and
    // the sign-bit mask clears every negative d, -0 included.
    d = d < top ? d : top;
    const uint64_t b = bitsOf(d);
    d = fromBits(b & ((b >> 63) - 1));
    const double t = static_cast<double>(static_cast<int32_t>(d));
    return static_cast<uint32_t>(
        static_cast<int32_t>(t + (d - t >= 0.5 ? 1.0 : 0.0)));
}

float
quantizeActivations(const float *x, size_t n, int bits, uint32_t *q)
{
    FORMS_ASSERT(bits >= 1 && bits <= 31, "bad activation bits");
    // The scale comes from the finite values only: one +inf must not
    // quantize the rest of the presentation to 0. On their bit
    // patterns as int32, the positive finite floats are exactly
    // (0, 0x7f800000) and order as their values, so the largest one is
    // an integer max over a select that drops the rest.
    int32_t mx = 0;
    for (size_t i = 0; i < n; ++i) {
        int32_t v;
        std::memcpy(&v, x + i, sizeof v);
        v = v < 0x7f800000 ? v : 0;
        mx = v > mx ? v : mx;
    }
    float fmx;
    std::memcpy(&fmx, &mx, sizeof fmx);
    const uint32_t qmax = (1u << bits) - 1;
    const float scale = mx > 0 ? fmx / static_cast<float>(qmax) : 1.0f;
    // lround(x / scale) capped at qmax, for the float quotient: +inf
    // and NaN saturate, non-positive values give 0.
    const double top = static_cast<double>(qmax);
    for (size_t i = 0; i < n; ++i)
        q[i] = roundCode(static_cast<double>(x[i] / scale), top);
    return scale;
}

uint64_t
quantizeActivationsStatic(const float *x, size_t n, int bits, float scale,
                          uint32_t *q)
{
    FORMS_ASSERT(bits >= 1 && bits <= 31, "bad activation bits");
    FORMS_ASSERT(scale > 0.0f,
                 "static activation scale must be positive — was the "
                 "calibration table built for this layer?");
    const uint32_t qmax = (1u << bits) - 1;
    const double top = static_cast<double>(qmax);
    const double s = static_cast<double>(scale);
    const double lim = top + 0.5;
    // Non-positive values (sign set, magnitude <= inf's) become +0
    // first, whose code is 0 for any scale; NaN stays NaN. A code at or
    // past qmax + 0.5 (inf and NaN included) saturates and counts as
    // clipped: bits of 1.0 >> 61 are 1, of 0.0 are 0.
    uint64_t clipped = 0;
    for (size_t i = 0; i < n; ++i) {
        int32_t v;
        std::memcpy(&v, x + i, sizeof v);
        v &= ~((v >> 31) & (((v & 0x7fffffff) - 0x7f800001) >> 31));
        float f;
        std::memcpy(&f, &v, sizeof f);
        const double code = static_cast<double>(f) / s;
        clipped += bitsOf(code < lim ? 0.0 : 1.0) >> 61;
        q[i] = roundCode(code, top);
    }
    return clipped;
}

} // namespace forms::arch
