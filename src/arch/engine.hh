/**
 * @file
 * Functional MCU engine: executes a mapped layer on simulated ReRAM
 * crossbars with bit-serial inputs, fragment (sub-array) activation,
 * zero-skipping, ADC conversion and signed digital accumulation
 * (paper §IV, Figure 11) — collecting cycle / conversion / energy
 * statistics along the way.
 *
 * With ideal devices and lossless ADC resolution the engine is
 * integer-exact against referenceMvm(); with the paper's 3/4/5-bit
 * ADCs or device variation enabled, the induced numerical error is
 * measurable (and tested to stay small for trained weight
 * distributions).
 *
 * A crossbar whose programmed levels are all small non-negative
 * integers, read without noise, runs an exact-integer path: its column
 * sums are integers, so the engine keeps the tile as nibble planes of
 * integer row sums and converts each sum through a per-engine ADC code
 * table. Every other tile keeps its double conductances and converts
 * its column sums through LazyAdc, which decides most ADC codes from a
 * bounded approximation of the read-noise chain. Both paths give the
 * same bits (DESIGN.md §6).
 */

#ifndef FORMS_ARCH_ENGINE_HH
#define FORMS_ARCH_ENGINE_HH

#include "arch/mapping.hh"
#include "arch/zero_skip.hh"
#include "common/rng.hh"
#include "common/threadpool.hh"
#include "reram/adc.hh"
#include "reram/device.hh"
#include "reram/faults.hh"

namespace forms::arch {

/**
 * How activation vectors are quantized onto the unsigned bit-serial
 * input grid (DESIGN.md §2).
 *
 * - PerPresentation: the scale is each presentation's own max / qmax —
 *   an idealized per-vector dynamic range no fixed DAC grid can
 *   provide. Kept as the reference upper bound.
 * - Static: one offline-calibrated scale per programmed layer
 *   (compile::CalibrationTable, built by sim::Calibrator), frozen at
 *   deployment time as on real hardware. Out-of-range activations
 *   saturate at the grid max and are counted in
 *   EngineStats::quantClipped.
 */
enum class ScaleMode
{
    PerPresentation,  //!< idealized per-vector max scale
    Static,           //!< offline-calibrated fixed scale
};

/**
 * The engine's ADC bank: four ADCs per crossbar at 2.1 GHz, the
 * paper's fragment-8 MCU. The frequency is the literal 2.1, not
 * reram::AdcModel::paperFreqGhz(4), which is not bit-exactly 2.1.
 */
constexpr double kAdcFreqGhz = 2.1;
constexpr int kAdcsPerCrossbar = 4;

/**
 * Seed of the engine's random streams: device variation drawn at
 * programming, and the per-presentation read-noise streams keyed by
 * (kVariationSeed, presentation key).
 */
constexpr uint64_t kVariationSeed = 99;

/** Engine knobs beyond the mapping geometry. */
struct EngineConfig
{
    int adcBits = 0;           //!< 0 = lossless (exact integer sums)
    bool zeroSkip = true;
    reram::CellConfig cell;    //!< device model (variation etc.)

    /**
     * Transient read noise: multiplicative log-normal sigma applied to
     * every analog column sum at read time (0 = noiseless reads).
     * Unlike device variation (drawn once at program time), this is
     * per-presentation randomness; its stream is keyed by
     * (kVariationSeed, presentation key) so batched execution is
     * bit-identical to serial regardless of thread count.
     */
    double readNoiseSigma = 0.0;

    /**
     * Optional hard-fault model (reram/faults.hh). When set, the
     * realized conductance tiles are overlaid at construction with
     * the deterministic fault pattern of (faults->config().seed,
     * faultKey, crossbar physId): stuck-at-LRS cells read as the
     * device's maximum level, stuck-at-HRS cells and dead columns as
     * 0, drifted cells as programmed x factor. Borrowed pointer, not
     * owned; null means fault-free. faultKey names this engine's
     * logical owner (the graph node id in the compiled runtimes) so
     * every runtime and replica draws an identical pattern.
     */
    const reram::FaultMap *faults = nullptr;
    uint64_t faultKey = 0;

    /**
     * Abort, naming the field, unless adcBits is in [0, 30] and
     * readNoiseSigma and cell.variationSigma are finite and >= 0. The
     * CrossbarEngine constructor calls it.
     */
    void validate() const;
};

/** Execution statistics of one engine run. */
struct EngineStats
{
    uint64_t presentations = 0;   //!< input vectors processed
    uint64_t bitCycles = 0;       //!< (fragment, bit) activations
    uint64_t skippedCycles = 0;   //!< bit cycles avoided by zero-skip
    uint64_t adcSamples = 0;      //!< individual conversions
    uint64_t quantValues = 0;     //!< activation scalars quantized
    uint64_t quantClipped = 0;    //!< saturated at the static grid max
    double adcEnergyPj = 0.0;
    double crossbarEnergyPj = 0.0;
    double timeNs = 0.0;          //!< ADC-limited serial time

    /** Fraction of potential bit cycles skipped. */
    double skipFraction() const
    {
        const double tot =
            static_cast<double>(bitCycles + skippedCycles);
        return tot > 0.0 ? static_cast<double>(skippedCycles) / tot : 0.0;
    }

    /**
     * Fraction of quantized activation values that saturated the
     * input grid. Always 0 under ScaleMode::PerPresentation (the
     * idealized scale adapts); under ScaleMode::Static it measures
     * how much of the dynamic range the calibration left uncovered.
     */
    double clipFraction() const
    {
        return quantValues > 0
            ? static_cast<double>(quantClipped) /
                static_cast<double>(quantValues)
            : 0.0;
    }

    void merge(const EngineStats &other);
};

/**
 * The left-to-right floating-point sum R(n) = ((0 + e) + e) + ... of n
 * copies of one value e, for every n up to a bound, in O(log n) space.
 *
 * Within one binade of R every addition rounds on the same ulp grid,
 * so each step adds the same round(e / ulp) * ulp and R is affine in n
 * there. The sum is stored as affine segments (n0, r0, d). Near a
 * binade's top it takes genuine single steps, and one more where
 * e / ulp ends in exactly one half: round-half-to-even then depends on
 * R's last bit, and after that step R is an even multiple of the ulp,
 * so the steps are equal again. at(n) equals the literal chain bit for
 * bit.
 */
class RepeatedSum
{
  public:
    /** The empty sum: R(0) = 0 only. */
    RepeatedSum() : RepeatedSum(0.0, 0) {}

    /** Segments for n = 0 .. max_n; `e` must be 0 or a normal,
     *  non-negative double. */
    RepeatedSum(double e, uint64_t max_n);

    /** R(n), for n <= the construction bound. */
    double at(uint64_t n) const;

    /** Number of stored segments (O(log max_n)). */
    size_t segments() const { return segs_.size(); }

  private:
    struct Segment
    {
        uint64_t n0;  //!< first n of the segment
        double r0;    //!< R(n0)
        double d;     //!< constant step inside the segment
    };
    std::vector<Segment> segs_;
    uint64_t maxN_ = 0;
};

/**
 * Read noise, ADC and bit weight for the column sums of one (fragment,
 * bit) step of a general tile: adds
 *
 *     adcRead(analog[c] * exp(0.0 + sigma * g_c), step, top) * 2^p
 *
 * to acc[c], where g_c are the presentation's next normals in
 * Rng::gaussian() order (sigma = 0: no noise, no draws). The result is
 * the literal chain's bit for bit, but most codes come from an
 * approximation with a proven relative error bound (DESIGN.md §6):
 *
 * 1. draw the step's polar pairs branch-free, u, v and s per attempt;
 * 2. per pair, m ~ sqrt(-2 ln s / s) from the exponent bits of s, a
 *    128-entry ln table and a degree-4 series;
 * 3. per column, y ~ analog * P(sigma * g) / step + 0.5 with P a
 *    Taylor polynomial of exp, and code = min(floor(y), top) unless
 *    |sigma * g| >= 0.24 or y lies within a relative margin of an
 *    integer;
 * 4. any other column runs the literal chain, Rng::polarScale, exp
 *    and reram::adcCode.
 *
 * A code fixed by the bound is an integer, so it is the literal
 * chain's code, and the contribution is the same double expression.
 */
class LazyAdc
{
  public:
    /** One presentation's read-noise draws: its RNG, and the polar pair
     *  whose v normal gaussian() would return next (the spare). */
    struct Stream
    {
        explicit Stream(uint64_t seed) : rng(seed) {}

        Rng rng;
        bool haveSpare = false;
        double spareV = 0.0;
        double spareS = 0.0;
    };

    LazyAdc() = default;

    /** Multiplicative log-normal sigma (0 = noiseless) and the ADC grid
     *  of reram::adcRead. */
    LazyAdc(double sigma, double step, int top);

    /**
     * Convert cols column sums, drawing cols normals from `st`.
     * @return the number of columns the literal chain decided.
     */
    size_t convert(const double *analog, size_t cols, double bit_weight,
                   Stream &st, double *acc) const;

    /**
     * Steps 2-4 on given polar pairs: column c's normal is
     * uv[t] * Rng::polarScale(s[t / 2]) with t = base + c, uv holding
     * each pair's u and v. Every s must pass Rng::polarAccepts and be
     * a normal double, as every s the polar method draws is. uv and s
     * are ignored when sigma is 0.
     * @return the number of columns the literal chain decided.
     */
    size_t resolve(const double *analog, size_t cols, double bit_weight,
                   const double *uv, const double *s, size_t base,
                   double *acc) const;

  private:
    double sigma_ = 0.0;
    double step_ = 1.0;
    double invStep_ = 1.0;
    int top_ = 0;
};

/** Executes mapped layers on simulated crossbars. */
class CrossbarEngine
{
  public:
    /**
     * Program the mapped layer into per-crossbar tiles the engine owns.
     * Device variation (if configured) is drawn once here, at
     * program time, as on real hardware; afterwards the engine reads
     * nothing of `layer` or of cfg.faults.
     */
    CrossbarEngine(const MappedLayer &layer, EngineConfig cfg);

    /**
     * Run presentations j in [lo, hi) of a contiguous block, sharded
     * across `pool` (null = the process-wide pool). j reads its inputs,
     * quantized to the mapping's inputBits and indexed by natural input
     * index, at in + j * in_stride; draws read noise from stream key
     * keys[j]; and writes outputExtent() signed outputs in integer level
     * units, indexed by natural output index (as referenceMvm), to
     * out + j * out_stride. The engine holds no presentation state, so
     * engines programmed from one config give bit-identical outputs for
     * one key whatever they ran before: the mechanism behind replica
     * slicing (sim/stage_kernels.hh) and serving's batch-invariance
     * contract (docs/SERVING.md). Stats merge into `stats` in ascending
     * j order, so outputs and stats equal a serial loop of
     * one-presentation blocks bit for bit on any thread count. When
     * `per` is non-null, j's stats also merge into per[j] — the
     * per-request stats channel.
     */
    void mvmBlock(const uint32_t *in, size_t in_stride, size_t lo,
                  size_t hi, const uint64_t *keys, double *out,
                  size_t out_stride, EngineStats *stats = nullptr,
                  EngineStats *per = nullptr,
                  ThreadPool *pool = nullptr) const;

    /**
     * mvmBlock() on the slice [lo, hi) of equal-length vectors, packed
     * into a block: batch[j] uses keys[j] and per[j].
     */
    std::vector<std::vector<double>>
    mvmKeyed(const std::vector<std::vector<uint32_t>> &batch, size_t lo,
             size_t hi, const uint64_t *keys, EngineStats *stats = nullptr,
             EngineStats *per = nullptr, ThreadPool *pool = nullptr) const;

    /** Outputs per presentation: 1 + the largest natural output index. */
    int outputExtent() const { return outputExtent_; }

    /** Mix (seed, presentation key) into one RNG stream seed. */
    static uint64_t presentationSeed(uint64_t seed, uint64_t key);

    /** Effective ADC resolution in use (lossless when cfg was 0). */
    int adcBitsInUse() const { return adc_.config().bits; }

    /** The mapping's weight grid spacing (MappedLayer::scale). */
    float weightScale() const { return weightScale_; }

    /** Programmed crossbars. */
    int64_t crossbars() const { return static_cast<int64_t>(tiles_.size()); }

    /** Crossbars whose used window carries at least one fault. */
    int64_t faultyCrossbars() const { return faultyCrossbars_; }

    /** Crossbars on the exact-integer path (XbarTile::nib). */
    int64_t exactCrossbars() const { return exactCrossbars_; }

  private:
    /**
     * Execute one presentation into out[0, outputExtent_), accumulated
     * in a thread-local row and stored once. Const, with thread-local
     * scratch and read-only tiles, so concurrent calls from pool
     * workers are safe.
     */
    void mvmOne(const uint32_t *inputs, uint64_t key, double *out,
                EngineStats &stats) const;

    /**
     * One crossbar's programmed conductances (level units), written
     * once at construction (device variation and faults included) and
     * read-only afterwards. A tile holds exactly one store of them:
     *
     * - `nib` when the tile is exact (readNoiseSigma == 0 and every
     *   level an integer in [0, maxLevel]): per fragment, per group of
     *   4 rows, per row mask 0..15, the integer sum of the masked rows'
     *   levels for each cell column, at
     *   nib[((f * groups + g) * 16 + mask) * cellCols + cc];
     * - `lvl` otherwise: row r's cell columns at lvl[r * cellCols + cc],
     *   so the per-bit MVM is a stride-1 sweep over active rows'
     *   panels, whose column sums go through LazyAdc.
     */
    struct XbarTile
    {
        std::vector<double> lvl;          //!< rows x cellCols, row-panel
        std::vector<uint8_t> nib;         //!< nibble planes (exact tile)
        std::vector<double> fragReadEpj;  //!< read energy per fragment bit
        int cellCols = 0;
        bool exact = false;               //!< `nib` is the store
    };

    /** Fill an exact tile's nibble planes from its programmed levels
     *  (row-panel layout, like `lvl`). */
    void buildPlanes(const MappedCrossbar &xb,
                     const std::vector<double> &lvl, XbarTile &tile) const;

    MappingConfig map_;            //!< the mapping's geometry
    float weightScale_;            //!< the mapping's weight grid spacing
    EngineConfig cfg_;
    reram::AdcModel adc_;
    double fullScale_;             //!< ADC full-scale in level units
    std::vector<XbarTile> tiles_;
    std::vector<MappedCrossbar> xbs_;  //!< per tile, without magnitudes
    int groups_ = 0;               //!< 4-row groups per fragment
    size_t codeStride_ = 0;        //!< groups * 4 * maxLevel + 1 codes
    std::vector<double> codeW_;    //!< adcRead(s) * 2^p, [p][s] rows
    LazyAdc lazyAdc_;              //!< general tiles' noise and ADC
    RepeatedSum adcEnergy_;        //!< R(n) of the per-sample ADC energy
    std::vector<double> bitWeight_;   //!< 2^p per input bit position
    std::vector<double> cellWeight_;  //!< 2^(s*cellBits) per cell slice
    int outputExtent_ = 0;         //!< 1 + max natural output index
    double worstStepNs_ = 0.0;     //!< slowest crossbar's per-step time
    int64_t faultyCrossbars_ = 0;  //!< tiles overlaid with any fault
    int64_t exactCrossbars_ = 0;   //!< tiles stored as nibble planes
};

/** One engine output back in real units, given the weight grid
 *  `w_scale` and the activation grid `in_scale`. */
inline float
dequantize(double raw, float w_scale, float in_scale)
{
    return static_cast<float>(
        raw * (static_cast<double>(w_scale) * static_cast<double>(in_scale)));
}

/**
 * lround(d) clamped to [0, top], top <= 2^31 - 1: NaN and d >= top
 * give top, d <= 0 gives 0. Exact and branch-free: after the clamps
 * the int32 conversion cannot overflow, and d minus its truncation is
 * exact, so the half-way test never rounds (d + 0.5 would: for
 * d = 0.49999999999999994 it is 1.0, yet lround(d) is 0).
 */
uint32_t roundCode(double d, double top);

/**
 * Quantize n nonnegative activations at x into q, `bits` unsigned ints
 * on the per-presentation grid: scale = (largest finite value) / qmax,
 * q = lround(x / scale) clamped to qmax. Non-positive values map to 0;
 * +inf and NaN saturate at qmax. Exact and branch-free (DESIGN.md §6).
 * @return the scale
 */
float quantizeActivations(const float *x, size_t n, int bits,
                          uint32_t *q);

/**
 * Quantize n activations at x into q against a frozen grid:
 * q = lround(x / scale) clamped to [0, 2^bits - 1]. Negative values
 * map to zero (unsigned bit-serial encoding); values past the grid max
 * (and NaN) saturate. Exact and branch-free (DESIGN.md §6).
 * @return the number of saturated values
 */
uint64_t quantizeActivationsStatic(const float *x, size_t n, int bits,
                                   float scale, uint32_t *q);

} // namespace forms::arch

#endif // FORMS_ARCH_ENGINE_HH
