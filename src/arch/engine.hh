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
 */

#ifndef FORMS_ARCH_ENGINE_HH
#define FORMS_ARCH_ENGINE_HH

#include "arch/mapping.hh"
#include "arch/zero_skip.hh"
#include "common/threadpool.hh"
#include "reram/adc.hh"
#include "reram/crossbar.hh"
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

/** Engine knobs beyond the mapping geometry. */
struct EngineConfig
{
    int adcBits = 0;           //!< 0 = lossless (exact integer sums)
    double adcFreqGhz = 2.1;
    int adcsPerCrossbar = 4;
    bool zeroSkip = true;
    reram::CellConfig cell;    //!< device model (variation etc.)
    uint64_t variationSeed = 99;

    /**
     * Transient read noise: multiplicative log-normal sigma applied to
     * every analog column sum at read time (0 = noiseless reads).
     * Unlike device variation (drawn once at program time), this is
     * per-presentation randomness; its stream is keyed by
     * (variationSeed, presentation key) so batched execution is
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

/** Executes mapped layers on simulated crossbars. */
class CrossbarEngine
{
  public:
    /**
     * Program the mapped layer onto simulated crossbar arrays.
     * Device variation (if configured) is drawn once here, at
     * program time, as on real hardware.
     */
    CrossbarEngine(const MappedLayer &layer, EngineConfig cfg);

    /**
     * One matrix-vector product. `inputs` is indexed by the layer's
     * natural input indices and quantized to cfg.inputBits; its
     * read-noise RNG is keyed by (variationSeed, `key`). Equivalent to
     * mvmKeyed() on a batch of one with that key: both call the
     * mvmOne() core and merge stats the same way, asserted by
     * tests/test_runtime.cc.
     *
     * @return signed outputs in integer level units, indexed by the
     *         natural output index (same convention as referenceMvm).
     */
    std::vector<double> mvm(const std::vector<uint32_t> &inputs,
                            EngineStats *stats = nullptr,
                            uint64_t key = 0);

    /**
     * Batched matrix-vector products: run every presentation in
     * `batch`, sharding them across `pool` (null = the process-wide
     * pool). Presentation j is keyed by j, so the call equals
     * mvmKeyed() over the whole batch with keys 0..n-1 — and the
     * outputs AND the merged stats are bit-identical to a serial
     * loop of mvm(batch[j], stats, j), for any thread count.
     */
    std::vector<std::vector<double>>
    mvmBatch(const std::vector<std::vector<uint32_t>> &batch,
             EngineStats *stats = nullptr, ThreadPool *pool = nullptr);

    /**
     * Batched matrix-vector products over the slice [lo, hi) of
     * `batch` with explicit per-presentation stream keys: presentation
     * batch[j] draws its read-noise RNG from stream key keys[j]. The
     * engine holds no presentation state, so two engines programmed
     * from the same config produce bit-identical outputs for the same
     * key, regardless of what either engine executed before: the
     * mechanism behind replica slicing (sim/stage_kernels.hh) and the
     * serving layer's batch-invariance contract (docs/SERVING.md).
     *
     * Per-presentation stats merge into `stats` in ascending j order.
     * When `per` is non-null it is an accumulator array parallel to
     * `batch`: presentation j's stats additionally merge into per[j]
     * — the per-request stats channel.
     */
    std::vector<std::vector<double>>
    mvmKeyed(const std::vector<std::vector<uint32_t>> &batch, size_t lo,
             size_t hi, const uint64_t *keys, EngineStats *stats = nullptr,
             EngineStats *per = nullptr, ThreadPool *pool = nullptr);

    /** Mix (seed, presentation key) into one RNG stream seed. */
    static uint64_t presentationSeed(uint64_t seed, uint64_t key);

    /** Effective ADC resolution in use (lossless when cfg was 0). */
    int adcBitsInUse() const { return adc_.config().bits; }

    const MappedLayer &layer() const { return layer_; }

    /** Crossbars whose used window carries at least one fault. */
    int64_t faultyCrossbars() const { return faultyCrossbars_; }

    /** Stuck or drifted cells within the used windows. */
    int64_t faultyCells() const { return faultyCells_; }

  private:
    /**
     * Execute one presentation. Const and self-contained (all scratch
     * is local, the programmed arrays are only read), so concurrent
     * calls from pool workers are safe.
     */
    void mvmOne(const std::vector<uint32_t> &inputs, uint64_t key,
                std::vector<double> &out, EngineStats &stats) const;

    /**
     * One crossbar's realized conductances re-laid as a contiguous
     * tile: row r's cell columns at lvl[r * cellCols + cc], so the
     * per-bit MVM is a stride-1 sweep over active rows' panels.
     * Snapshotted from the programmed arrays at construction (device
     * variation is drawn at program time, so the values are frozen).
     */
    struct XbarTile
    {
        std::vector<double> lvl;          //!< rows x cellCols, row-panel
        std::vector<double> fragReadEpj;  //!< read energy per fragment bit
        int cellCols = 0;
    };

    const MappedLayer &layer_;
    EngineConfig cfg_;
    reram::AdcModel adc_;
    double fullScale_;             //!< ADC full-scale in level units
    std::vector<reram::CrossbarArray> arrays_;
    std::vector<XbarTile> tiles_;
    std::vector<double> bitWeight_;   //!< 2^p per input bit position
    std::vector<double> cellWeight_;  //!< 2^(s*cellBits) per cell slice
    Rng rng_;                      //!< program-time variation source
    int outputExtent_ = 0;         //!< 1 + max natural output index
    double worstStepNs_ = 0.0;     //!< slowest crossbar's per-step time
    int64_t faultyCrossbars_ = 0;  //!< tiles overlaid with any fault
    int64_t faultyCells_ = 0;      //!< stuck/drifted cells (used window)
};

/**
 * Convenience: dequantize engine outputs back to real units given the
 * weight grid `w_scale` and activation grid `in_scale`.
 */
std::vector<float> dequantizeOutputs(const std::vector<double> &raw,
                                     float w_scale, float in_scale);

/** Quantize a nonnegative activation vector to `bits` unsigned ints. */
std::vector<uint32_t> quantizeActivations(const std::vector<float> &x,
                                          int bits, float *scale_out);

/**
 * Quantize against a frozen grid: q = round(x / scale) clamped to
 * [0, 2^bits - 1]. Negative values map to zero (unsigned bit-serial
 * encoding); values past the grid max saturate and are counted into
 * `*clipped_out` (accumulated, not assigned — callers fold several
 * presentations into one counter).
 */
std::vector<uint32_t> quantizeActivationsStatic(
    const std::vector<float> &x, int bits, float scale,
    uint64_t *clipped_out = nullptr);

} // namespace forms::arch

#endif // FORMS_ARCH_ENGINE_HH
