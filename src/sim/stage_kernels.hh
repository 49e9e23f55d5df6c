/**
 * @file
 * Per-stage execution kernels of the batched crossbar runtime.
 *
 * sim::PipelineRuntime (sim/pipeline_runtime.hh), through its DAG
 * walk in sim/graph_exec.hh, streams a (micro-)batch through one
 * programmed matrix stage, on any chip or replica, the same way:
 *
 *     (im2col) -> quantize -> mvmKeyed -> dequantize(+bias)
 *
 * The kernels here carry the DESIGN.md §3 determinism contract: all
 * parallel loops write disjoint elements, per-presentation randomness
 * is keyed by each image's stream id (StageEngines::imageIds), and
 * per-batch EngineStats come back merged in presentation order.
 */

#ifndef FORMS_SIM_STAGE_KERNELS_HH
#define FORMS_SIM_STAGE_KERNELS_HH

#include "admm/compressor.hh"
#include "arch/engine.hh"
#include "arch/zero_skip.hh"

namespace forms::sim {

struct RuntimeConfig;
struct RuntimeReport;

/**
 * How one programmed stage quantizes its input presentations — the
 * single place the arch::ScaleMode switch reaches the kernels. The
 * runtime resolves its mode/table into one of these per stage, so the
 * per-presentation scale assumption cannot fork between stages.
 */
struct StageScale
{
    arch::ScaleMode mode = arch::ScaleMode::PerPresentation;

    /** Static mode: the calibrated quantizer step for this stage. */
    float staticScale = 0.0f;

    /**
     * Calibration hook: when set, every presentation's pre-quantization
     * abs-max is appended here in presentation order (used by
     * sim::Calibrator; normal inference leaves it null).
     */
    std::vector<float> *record = nullptr;

    /**
     * Calibration hook for the bit-level activity model: when set,
     * every quantized presentation's fragment EICs (consecutive-row
     * fragments of `eicFragSize`, matching the engine's input
     * fragmenting) are folded into this histogram, in presentation
     * order. Feeds CalibEntry::avgEic; normal inference leaves it
     * null.
     */
    arch::EicStats *eicStats = nullptr;
    int eicFragSize = 0;
};

/**
 * Resolve one programmed stage's quantization from the runtime
 * config — the single place all executors derive a StageScale.
 * Static mode takes the calibration-table entry when one covers the
 * stage, else `attached_scale` (a scale carried on the graph node's
 * input edge by CalibrationTable::attachTo; pass 0 when none); a
 * stage covered by neither fatal()s here, at construction time, not
 * mid-batch.
 */
StageScale resolveStageScale(const RuntimeConfig &cfg,
                             const std::string &name,
                             float attached_scale = 0.0f);

/**
 * Quantize the presentations of one programmed stage — the single
 * quantize entry point shared by every executor. Presentation j's row
 * r lives at base[j*j_stride + r*r_stride] (strided access covers both
 * the column-major im2col layout and row-major dense inputs); negative
 * values map to zero (the bit-serial input encoding is unsigned,
 * DESIGN.md §2). Per-presentation dequantization scales land in
 * `scales`; quantValues/quantClipped counters fold into `stats` in
 * presentation order.
 */
std::vector<std::vector<uint32_t>>
quantizePresentations(ThreadPool &tp, int64_t count, int64_t rows,
                      int bits, const StageScale &sc,
                      std::vector<float> &scales, const float *base,
                      int64_t j_stride, int64_t r_stride,
                      arch::EngineStats *stats, int64_t ppi = 0,
                      arch::EngineStats *per_image = nullptr);

/**
 * One replica-slice's worth of modeled work, reported through the
 * per-phase timing sinks (StageEngines::onPhase here, PhaseSink in
 * sim/graph_exec.hh): the ADC-limited model-time delta the slice
 * added, the activation scalars it quantized, and the engine's input
 * bit-cycle counters — presented vs zero-skip-elided — so the
 * pipeline timing layer can report each ADC phase's measured EIC
 * fraction without re-deriving it.
 */
struct PhaseSample
{
    double adcNs = 0.0;
    uint64_t quantValues = 0;
    uint64_t bitCycles = 0;      //!< input bit cycles presented
    uint64_t skippedCycles = 0;  //!< bit cycles elided by zero-skip
};

/**
 * The programmed engines executing one matrix stage. `replicas[0]` is
 * the primary engine; additional entries are replica engines on other
 * chips, all programmed from the same weights with the same config
 * (so their programmed conductances are identical — device variation
 * draws from a stream seeded only by cfg.variationSeed).
 *
 * Replica r of R processes the contiguous presentation-index slice
 * [floor(P*r/R), floor(P*(r+1)/R)) of each micro-batch's P
 * presentations, each presentation carrying its global stream key
 * (see imageIds), and replica slices execute (and fold stats) in
 * ascending replica order — so outputs AND the per-presentation stat
 * fold are bit-identical to one engine processing the whole batch,
 * for any replica count (DESIGN.md §5).
 *
 * Thread-safety: the borrowed engines hold no presentation state;
 * the caller owns the stat accumulators and scratch a stage call
 * writes, and work shards internally on the caller's pool.
 */
struct StageEngines
{
    std::vector<arch::CrossbarEngine *> replicas;  //!< size >= 1

    /**
     * Optional per-phase timing sink, fired once per replica in
     * ascending replica order with (replica index, the slice's
     * PhaseSample). The pipeline runtime turns these into per-phase
     * busy intervals for the intra-chip tile pipeline model
     * (sim/perf_model.hh); plain inference leaves it unset.
     */
    std::function<void(int, const PhaseSample &)> onPhase;

    /**
     * Stable per-image stream ids, one per image of the incoming batch
     * (required). The stage's presentation j (image j/ppi,
     * within-image index j%ppi, for ppi presentations per image — the
     * conv im2col plane, 1 for dense) draws its RNG from stream key
     * imageIds[j/ppi] * ppi + j%ppi. Offline runtimes pass consecutive
     * ids from a per-runtime counter; the serving layer passes stable
     * per-request ids, making a request's logits invariant to batch
     * composition and arrival order (docs/SERVING.md).
     */
    const uint64_t *imageIds = nullptr;

    /**
     * Optional per-image stat accumulators, parallel to imageIds.
     * Image i's accumulator folds only its own
     * presentations, in within-image order from zero — bitwise what a
     * single-image run of the same stage would have accumulated. The
     * flat batch fold into the `stats` argument is unchanged.
     */
    arch::EngineStats *perImage = nullptr;
};

/**
 * Run one conv stage: lower the NCHW batch to im2col presentations,
 * quantize (per `sc`), execute on the stage's engine replicas, and
 * dequantize back to an NCHW output tensor through the digital
 * output stage
 *
 *     out[oc] = chan_scale[oc] * mvm[oc] + bias[oc]
 *
 * where an empty `chan_scale` means all-ones (plain bias add). The
 * per-channel scale carries BN folded into the periphery
 * (compile::FoldMode::DigitalScale).
 *
 * `im2col_scratch`, when given, receives the lowered presentations and
 * is reused across calls: a stage that keeps one scratch tensor per
 * engine set makes steady-state micro-batches allocation-free in the
 * conv hot path (the buffer is only reallocated when the im2col
 * geometry changes).
 */
Tensor convStage(const Tensor &act, const StageEngines &engines,
                 const arch::MappedLayer &mapped,
                 const std::vector<float> &bias,
                 const std::vector<float> &chan_scale, int out_c, int k,
                 int stride, int pad, int input_bits,
                 const StageScale &sc, ThreadPool &tp,
                 arch::EngineStats *stats,
                 Tensor *im2col_scratch = nullptr);

/** Run one dense stage on a flattened (N, features) batch. */
Tensor denseStage(const Tensor &act, const StageEngines &engines,
                  const arch::MappedLayer &mapped,
                  const std::vector<float> &bias, int out_dim,
                  int input_bits, const StageScale &sc, ThreadPool &tp,
                  arch::EngineStats *stats);

/**
 * Eval-mode batch normalization on an NCHW batch:
 * y[n,c,h,w] = x[n,c,h,w] * scale[c] + shift[c]. Parallelizes over
 * (image, channel) planes — disjoint writes, order-free per element —
 * so it is deterministic for any thread count.
 */
Tensor batchNormStage(const Tensor &in, const std::vector<float> &scale,
                      const std::vector<float> &shift, ThreadPool &tp);

/**
 * Accumulate one programmed stage's batch stats into a report that may
 * span several forward() calls: rows merge by stage position, so
 * reusing one report across minibatches sums per-layer stats instead
 * of appending duplicate rows.
 */
void recordLayer(RuntimeReport &report, size_t stage_idx,
                 const std::string &name, const arch::EngineStats &stats,
                 int64_t crossbars, uint64_t presentations);

/** Flatten a tensor (e.g. a bias vector) into a plain float vector. */
std::vector<float> tensorToVector(const Tensor &t);

/** Compression state whose constrained weight is `weight`, or null. */
admm::LayerState *findLayerState(std::vector<admm::LayerState> &layers,
                                 const Tensor *weight);

/** Fraction of argmax(logits) == label over a labelled batch. */
double logitsAccuracy(const Tensor &logits,
                      const std::vector<int> &labels);

} // namespace forms::sim

#endif // FORMS_SIM_STAGE_KERNELS_HH
