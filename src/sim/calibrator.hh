/**
 * @file
 * Offline activation-scale calibration (DESIGN.md §2).
 *
 * The functional runtimes historically quantized every input
 * presentation against its own max — an idealized per-vector dynamic
 * range no fixed DAC grid can provide. Real ISAAC-style pipelines
 * freeze one scale per layer at deployment time. The Calibrator
 * produces that scale: it streams a calibration split through the
 * compiled graph (idealized per-presentation mode, observing the
 * exact pre-quantization presentation maxima each programmed node
 * sees, including upstream ADC/device effects), then reduces the
 * per-node range statistics into a compile::CalibrationTable under a
 * policy:
 *
 * - AbsMax: range = the largest presentation max ever observed. No
 *   clipping on the calibration split; outlier presentations stretch
 *   the grid and cost resolution everywhere else.
 * - Percentile: range = a moving percentile of the per-presentation
 *   max distribution (default p99.5). Trades rare saturation
 *   (counted at inference in EngineStats::quantClipped) for a finer
 *   grid over the common range.
 *
 * Determinism: observations append in presentation order and the
 * reductions are pure functions of them, so a calibration run is
 * bit-reproducible for any thread count.
 *
 * Typical flow:
 *
 *     sim::Calibrator cal(graph, states, rcfg, {});
 *     cal.observe(calib_split);              // repeat per batch
 *     auto table = cal.table();
 *     table.attachTo(graph);                 // or rcfg.calibration = &table
 *     rcfg.scaleMode = arch::ScaleMode::Static;
 *     sim::PipelineRuntime rt(graph, states, rcfg);
 */

#ifndef FORMS_SIM_CALIBRATOR_HH
#define FORMS_SIM_CALIBRATOR_HH

#include <memory>

#include "compile/calibration.hh"
#include "sim/pipeline_runtime.hh"

namespace forms::sim {

/** Range-statistics reduction policy (see file header). */
enum class CalibPolicy
{
    AbsMax,      //!< largest observed presentation max
    Percentile,  //!< moving percentile of the presentation maxima
};

/** Short mnemonic, e.g. "absmax". */
const char *calibPolicyName(CalibPolicy policy);

/** Calibration knobs. */
struct CalibratorConfig
{
    CalibPolicy policy = CalibPolicy::AbsMax;

    /** Percentile policy: fraction of presentation maxima covered. */
    double percentile = 0.995;

    /** Safety multiplier applied to the reduced range. */
    double headroom = 1.0;
};

/**
 * Runs calibration batches through a compiled graph and reduces the
 * observed per-node input ranges into a CalibrationTable.
 *
 * Borrows the graph and layer states (like PipelineRuntime — both must
 * outlive the calibrator); owns its observation buffers and internal
 * runtime. One observe() call at a time.
 */
class Calibrator
{
  public:
    /**
     * @param graph compiled (and BN-folded) DAG to calibrate
     * @param layers per-layer compression state, as for PipelineRuntime
     * @param rcfg the deployment runtime config: calibration observes
     *        through the same engines/geometry it will deploy on
     *        (scaleMode/recorder fields are overridden internally)
     * @param ccfg reduction policy knobs
     */
    Calibrator(const compile::Graph &graph,
               std::vector<admm::LayerState> &layers, RuntimeConfig rcfg,
               CalibratorConfig ccfg = {});
    ~Calibrator();

    Calibrator(const Calibrator &) = delete;
    Calibrator &operator=(const Calibrator &) = delete;

    /** Stream one calibration batch, accumulating range statistics. */
    void observe(const Tensor &batch);

    /** Images observed so far. */
    int64_t images() const { return images_; }

    /**
     * Reduce the accumulated statistics into a table (callable
     * repeatedly — e.g. after every split size in a sweep). fatal()s
     * when nothing was observed yet.
     */
    compile::CalibrationTable table() const;

  private:
    CalibratorConfig ccfg_;
    int inputBits_;
    RangeRecorder recorder_;
    std::unique_ptr<PipelineRuntime> runtime_;
    int64_t images_ = 0;
};

} // namespace forms::sim

#endif // FORMS_SIM_CALIBRATOR_HH
