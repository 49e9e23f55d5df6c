/**
 * @file
 * ADMM-regularized compression pipeline (paper §III-D, Figure 4).
 *
 * The pipeline runs three phases on a trained network, mirroring the
 * paper's multi-step flow:
 *   1. crossbar-aware structured pruning (constraint S),
 *   2. fragment polarization (constraint P, with periodic sign refresh),
 *   3. ReRAM-customized quantization (constraint Q),
 * each phase being ADMM epochs (SGD on the augmented Lagrangian + Z/U
 * updates) followed by a hard projection and a constraint-preserving
 * fine-tune.
 */

#ifndef FORMS_ADMM_COMPRESSOR_HH
#define FORMS_ADMM_COMPRESSOR_HH

#include <optional>

#include "admm/constraints.hh"
#include "nn/trainer.hh"
#include "nn/zoo.hh"

namespace forms::admm {

/** Full configuration of the compression pipeline. */
struct AdmmConfig
{
    // Which constraint sets to enforce (ablations switch these off).
    bool prune = true;
    bool polarize = true;
    bool quantize = true;

    // S: structured pruning.
    double filterKeep = 0.5;
    double shapeKeep = 0.5;
    int64_t xbarDim = 128;   //!< keep-count snap extent (1 = no snap)

    // P: fragment polarization.
    int fragSize = 8;
    PolarizationPolicy policy = PolarizationPolicy::CMajor;

    // Q: quantization.
    int quantBits = 8;

    // ADMM schedule.
    int admmEpochsPerPhase = 4;
    int finetuneEpochs = 3;

    /** Inner SGD settings (its `epochs` field is ignored). */
    nn::TrainConfig train;

    /**
     * fatal(), naming the field, unless fragSize >= 1, quantBits is in
     * [1, 16], xbarDim >= 1, filterKeep and shapeKeep are in (0, 1] and
     * both epoch counts are >= 0. The AdmmCompressor constructor calls
     * it first.
     */
    void validate() const;
};

/** Per-layer compression state exposed to the hardware mapper. */
struct LayerState
{
    std::string name;
    nn::ParamRef param;              //!< the constrained weight
    FragmentPlan plan;               //!< fragment geometry
    Tensor z, u;                     //!< ADMM auxiliary + dual variables
    std::optional<PruneMask> mask;   //!< set after the pruning phase
    std::optional<SignMap> signs;    //!< set after the polarization phase
    float quantScale = 0.0f;         //!< set after the quantization phase

    /** 2-d view of the weight (conv or dense). */
    WeightView view() const;
};

/** Summary of a full compression run. */
struct CompressionOutcome
{
    double accuracyBefore = 0.0;   //!< test accuracy of the input model
    double accuracyAfter = 0.0;    //!< test accuracy after all phases
    double pruneRatio = 1.0;       //!< structured weight reduction factor
    int64_t totalWeights = 0;
    int64_t keptWeights = 0;       //!< weights inside the kept structure
    int64_t signViolations = 0;    //!< must be 0 on success
};

/** Runs the three-phase ADMM compression pipeline over a network. */
class AdmmCompressor
{
  public:
    /**
     * @param net the network to compress (must already be trained)
     * @param data dataset for the inner training epochs
     * @param cfg pipeline configuration
     */
    AdmmCompressor(nn::Network &net, const nn::SyntheticImageDataset &data,
                   AdmmConfig cfg);

    /** Execute all enabled phases and report the outcome. */
    CompressionOutcome run();

    /** Phase entry points (exposed for tests and ablations). */
    void phasePrune();
    void phasePolarize();
    void phaseQuantize();

    /** Test accuracy of the network right now. */
    double evalAccuracy();

    /** Per-layer state (after run(), includes masks/signs/scales). */
    const std::vector<LayerState> &layers() const { return layers_; }
    std::vector<LayerState> &layers() { return layers_; }

    const AdmmConfig &config() const { return cfg_; }

    /**
     * Hard-enforce every established constraint (mask, signs, quant) on
     * the live weights; used after each fine-tune step and at the end.
     */
    void enforceAll();

    /** Total sign violations across layers (0 once polarized). */
    int64_t signViolations() const;

  private:
    nn::Network &net_;
    const nn::SyntheticImageDataset &data_;
    AdmmConfig cfg_;
    std::vector<LayerState> layers_;

    /** Run `epochs` of ADMM training with projection `proj`. */
    void admmEpochs(int epochs,
                    const std::function<void(LayerState &)> &proj,
                    bool refresh_signs);

    /** Run `epochs` of plain fine-tuning with enforceAll() per step. */
    void finetune(int epochs);
};

} // namespace forms::admm

#endif // FORMS_ADMM_COMPRESSOR_HH
