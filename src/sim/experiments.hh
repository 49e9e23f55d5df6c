/**
 * @file
 * High-level experiment drivers shared by the benchmark binaries:
 * pretrain a (scaled) network on a synthetic dataset, run the ADMM
 * compression pipeline at several fragment sizes, and report the
 * Tables I/II / Figure 6 style rows.
 *
 * Scaled-geometry note: the trainable stand-in networks have tens of
 * filters per layer, so the crossbar-aware rounding runs against a
 * proportionally scaled crossbar extent (`xbarDim`) — the mechanism is
 * identical, only the granularity is scaled with the model (see
 * DESIGN.md §2).
 */

#ifndef FORMS_SIM_EXPERIMENTS_HH
#define FORMS_SIM_EXPERIMENTS_HH

#include "admm/report.hh"
#include "sim/variation_study.hh"

namespace forms::sim {

/** Which trainable stand-in network to build. */
enum class NetKind
{
    LeNet5,
    VggSmall,
    ResNetSmall,
    ResNetDeep,
};

/** Build a stand-in network for a dataset. */
std::unique_ptr<nn::Network> buildNet(NetKind kind,
                                      const nn::DatasetConfig &data,
                                      Rng &rng);

/** One compression experiment specification. */
struct CompressionExperimentSpec
{
    std::string label;
    NetKind net = NetKind::VggSmall;
    nn::DatasetConfig data;
    double filterKeep = 0.6;
    double shapeKeep = 0.6;
    std::vector<int> fragSizes = {4, 8, 16};
    int quantBits = 8;
    admm::PolarizationPolicy policy = admm::PolarizationPolicy::CMajor;
    int64_t xbarDim = 16;      //!< scaled crossbar extent (see header)
    int pretrainEpochs = 10;
    int admmEpochsPerPhase = 3;
    int finetuneEpochs = 3;
    uint64_t seed = 42;
    bool prune = true;
    bool polarize = true;
    bool quantize = true;
};

/** One row of a Tables I/II style result. */
struct CompressionExperimentRow
{
    int fragSize = 0;
    double baselineAccuracy = 0.0;
    double accuracyDropPct = 0.0;    //!< vs. the pretrained model
    double pruneRatio = 1.0;
    double crossbarReduction = 1.0;
    int64_t signViolations = 0;
};

/** Run the pipeline once per fragment size (fresh net each time). */
std::vector<CompressionExperimentRow>
runCompressionExperiment(const CompressionExperimentSpec &spec);

/** Figure 6 style: polarization-only accuracy vs fragment size. */
struct FragmentAccuracyPoint
{
    int fragSize = 0;
    double accuracy = 0.0;   //!< test accuracy after polarization
};

std::vector<FragmentAccuracyPoint>
runFragmentAccuracySweep(NetKind net, const nn::DatasetConfig &data,
                         const std::vector<int> &frag_sizes,
                         int pretrain_epochs, uint64_t seed);

/** Table VI style: variation robustness of four model variants. */
struct VariationRow
{
    std::string variant;
    double degradationPct = 0.0;
};

std::vector<VariationRow>
runVariationExperiment(NetKind net, const nn::DatasetConfig &data,
                       const VariationStudyConfig &vcfg,
                       double filter_keep, double shape_keep,
                       int pretrain_epochs, uint64_t seed);

} // namespace forms::sim

#endif // FORMS_SIM_EXPERIMENTS_HH
