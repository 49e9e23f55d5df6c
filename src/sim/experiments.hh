/**
 * @file
 * High-level experiment drivers shared by the benchmark binaries:
 * pretrain a (scaled) network on a synthetic dataset, run the ADMM
 * compression pipeline at several fragment sizes, and report the
 * Tables I/II / Figure 6 style rows (Figure 6 is the polarization-only
 * spec: prune and quantize off).
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
    std::vector<int> fragSizes = {4, 8, 16};
    int pretrainEpochs = 10;
    uint64_t seed = 42;

    /**
     * The compression run at every fragment size, which overrides its
     * fragSize and train.seed (seed + 17). Its xbarDim, the scaled
     * crossbar extent (see header), also sizes the reported crossbars.
     */
    admm::AdmmConfig admm;
};

/** One row of a Tables I/II style result. */
struct CompressionExperimentRow
{
    int fragSize = 0;
    double baselineAccuracy = 0.0;
    double accuracy = 0.0;           //!< test accuracy after compression
    double accuracyDropPct = 0.0;    //!< vs. the pretrained model
    double pruneRatio = 1.0;
    double crossbarReduction = 1.0;
    int64_t signViolations = 0;
};

/** Run the pipeline once per fragment size (fresh net each time). */
std::vector<CompressionExperimentRow>
runCompressionExperiment(const CompressionExperimentSpec &spec);

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
