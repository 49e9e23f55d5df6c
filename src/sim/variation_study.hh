/**
 * @file
 * Device-variation accuracy study (paper §V-E, Table VI): measure the
 * average accuracy degradation over repeated variation draws for
 * differently compressed versions of the same network.
 */

#ifndef FORMS_SIM_VARIATION_STUDY_HH
#define FORMS_SIM_VARIATION_STUDY_HH

#include "admm/compressor.hh"
#include "reram/variation.hh"

namespace forms::sim {

/** Configuration of one variation experiment. */
struct VariationStudyConfig
{
    double sigma = 0.1;   //!< log-normal sigma (paper: 0.1)
    int runs = 50;        //!< paper: average of 50 runs
};

/** Outcome of one variation experiment. */
struct VariationStudyResult
{
    double cleanAccuracy = 0.0;    //!< accuracy without variation
    double meanAccuracy = 0.0;     //!< mean accuracy across runs
    double stddevAccuracy = 0.0;

    /** Accuracy degradation in percentage points. */
    double degradationPct() const
    {
        return (cleanAccuracy - meanAccuracy) * 100.0;
    }
};

/**
 * Run the variation study on a network: repeatedly perturb all conv /
 * dense weights through the per-cell log-normal model
 * (reram::perturbWeights, 8-bit weights on 2-bit cells; draws seeded
 * with 2024), evaluate test accuracy, and restore the original weights.
 */
VariationStudyResult runVariationStudy(
    nn::Network &net, const nn::SyntheticImageDataset &data,
    const VariationStudyConfig &cfg);

} // namespace forms::sim

#endif // FORMS_SIM_VARIATION_STUDY_HH
