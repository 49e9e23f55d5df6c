/**
 * @file
 * Device-variation injection for the accuracy study (paper §V-E,
 * Table VI): each quantized weight is decomposed into its ReRAM cells,
 * every cell's conductance receives an independent multiplicative
 * log-normal perturbation, and the perturbed cells are recomposed into
 * an effective weight value.
 */

#ifndef FORMS_RERAM_VARIATION_HH
#define FORMS_RERAM_VARIATION_HH

#include "reram/device.hh"
#include "tensor/tensor.hh"

namespace forms::reram {

/**
 * Precision of the perturbed weights: 8-bit magnitudes sliced onto
 * the paper's 2-bit cells (kPaperCellBits).
 */
constexpr int kVariationWeightBits = 8;

/** Variation study parameters. */
struct VariationConfig
{
    double sigma = 0.1;     //!< log-normal sigma (paper: 0.1, mean 0)
    float quantScale = 0.0f;//!< level spacing; 0 = derive from maxAbs
};

/**
 * Perturb one weight value: quantize its magnitude to the weight grid,
 * slice into cells, apply per-cell log-normal factors, recompose.
 * Sign is carried unchanged (the FORMS sign indicator is digital).
 */
float perturbWeight(float w, const VariationConfig &cfg, float scale,
                    Rng &rng);

/**
 * Perturb a whole weight tensor in place; returns the quantization
 * scale used (needed to interpret the perturbation magnitude).
 */
float perturbWeights(Tensor &w, const VariationConfig &cfg, Rng &rng);

} // namespace forms::reram

#endif // FORMS_RERAM_VARIATION_HH
