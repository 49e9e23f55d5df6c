#include "reram/variation.hh"

#include <cmath>

#include "common/logging.hh"

namespace forms::reram {

float
perturbWeight(float w, const VariationConfig &cfg, float scale, Rng &rng)
{
    if (w == 0.0f || scale <= 0.0f)
        return 0.0f;
    const uint32_t qmax = (1u << kVariationWeightBits) - 1;
    uint32_t mag = static_cast<uint32_t>(
        std::lround(std::fabs(w) / scale));
    mag = std::min(mag, qmax);
    if (mag == 0)
        return 0.0f;

    const auto levels =
        sliceMagnitude(mag, kVariationWeightBits, kPaperCellBits);
    double noisy = 0.0;
    const double radix = std::pow(2.0, kPaperCellBits);
    double place = 1.0;
    for (int level : levels) {
        double analog = static_cast<double>(level);
        if (level > 0)
            analog *= rng.lognormal(0.0, cfg.sigma);
        noisy += analog * place;
        place *= radix;
    }
    return std::copysign(static_cast<float>(noisy * scale), w);
}

float
perturbWeights(Tensor &w, const VariationConfig &cfg, Rng &rng)
{
    float scale = cfg.quantScale;
    if (scale <= 0.0f) {
        const float mx = w.maxAbs();
        if (mx == 0.0f)
            return 0.0f;
        scale = mx / static_cast<float>((1u << kVariationWeightBits) - 1);
    }
    float *p = w.data();
    for (int64_t i = 0; i < w.numel(); ++i)
        p[i] = perturbWeight(p[i], cfg, scale, rng);
    return scale;
}

} // namespace forms::reram
