#include "sim/activation_model.hh"

#include <algorithm>
#include <cmath>

namespace forms::sim {

uint32_t
ActivationModel::sample(Rng &rng) const
{
    if (rng.bernoulli(zeroFraction))
        return 0;
    const double v = std::exp(rng.gaussian(logMedian, logSigma));
    const double qmax =
        static_cast<double>((1u << inputBits) - 1);
    const double clamped = std::min(v, qmax);
    return static_cast<uint32_t>(std::llround(clamped));
}

std::vector<uint32_t>
ActivationModel::sampleVector(Rng &rng, size_t n) const
{
    std::vector<uint32_t> out(n);
    for (auto &v : out)
        v = sample(rng);
    return out;
}

double
ActivationModel::averageEic(int frag_size, int samples,
                            uint64_t seed) const
{
    return eicStats(frag_size, samples, seed).averageEic();
}

arch::EicStats
ActivationModel::eicStats(int frag_size, int samples, uint64_t seed) const
{
    Rng rng(seed);
    arch::EicStats stats(inputBits);
    std::vector<uint32_t> frag(static_cast<size_t>(frag_size));
    for (int s = 0; s < samples; ++s) {
        for (auto &v : frag)
            v = sample(rng);
        stats.record(arch::fragmentEic(frag.data(), frag.size()));
    }
    return stats;
}

ActivationModel
ActivationModel::calibratedResNet50()
{
    // Calibrated so that averageEic(4) ~ 10.7 and averageEic(128) ~ 15
    // (paper Figure 8(b)); see tests/test_activation_model.cc.
    ActivationModel m;
    m.zeroFraction = 0.35;
    m.logMedian = 5.6;
    m.logSigma = 1.9;
    m.inputBits = 16;
    return m;
}

} // namespace forms::sim
