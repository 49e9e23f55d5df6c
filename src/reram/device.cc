#include "reram/device.hh"

#include "common/logging.hh"

namespace forms::reram {

double
programLevel(int level, int max_level, const CellConfig &cfg, Rng *rng)
{
    FORMS_ASSERT(level >= 0 && level <= max_level,
                 "cell level %d out of range", level);
    double factor = 1.0;
    if (rng && cfg.variationSigma > 0.0)
        factor = rng->lognormal(0.0, cfg.variationSigma);
    // Variation multiplies the conductance *above* the off level; an
    // off cell (level 0) contributes no signal regardless of variation.
    return static_cast<double>(level) * factor;
}

namespace {

constexpr double kGMinUs = 2.0;       //!< off conductance, microsiemens
constexpr double kGMaxUs = 100.0;     //!< on conductance
constexpr double kReadVoltage = 0.2;  //!< volts on an active row

} // namespace

double
readEnergyPj(int active_rows, int cols, double step_ns)
{
    // E = V^2 * G * t per active cell; using the mid-range conductance
    // as the representative value. Units: V^2 * uS * ns = 1e-6 W*ns
    // = 1e-6 * 1e3 mW*ns = 1e-3 pJ, hence the 1e-3 factor.
    const double g_mid = 0.5 * (kGMinUs + kGMaxUs);
    const double per_cell =
        kReadVoltage * kReadVoltage * g_mid * step_ns * 1e-3;
    return per_cell * static_cast<double>(active_rows) *
        static_cast<double>(cols);
}

std::vector<int>
sliceMagnitude(uint32_t magnitude, int weight_bits, int bits_per_cell)
{
    FORMS_ASSERT(weight_bits >= 1 && bits_per_cell >= 1,
                 "bad slicing precision");
    FORMS_ASSERT(weight_bits <= 32, "weight bits too large");
    if (weight_bits < 32) {
        FORMS_ASSERT(magnitude < (1u << weight_bits),
                     "magnitude %u exceeds %d bits", magnitude, weight_bits);
    }
    const int n = cellsPerWeight(weight_bits, bits_per_cell);
    const uint32_t mask = (1u << bits_per_cell) - 1;
    std::vector<int> out(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        out[static_cast<size_t>(i)] =
            static_cast<int>((magnitude >> (i * bits_per_cell)) & mask);
    }
    return out;
}

uint32_t
unsliceMagnitude(const std::vector<int> &levels, int bits_per_cell)
{
    uint32_t v = 0;
    for (size_t i = levels.size(); i > 0; --i) {
        v = (v << bits_per_cell) |
            static_cast<uint32_t>(levels[i - 1] & ((1 << bits_per_cell) - 1));
    }
    return v;
}

int
cellsPerWeight(int weight_bits, int bits_per_cell)
{
    return (weight_bits + bits_per_cell - 1) / bits_per_cell;
}

} // namespace forms::reram
