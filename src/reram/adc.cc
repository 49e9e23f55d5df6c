#include "reram/adc.hh"

#include <cmath>

namespace forms::reram {

namespace {

// Scaling-law coefficients fitted to the two published design points
// (see header): power/freq = PA*bits + PB*2^bits [mW/GHz],
// area = AA*bits + AB*2^bits [mm^2].
//   ISAAC:  8-bit, 1.2 GHz, 2.0 mW, 1.2e-3 mm^2  (16 mW / 9.6e-3 per 8)
//   FORMS:  4-bit, 2.1 GHz, 0.475 mW, 2.84375e-4 mm^2 (15.2 mW per 32)
constexpr double kPowerLin = 0.0348638;
constexpr double kPowerExp = 0.00542113;
constexpr double kAreaLin = 5.98214e-5;
constexpr double kAreaExp = 2.81808e-6;

} // namespace

double
AdcModel::powerMw() const
{
    return cfg_.freqGhz *
        (kPowerLin * cfg_.bits + kPowerExp * std::pow(2.0, cfg_.bits));
}

double
AdcModel::areaMm2() const
{
    return kAreaLin * cfg_.bits + kAreaExp * std::pow(2.0, cfg_.bits);
}

int
AdcModel::losslessBits(int rows, int cell_bits)
{
    const int max_sum = rows * ((1 << cell_bits) - 1);
    int bits = 1;
    while ((1 << bits) - 1 < max_sum)
        ++bits;
    return bits;
}

double
AdcModel::paperFreqGhz(int bits)
{
    // Published points: 8-bit -> 1.2 GHz, 4-bit -> 2.1 GHz. Model the
    // frequency as geometric in the resolution between/beyond them.
    const double ratio_per_bit = std::pow(2.1 / 1.2, 1.0 / 4.0);
    return 1.2 * std::pow(ratio_per_bit, 8 - bits);
}

} // namespace forms::reram
