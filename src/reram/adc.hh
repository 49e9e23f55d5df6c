/**
 * @file
 * ADC and DAC models.
 *
 * The ADC transfer function (adcRead) quantizes an analog column sum
 * (in level units) to a digital count with configurable resolution;
 * "lossless" resolution (enough bits to represent the worst-case sum
 * exactly) makes the crossbar arithmetic integer-exact, while the
 * paper's resolutions (3/4/5-bit for fragments 4/8/16) introduce a
 * measurable quantization error.
 *
 * Area and power follow the scaling law the paper adopts from
 * Saberi et al. / the Murmann survey: the memory/clock/reference
 * buffers scale linearly with resolution while the capacitive DAC
 * scales exponentially. The two (bits, freq, power, area) points
 * published in Table III (ISAAC's 8-bit @ 1.2 GHz and FORMS's 4-bit @
 * 2.1 GHz) pin the coefficients, so Table III is reproduced by
 * construction and the *law* extrapolates to other resolutions.
 */

#ifndef FORMS_RERAM_ADC_HH
#define FORMS_RERAM_ADC_HH

#include <cmath>
#include <cstdint>

namespace forms::reram {

/** ADC configuration. */
struct AdcConfig
{
    int bits = 8;          //!< resolution
    double freqGhz = 1.2;  //!< sampling frequency

    /** Number of output codes. */
    int codes() const { return 1 << bits; }
};

/**
 * The ADC's output code for `analog` (level units): the nearest of the
 * codes 0..top on a uniform grid of `step`-wide codes, halves rounding
 * away from zero. Inputs past the grid saturate: analog / step at or
 * above top + 0.5 (+inf included) reads top, a negative one reads 0.
 * NaN reads 0, the physical reading of the 0 * inf that read noise can
 * make of a zero column sum.
 */
inline int
adcCode(double analog, double step, int top)
{
    // Saturate in double: lround of a value past long's range, or of
    // inf or NaN, is unspecified, and a long past int's range wraps.
    const double q = analog / step;
    if (q >= static_cast<double>(top) + 0.5)
        return top;
    if (!(q >= 0.0))
        return 0;
    return static_cast<int>(std::lround(q));
}

/**
 * The ADC transfer function: adcCode() read back in level units. With
 * step = 1 the transfer is exact on integers in [0, top].
 */
inline double
adcRead(double analog, double step, int top)
{
    return static_cast<double>(adcCode(analog, step, top)) * step;
}

/** SAR ADC cost model. */
class AdcModel
{
  public:
    explicit AdcModel(AdcConfig cfg) : cfg_(cfg) {}

    const AdcConfig &config() const { return cfg_; }

    /** Conversion time for one sample, ns. */
    double sampleTimeNs() const { return 1.0 / cfg_.freqGhz; }

    /** Power at the configured frequency, mW. */
    double powerMw() const;

    /** Area, mm^2. */
    double areaMm2() const;

    /** Energy per conversion, pJ. */
    double energyPerSamplePj() const
    {
        return powerMw() * sampleTimeNs();
    }

    /** Resolution needed for an exact sum of `rows` cells of
     *  `cell_bits` bits each (the "lossless" setting). */
    static int losslessBits(int rows, int cell_bits);

    /** The paper's frequency choice for a resolution (GHz): published
     *  points at 8-bit/1.2 and 4-bit/2.1, geometric interpolation
     *  elsewhere (model assumption, documented in DESIGN.md). */
    static double paperFreqGhz(int bits);

  private:
    AdcConfig cfg_;
};

/** 1-bit DAC (an inverter driving one row), per Table III. */
struct DacModel
{
    /** Power of one 1-bit DAC, mW (Table III: 4 mW / (8*128)). */
    static double powerMw() { return 4.0 / (8.0 * 128.0); }

    /** Area of one 1-bit DAC, mm^2 (Table III: 0.00017 / (8*128)). */
    static double areaMm2() { return 0.00017 / (8.0 * 128.0); }
};

} // namespace forms::reram

#endif // FORMS_RERAM_ADC_HH
