/**
 * @file
 * Behavioral ReRAM cell model.
 *
 * Cells store b bits as one of 2^b discrete conductance levels
 * between gMin and gMax (a VTEAM-flavored linearized level map; the
 * paper uses 2-bit cells). The engine takes b from the mapping it
 * programs (`arch::MappingConfig::cellBits`). Device variation is
 * modeled as a multiplicative log-normal factor on the programmed
 * conductance (paper §V-E: log-normal, mean 0, sigma 0.1).
 *
 * Functional arithmetic uses "level units": a cell programmed to level
 * L contributes L to an ideal column sum when its row input bit is 1.
 * Physical conductances enter only the read-energy estimate.
 */

#ifndef FORMS_RERAM_DEVICE_HH
#define FORMS_RERAM_DEVICE_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"

namespace forms::reram {

/** The paper's cell precision: 2 bits (4 conductance levels) per cell. */
constexpr int kPaperCellBits = 2;

/** Static parameters of the ReRAM cell technology. */
struct CellConfig
{
    double variationSigma = 0.0;//!< log-normal sigma (0 = ideal devices)
};

/**
 * Program one cell to a digital level in [0, max_level] (max_level =
 * 2^cellBits - 1) and return its realized analog level (level units):
 * level x lognormal(0, variationSigma), the factor drawn from `rng`
 * once, at program time, whenever the sigma is positive (also for
 * level 0, so the draw sequence depends only on the cell count). An
 * off cell (level 0) reads 0 regardless of variation. A null `rng`
 * programs ideal devices.
 */
double programLevel(int level, int max_level, const CellConfig &cfg,
                    Rng *rng);

/**
 * Crossbar read energy for one bit-serial step over `active_rows` rows
 * and `cols` bitlines (pJ): V^2 * G * t per active cell at a 0.2 V
 * read voltage, using the mid-range conductance of the 2-100 uS cell
 * as the representative load.
 */
double readEnergyPj(int active_rows, int cols, double step_ns);

/**
 * Decompose a magnitude into per-cell levels, least-significant cell
 * first: value = sum_i levels[i] * (2^bits_per_cell)^i.
 */
std::vector<int> sliceMagnitude(uint32_t magnitude, int weight_bits,
                                int bits_per_cell);

/** Recompose sliced levels back into a magnitude. */
uint32_t unsliceMagnitude(const std::vector<int> &levels,
                          int bits_per_cell);

/** Cells needed per weight for the given precisions. */
int cellsPerWeight(int weight_bits, int bits_per_cell);

} // namespace forms::reram

#endif // FORMS_RERAM_DEVICE_HH
