/**
 * @file
 * The three FORMS constraint sets (paper §III) and their Euclidean
 * projections, used as the Z-update of ADMM-regularized training:
 *
 *  - S_i: crossbar-aware structured pruning (filter + filter-shape),
 *  - P_i: fragment polarization (same sign within each fragment),
 *  - Q_i: ReRAM-customized quantization (uniform magnitude levels).
 */

#ifndef FORMS_ADMM_CONSTRAINTS_HH
#define FORMS_ADMM_CONSTRAINTS_HH

#include "admm/fragment.hh"

namespace forms::admm {

/**
 * Crossbar-aware keep count: the number of filters/shapes retained when
 * pruning `total` units at `keep_ratio`, rounded *up* to fill complete
 * crossbar extents of `xbar_dim`. Pruning below a crossbar boundary
 * buys no hardware and only costs accuracy (paper §III-A), so the keep
 * count snaps to ceil(keep/xbar_dim)*xbar_dim, capped at `total`.
 */
int64_t crossbarAwareKeep(int64_t total, double keep_ratio,
                          int64_t xbar_dim);

/** Structured pruning configuration for one layer. */
struct PruneSpec
{
    double filterKeep = 1.0;   //!< alpha: fraction of filters kept
    double shapeKeep = 1.0;    //!< beta: fraction of filter-shapes kept
    int64_t xbarDim = 128;     //!< keep-count snap extent (1 = no snap)
};

/**
 * Projection onto S: keep the top-norm filters (columns of the 2-d
 * format) and filter shapes (rows), zero the rest. Returns the applied
 * (row_keep, col_keep) counts.
 */
std::pair<int64_t, int64_t> projectStructuredPrune(WeightView view,
                                                   const PruneSpec &spec);

/** Masks of surviving rows/columns after structured pruning. */
struct PruneMask
{
    std::vector<uint8_t> rowKept;   //!< size rows, 1 = kept
    std::vector<uint8_t> colKept;   //!< size cols, 1 = kept

    int64_t keptRows() const;
    int64_t keptCols() const;
};

/** Extract the nonzero row/column structure of a (pruned) weight. */
PruneMask extractMask(const WeightView &view);

/** Zero every element whose row or column is masked out. */
void applyMask(WeightView view, const PruneMask &mask);

/**
 * Compute fragment signs for the current weights: the sign of each
 * fragment's weight sum (paper Eq. (2)). Zero-sum fragments are
 * assigned +1 (paper convention: sum >= 0).
 */
SignMap computeSigns(const WeightView &view, const FragmentPlan &plan);

/**
 * Projection onto P given fixed fragment signs: weights whose sign
 * opposes their fragment sign are set to zero (the Euclidean projection
 * onto the signed orthant).
 */
void projectPolarization(WeightView view, const FragmentPlan &plan,
                         const SignMap &signs);

/** Count weights violating the fragment signs (0 after projection). */
int64_t countSignViolations(const WeightView &view,
                            const FragmentPlan &plan, const SignMap &signs);

/** Quantization configuration for one layer. */
struct QuantSpec
{
    int bits = 8;          //!< magnitude bits (multiple of cell bits)
    float scale = 0.0f;    //!< level spacing; 0 = derive from maxAbs
};

/**
 * Projection onto Q: symmetric uniform quantization of magnitudes to
 * 2^bits - 1 nonzero levels (sign preserved; exact zeros stay zero).
 * Returns the level spacing used.
 */
float projectQuantize(WeightView view, const QuantSpec &spec);

/** Quantize a single value with the given spacing and bit budget. */
float quantizeValue(float v, float scale, int bits);

} // namespace forms::admm

#endif // FORMS_ADMM_CONSTRAINTS_HH
