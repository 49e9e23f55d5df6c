/**
 * @file
 * Crossbar accounting and compression reporting (paper Tables I & II).
 *
 * The paper reports "crossbar reduction" relative to the original
 * 32-bit model mapped with the splitting scheme [41] (two crossbars
 * holding positive/negative magnitudes). FORMS maps only magnitudes (one
 * crossbar) plus a 1R sign indicator, with quantized weights. This
 * module reproduces that accounting from first principles: it counts
 * crossbars needed for each weight matrix under a mapping scheme, then
 * forms the reduction ratio.
 */

#ifndef FORMS_ADMM_REPORT_HH
#define FORMS_ADMM_REPORT_HH

#include "admm/compressor.hh"
#include "reram/device.hh"

namespace forms::admm {

/** How signed weights are realized on crossbars. */
enum class SignScheme
{
    Splitting,      //!< two crossbars (positive / negative magnitudes)
    OffsetIsaac,    //!< single crossbar, weights biased positive (ISAAC)
    PolarizedForms, //!< single crossbar + 1R sign indicator (FORMS)
};

/** Geometry and precision of a crossbar mapping. */
struct MappingSpec
{
    int64_t xbarRows = 128;
    int64_t xbarCols = 128;
    int weightBits = 8;    //!< magnitude bits stored per weight
    int cellBits = 2;      //!< bits per ReRAM cell
    SignScheme scheme = SignScheme::PolarizedForms;

    /** Crossbar columns occupied by one weight. */
    int cellsPerWeight() const
    {
        return reram::cellsPerWeight(weightBits, cellBits);
    }

    /** Multiplier on crossbar count due to the sign scheme. */
    int crossbarFactor() const
    {
        return scheme == SignScheme::Splitting ? 2 : 1;
    }
};

/**
 * Crossbars needed to hold a rows x cols weight matrix under `spec`
 * (grid of ceil(rows/R) x ceil(cols*cells/C), times the sign-scheme
 * factor).
 */
int64_t crossbarsForMatrix(int64_t rows, int64_t cols,
                           const MappingSpec &spec);

/** Per-layer crossbar/compression data. */
struct LayerReport
{
    std::string name;
    int64_t rows = 0, cols = 0;           //!< original 2-d format
    int64_t keptRows = 0, keptCols = 0;   //!< after structured pruning
    int64_t baselineCrossbars = 0;        //!< 32-bit, splitting scheme
    int64_t formsCrossbars = 0;           //!< pruned, quantized, polarized
};

/** Whole-model compression report. */
struct CompressionReport
{
    std::vector<LayerReport> layers;
    double pruneRatio = 1.0;       //!< weight-count reduction from S
    double crossbarReduction = 1.0;//!< baseline / FORMS crossbar count
    int64_t baselineCrossbars = 0;
    int64_t formsCrossbars = 0;
    double accuracyBefore = 0.0;
    double accuracyAfter = 0.0;

    /** Accuracy drop in percentage points (positive = worse). */
    double accuracyDropPct() const
    {
        return (accuracyBefore - accuracyAfter) * 100.0;
    }
};

/**
 * Build the Tables I/II-style report from a finished compression run.
 *
 * @param comp the compressor after run()
 * @param outcome the run's outcome (accuracies, prune ratio)
 * @param baseline mapping of the uncompressed model (default: 32-bit
 *        splitting scheme, per the paper's comparison basis)
 * @param forms mapping of the compressed model
 */
CompressionReport buildReport(const AdmmCompressor &comp,
                              const CompressionOutcome &outcome,
                              const MappingSpec &baseline,
                              const MappingSpec &forms);

/** The paper's default baseline mapping: 32-bit, splitting scheme. */
MappingSpec baselineMapping32(int64_t xbar_rows = 128,
                              int64_t xbar_cols = 128);

/** The paper's FORMS mapping: quantized magnitudes + sign indicator. */
MappingSpec formsMapping(int weight_bits = 8, int64_t xbar_rows = 128,
                         int64_t xbar_cols = 128);

} // namespace forms::admm

#endif // FORMS_ADMM_REPORT_HH
