/**
 * @file
 * Weight-to-crossbar mapping (paper §IV-A, Figure 5).
 *
 * A compressed layer's 2-d weight format (kept rows x kept cols) is
 * tiled onto physical crossbars: q*m rows (q fragments of m rows) per
 * crossbar and p*n weight columns, each weight occupying
 * cellsPerWeight adjacent cell columns. Only magnitudes are stored;
 * each fragment's sign lives in the 1R sign indicator. The same
 * FragmentPlan that drove ADMM polarization drives the mapping, so
 * sub-array columns are single-signed by construction.
 */

#ifndef FORMS_ARCH_MAPPING_HH
#define FORMS_ARCH_MAPPING_HH

#include "admm/compressor.hh"
#include "reram/device.hh"

namespace forms::arch {

/** Geometry of the physical mapping. */
struct MappingConfig
{
    int xbarRows = 128;
    int xbarCols = 128;     //!< cell columns
    int cellBits = 2;
    int weightBits = 8;     //!< magnitude bits
    int inputBits = 16;
    int fragSize = 8;
    int spareXbars = 0;     //!< spare crossbars per layer for remapping

    /** Cell columns per weight. */
    int cellsPerWeight() const
    {
        return reram::cellsPerWeight(weightBits, cellBits);
    }

    /** Weight columns that fit on one crossbar. */
    int weightColsPerXbar() const { return xbarCols / cellsPerWeight(); }

    /**
     * Abort, naming the field, unless cellBits is in [1, 8],
     * weightBits and inputBits are in [1, 31], fragSize >= 1 divides
     * xbarRows >= 1, xbarCols holds at least one weight's cells, and
     * spareXbars >= 0. mapLayer and the CrossbarEngine constructor
     * call it.
     */
    void validate() const;
};

/** One crossbar's worth of a layer. */
struct MappedCrossbar
{
    int rows = 0;        //!< used physical rows
    int weightCols = 0;  //!< used weight columns
    std::vector<int> inputIndex;    //!< per used row: layer input index
    std::vector<int> outputIndex;   //!< per used weight col: output index
    std::vector<uint32_t> magnitude;//!< rows x weightCols, row-major
    std::vector<int8_t> fragSign;   //!< per (weightCol, fragment)
    int fragsUsed = 0;   //!< vertical fragments actually populated
    int physId = -1;     //!< physical crossbar id (primaries start at 0;
                         //!< remapping points this at a spare)

    uint32_t mag(int r, int wc) const
    {
        return magnitude[static_cast<size_t>(r) *
                         static_cast<size_t>(weightCols) +
                         static_cast<size_t>(wc)];
    }

    int8_t sign(int wc, int frag) const
    {
        return fragSign[static_cast<size_t>(wc) *
                        static_cast<size_t>(fragsUsed) +
                        static_cast<size_t>(frag)];
    }
};

/** A whole layer mapped onto crossbars. */
struct MappedLayer
{
    MappingConfig cfg;
    float scale = 0.0f;          //!< weight grid spacing
    int64_t logicalRows = 0;     //!< kept rows (inputs)
    int64_t logicalCols = 0;     //!< kept cols (outputs)
    std::vector<MappedCrossbar> crossbars;

    int64_t numCrossbars() const
    {
        return static_cast<int64_t>(crossbars.size());
    }
};

/**
 * Map a compressed layer. Pruned rows/columns are compacted away; the
 * surviving rows keep the polarization-plan ordering so fragments land
 * intact in sub-array columns.
 *
 * @param state per-layer ADMM state (weights + plan + mask + signs)
 * @param cfg physical geometry
 */
MappedLayer mapLayer(const admm::LayerState &state,
                     const MappingConfig &cfg);

/**
 * Reference integer MVM over a mapped layer: for each output index,
 * sum_{rows} sign * magnitude * input. Used to verify the analog
 * engine bit-for-bit.
 *
 * @param layer the mapping
 * @param inputs quantized layer inputs indexed by inputIndex
 */
std::vector<int64_t> referenceMvm(const MappedLayer &layer,
                                  const std::vector<uint32_t> &inputs);

} // namespace forms::arch

#endif // FORMS_ARCH_MAPPING_HH
