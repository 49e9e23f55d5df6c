#include "arch/mapping.hh"

#include <cmath>

namespace forms::arch {

void
MappingConfig::validate() const
{
    FORMS_ASSERT(cellBits >= 1 && cellBits <= 8,
                 "MappingConfig::cellBits = %d outside [1, 8]", cellBits);
    FORMS_ASSERT(weightBits >= 1 && weightBits <= 31,
                 "MappingConfig::weightBits = %d outside [1, 31]",
                 weightBits);
    FORMS_ASSERT(inputBits >= 1 && inputBits <= 31,
                 "MappingConfig::inputBits = %d outside [1, 31]", inputBits);
    FORMS_ASSERT(fragSize >= 1 && xbarRows >= 1 && xbarRows % fragSize == 0,
                 "MappingConfig::fragSize = %d must be >= 1 and divide "
                 "xbarRows = %d", fragSize, xbarRows);
    FORMS_ASSERT(xbarCols >= cellsPerWeight(),
                 "MappingConfig::xbarCols = %d holds no weight of %d cells",
                 xbarCols, cellsPerWeight());
    FORMS_ASSERT(spareXbars >= 0, "MappingConfig::spareXbars = %d < 0",
                 spareXbars);
}

MappedLayer
mapLayer(const admm::LayerState &state, const MappingConfig &cfg)
{
    cfg.validate();
    FORMS_ASSERT(state.plan.fragSize() == cfg.fragSize,
                 "plan fragment size %d != mapping fragment size %d",
                 state.plan.fragSize(), cfg.fragSize);

    const admm::WeightView view = state.view();
    const admm::FragmentPlan &plan = state.plan;

    // Surviving rows in polarization order and surviving columns.
    std::vector<int> rows_in_order;
    for (int64_t p = 0; p < plan.rows(); ++p) {
        const int64_t r = plan.orderedRow(p);
        if (!state.mask ||
            state.mask->rowKept[static_cast<size_t>(r)]) {
            rows_in_order.push_back(static_cast<int>(r));
        }
    }
    std::vector<int> cols_kept;
    for (int64_t j = 0; j < view.cols(); ++j) {
        if (!state.mask ||
            state.mask->colKept[static_cast<size_t>(j)]) {
            cols_kept.push_back(static_cast<int>(j));
        }
    }

    MappedLayer layer;
    layer.cfg = cfg;
    layer.logicalRows = static_cast<int64_t>(rows_in_order.size());
    layer.logicalCols = static_cast<int64_t>(cols_kept.size());

    // Weight grid spacing.
    const uint32_t qmax = (1u << cfg.weightBits) - 1;
    float scale = state.quantScale;
    if (scale <= 0.0f) {
        const float mx = view.tensor().maxAbs();
        scale = mx > 0.0f ? mx / static_cast<float>(qmax) : 1.0f;
    }
    layer.scale = scale;

    const int m = cfg.fragSize;
    const int wcols_per_xbar = cfg.weightColsPerXbar();
    const int64_t k_rows = layer.logicalRows;
    const int64_t k_cols = layer.logicalCols;
    const int64_t grid_r = (k_rows + cfg.xbarRows - 1) / cfg.xbarRows;
    const int64_t grid_c = (k_cols + wcols_per_xbar - 1) / wcols_per_xbar;

    for (int64_t gr = 0; gr < grid_r; ++gr) {
        for (int64_t gc = 0; gc < grid_c; ++gc) {
            MappedCrossbar xb;
            xb.physId = static_cast<int>(layer.crossbars.size());
            xb.rows = static_cast<int>(
                std::min<int64_t>(cfg.xbarRows, k_rows - gr * cfg.xbarRows));
            xb.weightCols = static_cast<int>(std::min<int64_t>(
                wcols_per_xbar, k_cols - gc * wcols_per_xbar));
            xb.fragsUsed = (xb.rows + m - 1) / m;

            xb.inputIndex.resize(static_cast<size_t>(xb.rows));
            for (int i = 0; i < xb.rows; ++i) {
                xb.inputIndex[static_cast<size_t>(i)] =
                    rows_in_order[static_cast<size_t>(gr * cfg.xbarRows + i)];
            }
            xb.outputIndex.resize(static_cast<size_t>(xb.weightCols));
            for (int wc = 0; wc < xb.weightCols; ++wc) {
                xb.outputIndex[static_cast<size_t>(wc)] =
                    cols_kept[static_cast<size_t>(gc * wcols_per_xbar + wc)];
            }

            xb.magnitude.assign(
                static_cast<size_t>(xb.rows) *
                static_cast<size_t>(xb.weightCols), 0);
            xb.fragSign.assign(
                static_cast<size_t>(xb.weightCols) *
                static_cast<size_t>(xb.fragsUsed), 1);

            for (int wc = 0; wc < xb.weightCols; ++wc) {
                const int j = xb.outputIndex[static_cast<size_t>(wc)];
                for (int f = 0; f < xb.fragsUsed; ++f) {
                    int frag_sign = 0;
                    const int r0 = f * m;
                    const int r1 = std::min(xb.rows, r0 + m);
                    for (int r = r0; r < r1; ++r) {
                        const int nat =
                            xb.inputIndex[static_cast<size_t>(r)];
                        const float w = view.get(nat, j);
                        uint32_t mag = static_cast<uint32_t>(
                            std::lround(std::fabs(w) / scale));
                        mag = std::min(mag, qmax);
                        xb.magnitude[static_cast<size_t>(r) *
                                     static_cast<size_t>(xb.weightCols) +
                                     static_cast<size_t>(wc)] = mag;
                        if (w != 0.0f && mag != 0) {
                            const int s = w > 0.0f ? 1 : -1;
                            if (frag_sign == 0) {
                                frag_sign = s;
                            } else {
                                FORMS_ASSERT(frag_sign == s,
                                    "fragment with mixed signs cannot be "
                                    "mapped (layer '%s', col %d): run the "
                                    "polarization phase first",
                                    state.name.c_str(), j);
                            }
                        }
                    }
                    xb.fragSign[static_cast<size_t>(wc) *
                                static_cast<size_t>(xb.fragsUsed) +
                                static_cast<size_t>(f)] =
                        frag_sign == 0 ? int8_t{1}
                                       : static_cast<int8_t>(frag_sign);
                }
            }
            layer.crossbars.push_back(std::move(xb));
        }
    }
    return layer;
}

std::vector<int64_t>
referenceMvm(const MappedLayer &layer, const std::vector<uint32_t> &inputs)
{
    // Output indexed by the original (pre-pruning) column index space.
    int max_out = 0;
    for (const auto &xb : layer.crossbars)
        for (int idx : xb.outputIndex)
            max_out = std::max(max_out, idx + 1);
    std::vector<int64_t> out(static_cast<size_t>(max_out), 0);

    const int m = layer.cfg.fragSize;
    for (const auto &xb : layer.crossbars) {
        for (int wc = 0; wc < xb.weightCols; ++wc) {
            int64_t acc = 0;
            for (int f = 0; f < xb.fragsUsed; ++f) {
                const int r0 = f * m;
                const int r1 = std::min(xb.rows, r0 + m);
                int64_t part = 0;
                for (int r = r0; r < r1; ++r) {
                    const int nat = xb.inputIndex[static_cast<size_t>(r)];
                    FORMS_ASSERT(nat < static_cast<int>(inputs.size()),
                                 "input vector too short");
                    part += static_cast<int64_t>(xb.mag(r, wc)) *
                        static_cast<int64_t>(
                            inputs[static_cast<size_t>(nat)]);
                }
                acc += static_cast<int64_t>(xb.sign(wc, f)) * part;
            }
            out[static_cast<size_t>(
                xb.outputIndex[static_cast<size_t>(wc)])] += acc;
        }
    }
    return out;
}

} // namespace forms::arch
