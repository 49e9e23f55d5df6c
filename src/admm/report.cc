#include "admm/report.hh"

namespace forms::admm {

int64_t
crossbarsForMatrix(int64_t rows, int64_t cols, const MappingSpec &spec)
{
    if (rows <= 0 || cols <= 0)
        return 0;
    const int64_t cell_cols = cols * spec.cellsPerWeight();
    const int64_t grid_r = (rows + spec.xbarRows - 1) / spec.xbarRows;
    const int64_t grid_c = (cell_cols + spec.xbarCols - 1) / spec.xbarCols;
    return grid_r * grid_c * spec.crossbarFactor();
}

MappingSpec
baselineMapping32(int64_t xbar_rows, int64_t xbar_cols)
{
    MappingSpec m;
    m.xbarRows = xbar_rows;
    m.xbarCols = xbar_cols;
    m.weightBits = 32;
    m.scheme = SignScheme::Splitting;
    return m;
}

MappingSpec
formsMapping(int weight_bits, int64_t xbar_rows, int64_t xbar_cols)
{
    MappingSpec m;
    m.xbarRows = xbar_rows;
    m.xbarCols = xbar_cols;
    m.weightBits = weight_bits;
    m.scheme = SignScheme::PolarizedForms;
    return m;
}

CompressionReport
buildReport(const AdmmCompressor &comp, const CompressionOutcome &outcome,
            const MappingSpec &baseline, const MappingSpec &forms)
{
    CompressionReport rep;
    rep.pruneRatio = outcome.pruneRatio;
    rep.accuracyBefore = outcome.accuracyBefore;
    rep.accuracyAfter = outcome.accuracyAfter;

    for (const auto &st : comp.layers()) {
        LayerReport lr;
        lr.name = st.name;
        // Original 2-d geometry comes from the weight tensor itself —
        // the fragment plan may already be restricted to kept rows.
        const WeightView view = st.view();
        lr.rows = view.rows();
        lr.cols = view.cols();
        if (st.mask) {
            lr.keptRows = st.mask->keptRows();
            lr.keptCols = st.mask->keptCols();
        } else {
            lr.keptRows = lr.rows;
            lr.keptCols = lr.cols;
        }
        lr.baselineCrossbars =
            crossbarsForMatrix(lr.rows, lr.cols, baseline);
        lr.formsCrossbars =
            crossbarsForMatrix(lr.keptRows, lr.keptCols, forms);
        rep.baselineCrossbars += lr.baselineCrossbars;
        rep.formsCrossbars += lr.formsCrossbars;
        rep.layers.push_back(std::move(lr));
    }
    rep.crossbarReduction = rep.formsCrossbars
        ? static_cast<double>(rep.baselineCrossbars) /
          static_cast<double>(rep.formsCrossbars)
        : 0.0;
    return rep;
}

} // namespace forms::admm
