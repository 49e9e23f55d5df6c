#include "admm/constraints.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace forms::admm {

int64_t
crossbarAwareKeep(int64_t total, double keep_ratio, int64_t xbar_dim)
{
    FORMS_ASSERT(total >= 0 && xbar_dim >= 1, "bad crossbarAwareKeep args");
    keep_ratio = std::clamp(keep_ratio, 0.0, 1.0);
    int64_t keep = static_cast<int64_t>(
        std::llround(keep_ratio * static_cast<double>(total)));
    keep = std::clamp<int64_t>(keep, 1, total);
    // Snap up to a full crossbar extent: the pruned fraction between two
    // multiples of xbar_dim frees no hardware.
    const int64_t snapped = ((keep + xbar_dim - 1) / xbar_dim) * xbar_dim;
    return std::min(total, snapped);
}

namespace {

/** Indices of the `keep` largest values in `norms` marked as 1. */
std::vector<uint8_t>
topKMask(const std::vector<double> &norms, int64_t keep)
{
    const int64_t n = static_cast<int64_t>(norms.size());
    std::vector<int64_t> idx(static_cast<size_t>(n));
    std::iota(idx.begin(), idx.end(), 0);
    std::stable_sort(idx.begin(), idx.end(), [&](int64_t a, int64_t b) {
        return norms[static_cast<size_t>(a)] > norms[static_cast<size_t>(b)];
    });
    std::vector<uint8_t> mask(static_cast<size_t>(n), 0);
    for (int64_t i = 0; i < std::min(keep, n); ++i)
        mask[static_cast<size_t>(idx[static_cast<size_t>(i)])] = 1;
    return mask;
}

} // namespace

std::pair<int64_t, int64_t>
projectStructuredPrune(WeightView view, const PruneSpec &spec)
{
    const int64_t rows = view.rows(), cols = view.cols();

    std::vector<double> col_norm(static_cast<size_t>(cols), 0.0);
    std::vector<double> row_norm(static_cast<size_t>(rows), 0.0);
    for (int64_t j = 0; j < cols; ++j)
        for (int64_t r = 0; r < rows; ++r) {
            const double v = view.get(r, j);
            col_norm[static_cast<size_t>(j)] += v * v;
            row_norm[static_cast<size_t>(r)] += v * v;
        }

    const int64_t col_keep =
        crossbarAwareKeep(cols, spec.filterKeep, spec.xbarDim);
    const int64_t row_keep =
        crossbarAwareKeep(rows, spec.shapeKeep, spec.xbarDim);

    auto col_mask = topKMask(col_norm, col_keep);
    auto row_mask = topKMask(row_norm, row_keep);

    for (int64_t j = 0; j < cols; ++j)
        for (int64_t r = 0; r < rows; ++r)
            if (!col_mask[static_cast<size_t>(j)] ||
                !row_mask[static_cast<size_t>(r)]) {
                view.set(r, j, 0.0f);
            }
    return {row_keep, col_keep};
}

int64_t
PruneMask::keptRows() const
{
    return std::count(rowKept.begin(), rowKept.end(), uint8_t{1});
}

int64_t
PruneMask::keptCols() const
{
    return std::count(colKept.begin(), colKept.end(), uint8_t{1});
}

PruneMask
extractMask(const WeightView &view)
{
    PruneMask m;
    m.rowKept.assign(static_cast<size_t>(view.rows()), 0);
    m.colKept.assign(static_cast<size_t>(view.cols()), 0);
    for (int64_t j = 0; j < view.cols(); ++j)
        for (int64_t r = 0; r < view.rows(); ++r)
            if (view.get(r, j) != 0.0f) {
                m.rowKept[static_cast<size_t>(r)] = 1;
                m.colKept[static_cast<size_t>(j)] = 1;
            }
    return m;
}

void
applyMask(WeightView view, const PruneMask &mask)
{
    FORMS_ASSERT(static_cast<int64_t>(mask.rowKept.size()) == view.rows() &&
                 static_cast<int64_t>(mask.colKept.size()) == view.cols(),
                 "mask geometry mismatch");
    for (int64_t j = 0; j < view.cols(); ++j)
        for (int64_t r = 0; r < view.rows(); ++r)
            if (!mask.colKept[static_cast<size_t>(j)] ||
                !mask.rowKept[static_cast<size_t>(r)]) {
                view.set(r, j, 0.0f);
            }
}

SignMap
computeSigns(const WeightView &view, const FragmentPlan &plan)
{
    SignMap signs(plan.cols(), plan.fragmentsPerCol());
    for (int64_t j = 0; j < plan.cols(); ++j) {
        for (int64_t f = 0; f < plan.fragmentsPerCol(); ++f) {
            double sum = 0.0;
            for (int64_t r : plan.fragmentRowIndices(f))
                sum += view.get(r, j);
            signs.set(j, f, sum >= 0.0 ? 1 : -1);   // paper Eq. (2)
        }
    }
    return signs;
}

void
projectPolarization(WeightView view, const FragmentPlan &plan,
                    const SignMap &signs)
{
    for (int64_t j = 0; j < plan.cols(); ++j)
        for (int64_t f = 0; f < plan.fragmentsPerCol(); ++f) {
            const int8_t s = signs.get(j, f);
            for (int64_t r : plan.fragmentRowIndices(f)) {
                const float v = view.get(r, j);
                if ((s > 0 && v < 0.0f) || (s < 0 && v > 0.0f))
                    view.set(r, j, 0.0f);
            }
        }
}

int64_t
countSignViolations(const WeightView &view, const FragmentPlan &plan,
                    const SignMap &signs)
{
    int64_t violations = 0;
    for (int64_t j = 0; j < plan.cols(); ++j)
        for (int64_t f = 0; f < plan.fragmentsPerCol(); ++f) {
            const int8_t s = signs.get(j, f);
            for (int64_t r : plan.fragmentRowIndices(f)) {
                const float v = view.get(r, j);
                if ((s > 0 && v < 0.0f) || (s < 0 && v > 0.0f))
                    ++violations;
            }
        }
    return violations;
}

float
quantizeValue(float v, float scale, int bits)
{
    if (v == 0.0f || scale <= 0.0f)
        return 0.0f;
    const float qmax = static_cast<float>((1 << bits) - 1);
    float level = std::round(std::fabs(v) / scale);
    level = std::min(level, qmax);
    return std::copysign(level * scale, v);
}

float
projectQuantize(WeightView view, const QuantSpec &spec)
{
    FORMS_ASSERT(spec.bits >= 1 && spec.bits <= 16, "bad quant bits");
    float scale = spec.scale;
    if (scale <= 0.0f) {
        const float mx = view.tensor().maxAbs();
        if (mx == 0.0f)
            return 0.0f;
        scale = mx / static_cast<float>((1 << spec.bits) - 1);
    }
    for (int64_t j = 0; j < view.cols(); ++j)
        for (int64_t r = 0; r < view.rows(); ++r)
            view.set(r, j, quantizeValue(view.get(r, j), scale, spec.bits));
    return scale;
}

} // namespace forms::admm
