/**
 * @file
 * Fragment indexing shared by the ADMM polarization constraint and the
 * hardware weight mapper.
 *
 * The paper's "2-d weight format" reshapes a conv filter bank
 * (Cout, Cin, K, K) into a matrix H with rows = Cin*K*K (filter shapes)
 * and cols = Cout (filters); a dense weight (out, in) becomes rows = in,
 * cols = out. A *fragment* is a run of `fragSize` consecutive rows of
 * one column under the polarization policy's row ordering (W-, H- or
 * C-major, Figure 3); each fragment is exactly the set of weights that
 * lands in one column of one crossbar sub-array, so training-time
 * polarization and hardware mapping agree by construction.
 */

#ifndef FORMS_ADMM_FRAGMENT_HH
#define FORMS_ADMM_FRAGMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hh"

namespace forms::admm {

/** Row-ordering policy for mapping filter weights to fragments. */
enum class PolarizationPolicy
{
    WMajor,   //!< width fastest: (c, h, w) row index — paper's ImageNet pick
    HMajor,   //!< height fastest: (c, w, h)
    CMajor,   //!< channel fastest: (h, w, c) — paper's CIFAR pick
};

/** Human-readable policy name. */
std::string policyName(PolarizationPolicy p);

/**
 * Adapter exposing a conv filter bank or dense weight tensor as the
 * paper's 2-d weight format H (rows x cols).
 */
class WeightView
{
  public:
    /** Wrap a conv weight (Cout, Cin, K, K). */
    static WeightView conv(Tensor &w);

    /** Wrap a dense weight (out, in): rows = in, cols = out. */
    static WeightView dense(Tensor &w);

    int64_t rows() const { return rows_; }
    int64_t cols() const { return cols_; }

    /** Element H(r, j) in *natural* (W-major) row order. */
    float get(int64_t r, int64_t j) const;
    void set(int64_t r, int64_t j, float v);

    /** The wrapped tensor. */
    Tensor &tensor() { return *w_; }
    const Tensor &tensor() const { return *w_; }

  private:
    Tensor *w_ = nullptr;
    bool conv_ = false;
    int64_t rows_ = 0, cols_ = 0;

    // conv geometry (unused for dense)
    int64_t cin_ = 0, k_ = 0;
};

/**
 * Fragment plan for one layer: a row permutation realizing the
 * polarization policy plus the fragment partition of the permuted rows.
 */
class FragmentPlan
{
  public:
    /**
     * Build a plan for a conv layer.
     *
     * @param cout,cin,k filter bank geometry
     * @param frag_size weights per fragment (sub-array rows m)
     * @param policy row-ordering policy
     */
    static FragmentPlan forConv(int64_t cout, int64_t cin, int64_t k,
                                int frag_size, PolarizationPolicy policy);

    /** Build a plan for a dense layer (policy is irrelevant: 1-d rows). */
    static FragmentPlan forDense(int64_t out, int64_t in, int frag_size);

    int64_t rows() const { return rows_; }
    int64_t cols() const { return cols_; }
    int fragSize() const { return fragSize_; }
    PolarizationPolicy policy() const { return policy_; }

    /** Number of fragments per column (last may be partial). */
    int64_t fragmentsPerCol() const;

    /** Natural row index of position p in the policy ordering. */
    int64_t orderedRow(int64_t p) const;

    /** Number of rows in fragment f (== fragSize except the tail). */
    int64_t fragmentRows(int64_t f) const;

    /**
     * Natural row indices covered by fragment f (positions
     * [f*fragSize, f*fragSize + fragmentRows(f)) of the ordering).
     */
    std::vector<int64_t> fragmentRowIndices(int64_t f) const;

    /**
     * Plan restricted to surviving rows after structured pruning: the
     * ordering keeps only rows with row_kept[r] != 0 and fragments are
     * re-cut over the survivors — exactly the compaction the hardware
     * mapper performs, so training-time fragments and sub-array columns
     * stay aligned (paper: polarization follows pruning).
     */
    FragmentPlan restrictedToRows(
        const std::vector<uint8_t> &row_kept) const;

  private:
    int64_t rows_ = 0, cols_ = 0;
    int fragSize_ = 1;
    PolarizationPolicy policy_ = PolarizationPolicy::WMajor;
    std::vector<int64_t> order_;   //!< permutation: position -> natural row
};

/**
 * Per-fragment sign assignment for one layer: +1 or -1 for each
 * (column, fragment) pair, stored column-major.
 */
class SignMap
{
  public:
    SignMap() = default;
    SignMap(int64_t cols, int64_t frags_per_col);

    int8_t get(int64_t col, int64_t frag) const;
    void set(int64_t col, int64_t frag, int8_t sign);

    int64_t cols() const { return cols_; }

    /** Count of positive-sign fragments (for diagnostics). */
    int64_t countPositive() const;

  private:
    int64_t cols_ = 0, fragsPerCol_ = 0;
    std::vector<int8_t> signs_;
};

} // namespace forms::admm

#endif // FORMS_ADMM_FRAGMENT_HH
