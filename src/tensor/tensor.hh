/**
 * @file
 * Minimal dense row-major float tensor used by the DNN substrate, the
 * ADMM optimization framework and the functional accelerator simulator.
 */

#ifndef FORMS_TENSOR_TENSOR_HH
#define FORMS_TENSOR_TENSOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"

namespace forms {

/** Shape of a tensor: a list of non-negative dimension extents. */
using Shape = std::vector<int64_t>;

/** Number of elements implied by a shape. */
int64_t shapeNumel(const Shape &shape);

/** Human-readable rendering, e.g. "[64, 3, 3, 3]". */
std::string shapeStr(const Shape &shape);

/**
 * Dense row-major float32 tensor.
 *
 * Deliberately small: contiguous storage, explicit indexing helpers for
 * ranks 1-4, elementwise helpers, and in-place mutation used by the
 * training loop. Anything heavier lives in ops.hh.
 */
class Tensor
{
  public:
    /** Empty (rank-0, zero-element) tensor. */
    Tensor() = default;

    /** Zero-initialized tensor of the given shape. */
    explicit Tensor(Shape shape);

    /** Tensor of the given shape filled with `value`. */
    Tensor(Shape shape, float value);

    /** Tensor wrapping the given flat data (must match the shape). */
    Tensor(Shape shape, std::vector<float> data);

    /** The tensor's shape. */
    const Shape &shape() const { return shape_; }

    /** Extent of dimension d (supports negative d counting from back). */
    int64_t dim(int d) const;

    /** Rank (number of dimensions). */
    int rank() const { return static_cast<int>(shape_.size()); }

    /** Total number of elements. */
    int64_t numel() const { return static_cast<int64_t>(data_.size()); }

    /** Raw storage access. */
    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Flat element access with bounds assertion. */
    float &at(int64_t i);
    float at(int64_t i) const;

    /** Rank-2 element access (row, col). */
    float &at(int64_t i, int64_t j);
    float at(int64_t i, int64_t j) const;

    /** Rank-4 element access (n, c, h, w). */
    float &at(int64_t n, int64_t c, int64_t h, int64_t w);
    float at(int64_t n, int64_t c, int64_t h, int64_t w) const;

    /** Reinterpret as a new shape with identical element count. */
    Tensor reshaped(Shape shape) const;

    /** Fill all elements with a constant. */
    void fill(float value);

    /** Fill with i.i.d. N(mean, stddev) samples. */
    void fillGaussian(Rng &rng, float mean, float stddev);

    /** Fill with i.i.d. U[lo, hi) samples. */
    void fillUniform(Rng &rng, float lo, float hi);

    /** Apply `f` to every element in place. */
    void apply(const std::function<float(float)> &f);

    /** Elementwise in-place accumulate: this += other. */
    void add(const Tensor &other);

    /** Elementwise in-place scaled accumulate: this += alpha * other. */
    void axpy(float alpha, const Tensor &other);

    /** Elementwise in-place subtract: this -= other. */
    void sub(const Tensor &other);

    /** In-place scalar multiply. */
    void scale(float alpha);

    /** Sum of all elements. */
    double sum() const;


    /** Maximum absolute value of elements (0 for empty tensors). */
    float maxAbs() const;

    /** Squared L2 norm. */
    double squaredNorm() const;

    /** Count of elements that are exactly zero. */
    int64_t countZeros() const;

    /** True when both shape and every element match exactly. */
    bool equals(const Tensor &other) const;

  private:
    Shape shape_;
    std::vector<float> data_;
};

} // namespace forms

#endif // FORMS_TENSOR_TENSOR_HH
