#include "tensor/tensor.hh"

#include <cmath>
#include <numeric>
#include <sstream>

namespace forms {

int64_t
shapeNumel(const Shape &shape)
{
    int64_t n = 1;
    for (int64_t d : shape) {
        FORMS_ASSERT(d >= 0, "negative dimension in shape");
        n *= d;
    }
    return n;
}

std::string
shapeStr(const Shape &shape)
{
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < shape.size(); ++i) {
        if (i)
            os << ", ";
        os << shape[i];
    }
    os << "]";
    return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(shapeNumel(shape_)), 0.0f)
{
}

Tensor::Tensor(Shape shape, float value)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(shapeNumel(shape_)), value)
{
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data))
{
    FORMS_ASSERT(static_cast<int64_t>(data_.size()) == shapeNumel(shape_),
                 "data size does not match shape %s", shapeStr(shape_).c_str());
}

int64_t
Tensor::dim(int d) const
{
    const int r = rank();
    if (d < 0)
        d += r;
    FORMS_ASSERT(d >= 0 && d < r, "dimension index out of range");
    return shape_[static_cast<size_t>(d)];
}

float &
Tensor::at(int64_t i)
{
    FORMS_ASSERT(i >= 0 && i < numel(), "flat index out of range");
    return data_[static_cast<size_t>(i)];
}

float
Tensor::at(int64_t i) const
{
    FORMS_ASSERT(i >= 0 && i < numel(), "flat index out of range");
    return data_[static_cast<size_t>(i)];
}

float &
Tensor::at(int64_t i, int64_t j)
{
    FORMS_ASSERT(rank() == 2, "rank-2 accessor on rank-%d tensor", rank());
    FORMS_ASSERT(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1],
                 "2-d index out of range");
    return data_[static_cast<size_t>(i * shape_[1] + j)];
}

float
Tensor::at(int64_t i, int64_t j) const
{
    return const_cast<Tensor *>(this)->at(i, j);
}

float &
Tensor::at(int64_t n, int64_t c, int64_t h, int64_t w)
{
    FORMS_ASSERT(rank() == 4, "rank-4 accessor on rank-%d tensor", rank());
    FORMS_ASSERT(n >= 0 && n < shape_[0] && c >= 0 && c < shape_[1] &&
                 h >= 0 && h < shape_[2] && w >= 0 && w < shape_[3],
                 "4-d index out of range");
    return data_[static_cast<size_t>(
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
}

float
Tensor::at(int64_t n, int64_t c, int64_t h, int64_t w) const
{
    return const_cast<Tensor *>(this)->at(n, c, h, w);
}

Tensor
Tensor::reshaped(Shape shape) const
{
    FORMS_ASSERT(shapeNumel(shape) == numel(),
                 "reshape %s -> %s changes element count",
                 shapeStr(shape_).c_str(), shapeStr(shape).c_str());
    return Tensor(std::move(shape), data_);
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Tensor::fillGaussian(Rng &rng, float mean, float stddev)
{
    for (float &x : data_)
        x = static_cast<float>(rng.gaussian(mean, stddev));
}

void
Tensor::fillUniform(Rng &rng, float lo, float hi)
{
    for (float &x : data_)
        x = static_cast<float>(rng.uniform(lo, hi));
}

void
Tensor::apply(const std::function<float(float)> &f)
{
    for (float &x : data_)
        x = f(x);
}

void
Tensor::add(const Tensor &other)
{
    axpy(1.0f, other);
}

void
Tensor::axpy(float alpha, const Tensor &other)
{
    FORMS_ASSERT(numel() == other.numel(), "axpy size mismatch");
    const float *src = other.data();
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] += alpha * src[i];
}

void
Tensor::sub(const Tensor &other)
{
    axpy(-1.0f, other);
}

void
Tensor::scale(float alpha)
{
    for (float &x : data_)
        x *= alpha;
}

double
Tensor::sum() const
{
    double acc = 0.0;
    for (float x : data_)
        acc += x;
    return acc;
}

float
Tensor::maxAbs() const
{
    float m = 0.0f;
    for (float x : data_)
        m = std::max(m, std::fabs(x));
    return m;
}

double
Tensor::squaredNorm() const
{
    double acc = 0.0;
    for (float x : data_)
        acc += static_cast<double>(x) * x;
    return acc;
}

int64_t
Tensor::countZeros() const
{
    int64_t n = 0;
    for (float x : data_)
        if (x == 0.0f)
            ++n;
    return n;
}

bool
Tensor::equals(const Tensor &other) const
{
    return shape_ == other.shape_ && data_ == other.data_;
}

} // namespace forms
