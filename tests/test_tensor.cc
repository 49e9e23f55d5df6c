/**
 * @file
 * Unit tests for the tensor substrate: shape bookkeeping, elementwise
 * helpers, GEMM variants against naive references, im2col/col2im
 * consistency, pooling forward/backward.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/logging.hh"
#include "tensor/ops.hh"

namespace forms {
namespace {

TEST(Tensor, ShapeAndNumel)
{
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.rank(), 3);
    EXPECT_EQ(t.numel(), 24);
    EXPECT_EQ(t.dim(0), 2);
    EXPECT_EQ(t.dim(-1), 4);
}

TEST(Tensor, FillAndSum)
{
    Tensor t({5, 5}, 2.0f);
    EXPECT_DOUBLE_EQ(t.sum(), 50.0);
    t.fill(0.0f);
    EXPECT_DOUBLE_EQ(t.sum(), 0.0);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t({2, 6});
    for (int64_t i = 0; i < 12; ++i)
        t.at(i) = static_cast<float>(i);
    Tensor r = t.reshaped({3, 4});
    EXPECT_EQ(r.dim(0), 3);
    EXPECT_FLOAT_EQ(r.at(2, 3), 11.0f);
}

TEST(Tensor, AxpyAndScale)
{
    Tensor a({4}, 1.0f), b({4}, 2.0f);
    a.axpy(3.0f, b);
    EXPECT_FLOAT_EQ(a.at(0), 7.0f);
    a.scale(0.5f);
    EXPECT_FLOAT_EQ(a.at(3), 3.5f);
}

TEST(Tensor, MaxAbsAndZeros)
{
    Tensor t({4}, 0.0f);
    t.at(2) = -5.0f;
    EXPECT_FLOAT_EQ(t.maxAbs(), 5.0f);
    EXPECT_EQ(t.countZeros(), 3);
}

TEST(Tensor, GaussianFillStatistics)
{
    Rng rng(3);
    Tensor t({10000});
    t.fillGaussian(rng, 1.0f, 2.0f);
    EXPECT_NEAR(t.sum() / 10000.0, 1.0, 0.1);
}

TEST(Ops, MatmulMatchesNaive)
{
    Rng rng(5);
    Tensor a({7, 5}), b({5, 9});
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    Tensor c = matmul(a, b);
    for (int64_t i = 0; i < 7; ++i)
        for (int64_t j = 0; j < 9; ++j) {
            double acc = 0.0;
            for (int64_t k = 0; k < 5; ++k)
                acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
            EXPECT_NEAR(c.at(i, j), acc, 1e-4);
        }
}

TEST(Ops, MatmulTransposeVariantsAgree)
{
    Rng rng(6);
    Tensor a({4, 6}), b({6, 3});
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    Tensor ref = matmul(a, b);
    Tensor viaTB = matmulTransposeB(a, transpose(b));
    Tensor viaTA = matmulTransposeA(transpose(a), b);
    for (int64_t i = 0; i < ref.numel(); ++i) {
        EXPECT_NEAR(viaTB.at(i), ref.at(i), 1e-4);
        EXPECT_NEAR(viaTA.at(i), ref.at(i), 1e-4);
    }
}

/** Bitwise tensor equality (shape and every element's bits). */
bool
sameBits(const Tensor &x, const Tensor &y)
{
    return x.shape() == y.shape() &&
        std::memcmp(x.data(), y.data(),
                    sizeof(float) * static_cast<size_t>(x.numel())) == 0;
}

/**
 * The dot-product definition, transcribed (DESIGN.md §6): element i
 * feeds lane i % 4 in ascending i, the lanes combine as
 * (l0 + l2) + (l1 + l3).
 */
double
laneTreeDot(const float *a, const float *b, int64_t n)
{
    double lane[4] = {0.0, 0.0, 0.0, 0.0};
    for (int64_t i = 0; i < n; ++i)
        lane[i % 4] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

/**
 * The GEMM and im2col kernels are bit-identical to in-test
 * transcriptions of their definitions (the lane-tree dot, and float
 * axpy accumulation in ascending reduction index with two roundings
 * per step) on deliberately ragged shapes: k = 23 and n = 13 leave
 * 1–3-element tails in any 4-wide blocking the compiler picks.
 */
TEST(Ops, GemmAndIm2colMatchTheirDefinitionsOnRaggedShapes)
{
    Rng rng(12);
    const int64_t m = 5, k = 23, n = 13;
    Tensor a({m, k}), b({k, n}), bt({n, k});
    Tensor img({2, 3, 9, 7});
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    bt.fillGaussian(rng, 0.0f, 1.0f);
    img.fillUniform(rng, -1.0f, 1.0f);

    Tensor mm({m, n}), mt({m, n});
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (int64_t l = 0; l < k; ++l)
                acc += a.at(i, l) * b.at(l, j);
            mm.at(i, j) = acc;
            mt.at(i, j) = static_cast<float>(
                laneTreeDot(a.data() + i * k, bt.data() + j * k, k));
        }
    }
    EXPECT_TRUE(sameBits(matmul(a, b), mm));
    EXPECT_TRUE(sameBits(matmulTransposeB(a, bt), mt));
    // C = A^T B with A = transpose(a) accumulates over A's rows in
    // ascending order: the same sums as matmul(a, b).
    EXPECT_TRUE(sameBits(matmulTransposeA(transpose(a), b), mm));

    struct Lowering
    {
        int kh, kw, stride, pad;
    };
    for (const Lowering lw : {Lowering{3, 3, 1, 1}, Lowering{2, 2, 2, 0}}) {
        SCOPED_TRACE(strfmt("k=%d stride=%d pad=%d", lw.kh, lw.stride,
                            lw.pad));
        const int64_t imgs = img.dim(0), ch = img.dim(1);
        const int h = static_cast<int>(img.dim(2));
        const int w = static_cast<int>(img.dim(3));
        const int oh = convOutDim(h, lw.kh, lw.stride, lw.pad);
        const int ow = convOutDim(w, lw.kw, lw.stride, lw.pad);
        Tensor want({ch * lw.kh * lw.kw, imgs * oh * ow});
        for (int64_t im = 0; im < imgs; ++im)
            for (int64_t c = 0; c < ch; ++c)
                for (int ky = 0; ky < lw.kh; ++ky)
                    for (int kx = 0; kx < lw.kw; ++kx)
                        for (int oy = 0; oy < oh; ++oy)
                            for (int ox = 0; ox < ow; ++ox) {
                                const int iy = oy * lw.stride - lw.pad + ky;
                                const int ix = ox * lw.stride - lw.pad + kx;
                                const bool in = iy >= 0 && iy < h &&
                                    ix >= 0 && ix < w;
                                want.at((c * lw.kh + ky) * lw.kw + kx,
                                        (im * oh + oy) * ow + ox) =
                                    in ? img.at(im, c, iy, ix) : 0.0f;
                            }
        EXPECT_TRUE(sameBits(im2col(img, lw.kh, lw.kw, lw.stride, lw.pad),
                             want));
    }
}

/**
 * matmulTransposeB uses the lane tree, not plain accumulation: on
 * {2^53, 1, -2^53, 1} · 1 a sequential sum and the adjacent pairing
 * (l0 + l1) + (l2 + l3) both lose one of the 1s to rounding (1.0), and
 * only (l0 + l2) + (l1 + l3) gives 2.0. (On Gaussian data the
 * float-rounded outputs rarely tell these orders apart.)
 */
TEST(Ops, MatmulTransposeBIsTheCanonicalLaneTree)
{
    const float big = 9007199254740992.0f;   // 2^53: 2^53 + 1 rounds back
    Tensor row({1, 4}), ones({1, 4});
    const float vals[4] = {big, 1.0f, -big, 1.0f};
    for (int64_t i = 0; i < 4; ++i) {
        row.at(0, i) = vals[i];
        ones.at(0, i) = 1.0f;
    }
    EXPECT_EQ(matmulTransposeB(row, ones).at(0, 0), 2.0f);
}

/** im2colInto reuses caller storage without changing the result. */
TEST(Ops, Im2colIntoReusedScratchMatchesFreshAllocation)
{
    Rng rng(13);
    Tensor big({2, 3, 8, 8}), small({1, 3, 5, 5});
    big.fillGaussian(rng, 0.0f, 1.0f);
    small.fillGaussian(rng, 0.0f, 1.0f);

    Tensor scratch;
    im2colInto(big, 3, 3, 1, 1, scratch);
    EXPECT_TRUE(scratch.equals(im2col(big, 3, 3, 1, 1)));
    // Shrinking reuse: stale tail data from the larger lowering must
    // not leak into the smaller one.
    im2colInto(small, 3, 3, 1, 1, scratch);
    EXPECT_TRUE(scratch.equals(im2col(small, 3, 3, 1, 1)));
    // And growing again reallocates correctly.
    im2colInto(big, 3, 3, 2, 0, scratch);
    EXPECT_TRUE(scratch.equals(im2col(big, 3, 3, 2, 0)));
}

TEST(Ops, TransposeRoundTrip)
{
    Rng rng(8);
    Tensor a({3, 5});
    a.fillGaussian(rng, 0.0f, 1.0f);
    EXPECT_TRUE(transpose(transpose(a)).equals(a));
}

TEST(Ops, ConvOutDim)
{
    EXPECT_EQ(convOutDim(32, 3, 1, 1), 32);
    EXPECT_EQ(convOutDim(28, 5, 1, 0), 24);
    EXPECT_EQ(convOutDim(32, 3, 2, 1), 16);
}

TEST(Ops, Im2colConvMatchesDirect)
{
    // conv as wmat * im2col must equal the naive sliding window.
    Rng rng(9);
    const int n = 2, c = 3, h = 6, w = 6, f = 4, k = 3, stride = 1,
        pad = 1;
    Tensor input({n, c, h, w}), weight({f, c, k, k});
    input.fillGaussian(rng, 0.0f, 1.0f);
    weight.fillGaussian(rng, 0.0f, 1.0f);

    Tensor cols = im2col(input, k, k, stride, pad);
    Tensor prod = matmul(weight.reshaped({f, c * k * k}), cols);

    const int oh = convOutDim(h, k, stride, pad);
    const int ow = convOutDim(w, k, stride, pad);
    for (int img = 0; img < n; ++img)
        for (int fo = 0; fo < f; ++fo)
            for (int oy = 0; oy < oh; ++oy)
                for (int ox = 0; ox < ow; ++ox) {
                    double acc = 0.0;
                    for (int ch = 0; ch < c; ++ch)
                        for (int ky = 0; ky < k; ++ky)
                            for (int kx = 0; kx < k; ++kx) {
                                const int iy = oy * stride - pad + ky;
                                const int ix = ox * stride - pad + kx;
                                if (iy < 0 || iy >= h || ix < 0 ||
                                    ix >= w)
                                    continue;
                                acc += static_cast<double>(
                                    weight.at(fo, ch, ky, kx)) *
                                    input.at(img, ch, iy, ix);
                            }
                    const int64_t col = (img * oh + oy) * ow + ox;
                    EXPECT_NEAR(prod.at(fo, col), acc, 1e-4);
                }
}

TEST(Ops, Col2imIsAdjointOfIm2col)
{
    // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property
    // that conv backward relies on.
    Rng rng(10);
    const Shape in_shape{1, 2, 5, 5};
    Tensor x(in_shape);
    x.fillGaussian(rng, 0.0f, 1.0f);
    Tensor cx = im2col(x, 3, 3, 2, 1);
    Tensor y(cx.shape());
    y.fillGaussian(rng, 0.0f, 1.0f);
    Tensor ay = col2im(y, in_shape, 3, 3, 2, 1);

    double lhs = 0.0, rhs = 0.0;
    for (int64_t i = 0; i < cx.numel(); ++i)
        lhs += static_cast<double>(cx.at(i)) * y.at(i);
    for (int64_t i = 0; i < x.numel(); ++i)
        rhs += static_cast<double>(x.at(i)) * ay.at(i);
    EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Ops, ReluAndGrad)
{
    Tensor x({4});
    x.at(0) = -1.0f; x.at(1) = 0.0f; x.at(2) = 2.0f; x.at(3) = -0.5f;
    Tensor y = relu(x);
    EXPECT_FLOAT_EQ(y.at(0), 0.0f);
    EXPECT_FLOAT_EQ(y.at(2), 2.0f);
    Tensor g({4}, 1.0f);
    Tensor gx = reluGrad(x, g);
    EXPECT_FLOAT_EQ(gx.at(0), 0.0f);
    EXPECT_FLOAT_EQ(gx.at(2), 1.0f);
}

TEST(Ops, SoftmaxRowsNormalized)
{
    Rng rng(11);
    Tensor logits({3, 7});
    logits.fillGaussian(rng, 0.0f, 3.0f);
    Tensor p = softmaxRows(logits);
    for (int64_t i = 0; i < 3; ++i) {
        double row = 0.0;
        for (int64_t j = 0; j < 7; ++j) {
            EXPECT_GE(p.at(i, j), 0.0f);
            row += p.at(i, j);
        }
        EXPECT_NEAR(row, 1.0, 1e-5);
    }
}

TEST(Ops, MaxPoolForwardAndBackward)
{
    Tensor x({1, 1, 4, 4});
    for (int64_t i = 0; i < 16; ++i)
        x.at(i) = static_cast<float>(i);
    Tensor argmax;
    Tensor y = maxPool2d(x, 2, 2, &argmax);
    EXPECT_EQ(y.dim(2), 2);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 5.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 15.0f);

    Tensor g({1, 1, 2, 2}, 1.0f);
    Tensor gx = maxPool2dBackward(g, argmax, x.shape());
    EXPECT_FLOAT_EQ(gx.at(0, 0, 1, 1), 1.0f);   // index 5
    EXPECT_FLOAT_EQ(gx.at(0, 0, 0, 0), 0.0f);
    EXPECT_DOUBLE_EQ(gx.sum(), 4.0);
}

TEST(Ops, AvgPoolForwardBackward)
{
    Tensor x({1, 1, 4, 4}, 2.0f);
    Tensor y = avgPool2d(x, 2, 2);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 2.0f);
    Tensor g({1, 1, 2, 2}, 1.0f);
    Tensor gx = avgPool2dBackward(g, x.shape(), 2, 2);
    EXPECT_FLOAT_EQ(gx.at(0, 0, 0, 0), 0.25f);
    EXPECT_NEAR(gx.sum(), 4.0, 1e-6);
}

} // namespace
} // namespace forms
