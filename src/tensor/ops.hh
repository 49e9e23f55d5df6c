/**
 * @file
 * Tensor operations backing the DNN substrate: GEMM, im2col-based 2-d
 * convolution, pooling and activation kernels. Correctness and
 * determinism first: the hot kernels (matmul*, im2col/col2im, pooling)
 * shard over the process-wide ThreadPool along axes with disjoint
 * writes and unchanged per-element accumulation order, so results are
 * bit-identical to the serial loops for any thread count (set
 * FORMS_THREADS=1 to force serial execution).
 */

#ifndef FORMS_TENSOR_OPS_HH
#define FORMS_TENSOR_OPS_HH

#include "tensor/tensor.hh"

namespace forms {

/** C = A(mxk) * B(kxn); all rank-2. */
Tensor matmul(const Tensor &a, const Tensor &b);

/** C = A(mxk) * B(kxn)^T where bT is given as (n x k). */
Tensor matmulTransposeB(const Tensor &a, const Tensor &b_t);

/** C = A(mxk)^T * B(mxn) -> (k x n). */
Tensor matmulTransposeA(const Tensor &a, const Tensor &b);

/** Rank-2 transpose. */
Tensor transpose(const Tensor &a);

/**
 * im2col for NCHW input. Output is rank-2 with
 * rows = C*kh*kw, cols = N*out_h*out_w. Column-major over (n, oy, ox)
 * so a conv becomes weights(out_c x C*kh*kw) * im2col.
 */
Tensor im2col(const Tensor &input, int kh, int kw, int stride, int pad);

/**
 * im2col writing into a caller-owned tensor, reallocating only when
 * the output geometry changes. Conv stages do not call it: they
 * gather each patch inside the quantizer (sim/stage_kernels.hh). It
 * serves callers that repeat one geometry on a reused tensor, such
 * as reference checks and kernel timing probes.
 */
void im2colInto(const Tensor &input, int kh, int kw, int stride, int pad,
                Tensor &out);

/** Inverse scatter-add of im2col (for conv backward w.r.t. input). */
Tensor col2im(const Tensor &cols, const Shape &input_shape, int kh, int kw,
              int stride, int pad);

/** Spatial output extent for a conv/pool dimension. */
int convOutDim(int in, int k, int stride, int pad);

/** Elementwise ReLU (returns a copy). */
Tensor relu(const Tensor &x);

/** Elementwise ReLU derivative mask given the forward input. */
Tensor reluGrad(const Tensor &x, const Tensor &grad_out);

/**
 * Row-wise softmax of a rank-2 tensor (numerically stabilized by the
 * row max).
 */
Tensor softmaxRows(const Tensor &logits);

/**
 * 2-d max pooling on NCHW input. `argmax` (same shape as the output)
 * receives the flat input index of each maximum for use in backward.
 */
Tensor maxPool2d(const Tensor &input, int k, int stride, Tensor *argmax);

/** Scatter pooled gradients back through the recorded argmax indices. */
Tensor maxPool2dBackward(const Tensor &grad_out, const Tensor &argmax,
                         const Shape &input_shape);

/** 2-d average pooling on NCHW input. */
Tensor avgPool2d(const Tensor &input, int k, int stride);

/** Backward of average pooling. */
Tensor avgPool2dBackward(const Tensor &grad_out, const Shape &input_shape,
                         int k, int stride);

} // namespace forms

#endif // FORMS_TENSOR_OPS_HH
