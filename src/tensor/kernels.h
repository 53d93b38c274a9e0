// Pure numeric kernels on Tensors. Every autograd primitive wraps one of
// these. Kernels allocate their result; inputs are never mutated. The
// strided kernels (broadcasting binary ops, permute, reduce_sum_to,
// broadcast_to) walk a coalesced plan of at most 16 dims — size-1 dims
// dropped, contiguous neighbours merged — and throw std::invalid_argument
// beyond that (DESIGN.md §8 "Broadcast plans").
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace quickdrop::kernels {

/// Elementwise binary ops with NumPy-style broadcasting.
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

/// Elementwise unary ops.
Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor relu(const Tensor& a);
/// 1 where a > 0, else 0 (the ReLU mask).
Tensor gt_zero_mask(const Tensor& a);

/// Scalar ops.
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

/// Dense [M,K] x [K,N] -> [M,N] matrix product.
Tensor matmul(const Tensor& a, const Tensor& b);

/// 2-D transpose.
Tensor transpose2d(const Tensor& a);

/// General axis permutation; dims is a permutation of 0..rank-1.
Tensor permute(const Tensor& a, const std::vector<int>& dims);

/// Sums `a` down to `target_shape` (which must broadcast to a.shape()).
/// The adjoint of broadcast_to.
Tensor reduce_sum_to(const Tensor& a, const Shape& target_shape);

/// Broadcasts `a` up to `shape`. The adjoint of reduce_sum_to.
Tensor broadcast_to(const Tensor& a, const Shape& shape);

/// Unfolds x [N,C,H,W] into columns [C*k*k, N*OH*OW] for kernel size k,
/// zero padding p and stride s. OH = (H + 2p - k)/s + 1 (likewise OW).
Tensor im2col(const Tensor& x, int k, int pad, int stride);

/// Adjoint of im2col: folds columns back into an [N,C,H,W] image,
/// accumulating overlapping contributions.
Tensor col2im(const Tensor& cols, const Shape& image_shape, int k, int pad, int stride);

/// Per-row maximum of a [N,C] matrix, returned as [N,1].
Tensor row_max(const Tensor& a);

/// One-hot encodes integer labels into an [N,C] matrix.
Tensor one_hot(const std::vector<int>& labels, int num_classes);

/// Per-row argmax of a [N,C] matrix.
std::vector<int> argmax_rows(const Tensor& a);

}  // namespace quickdrop::kernels
