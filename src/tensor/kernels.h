// Numeric kernels backing the op set of both backends.
//
// Kernels are pure functions Tensor(s) -> Tensor. Elementwise binary kernels
// support full numpy-style broadcasting; sum_to_shape provides the reverse
// reduction used by gradient rules. Convolution is NHWC with explicit
// forward and backward kernels.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/random.h"

namespace rlgraph {
namespace kernels {

// --- Elementwise binary (broadcasting, float32 unless noted) ---------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);
Tensor minimum(const Tensor& a, const Tensor& b);
Tensor maximum(const Tensor& a, const Tensor& b);
// Comparisons return kBool tensors; operands may be float32 or int32.
Tensor equal(const Tensor& a, const Tensor& b);
Tensor greater(const Tensor& a, const Tensor& b);
Tensor less(const Tensor& a, const Tensor& b);
// Logical ops on kBool.
Tensor logical_and(const Tensor& a, const Tensor& b);
Tensor logical_or(const Tensor& a, const Tensor& b);
Tensor logical_not(const Tensor& a);

// --- Elementwise unary (float32) -------------------------------------------
Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor square(const Tensor& a);
Tensor abs(const Tensor& a);
Tensor relu(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor tanh(const Tensor& a);
// Numerically stable log(1 + exp(x)).
Tensor softplus(const Tensor& a);
Tensor clip(const Tensor& a, double lo, double hi);

// where(cond: bool, a, b) with broadcasting of cond against a/b.
Tensor where(const Tensor& cond, const Tensor& a, const Tensor& b);

// --- Linear algebra ---------------------------------------------------------
// a: [M, K], b: [K, N] -> [M, N]; float32.
Tensor matmul(const Tensor& a, const Tensor& b);
// 2-D transpose.
Tensor transpose2d(const Tensor& a);

// --- Convolution (NHWC) -----------------------------------------------------
// Output geometry of an NHWC convolution; the one place the conv output
// dims are derived, shared by the kernels and the ops' build-time shape
// functions. Throws ValueError on a rank or cin mismatch and, with valid
// padding, on a kernel larger than the input. The batch dim passes through
// unchanged, so an unknown batch stays unknown.
struct ConvDims {
  int64_t batch, in_h, in_w, in_c;
  int64_t kh, kw, out_c;
  int64_t out_h, out_w;
  int64_t pad_h, pad_w;  // top/left padding
};
ConvDims conv_dims(const Shape& input, const Shape& filter, int stride,
                   bool same_padding);
// input: [B, H, W, Cin], filter: [kh, kw, Cin, Cout]; "same" padding iff
// same_padding, stride >= 1. Output [B, Ho, Wo, Cout].
Tensor conv2d(const Tensor& input, const Tensor& filter, int stride,
              bool same_padding);
Tensor conv2d_backprop_input(const Shape& input_shape, const Tensor& filter,
                             const Tensor& grad_out, int stride,
                             bool same_padding);
Tensor conv2d_backprop_filter(const Tensor& input, const Shape& filter_shape,
                              const Tensor& grad_out, int stride,
                              bool same_padding);

// --- Reductions -------------------------------------------------------------
// axis == -1 means "reduce all dimensions to a scalar"; keep_dims retains a
// size-1 dimension at the reduced axis.
Tensor reduce_sum(const Tensor& a, int axis, bool keep_dims);
Tensor reduce_mean(const Tensor& a, int axis, bool keep_dims);
Tensor reduce_max(const Tensor& a, int axis, bool keep_dims);
// Sum a broadcast result back down to `target` shape (gradient of broadcast).
Tensor sum_to_shape(const Tensor& a, const Shape& target);

// --- Softmax family (last axis, float32) ------------------------------------
Tensor softmax(const Tensor& a);
Tensor log_softmax(const Tensor& a);

// --- Indexing ---------------------------------------------------------------
// argmax over the last axis -> int32 tensor with that axis removed.
Tensor argmax(const Tensor& a);
// one_hot(indices int32 [...], depth) -> float32 [..., depth].
Tensor one_hot(const Tensor& indices, int64_t depth);
// Gather rows: params [N, ...], indices int32 [M] -> [M, ...].
Tensor gather_rows(const Tensor& params, const Tensor& indices);
// Batched column select: values [B, N], indices int32 [B] -> [B].
Tensor select_columns(const Tensor& values, const Tensor& indices);

// --- Shape manipulation ------------------------------------------------------
Tensor concat(const std::vector<Tensor>& parts, int axis);
std::vector<Tensor> split(const Tensor& t, int axis,
                          const std::vector<int64_t>& sizes);
// slice along axis 0: rows [begin, begin+size).
Tensor slice_rows(const Tensor& t, int64_t begin, int64_t size);
// Stack rank-R tensors into rank R+1 along a new axis 0.
Tensor stack_rows(const std::vector<Tensor>& parts);

// --- Random ------------------------------------------------------------------
Tensor random_uniform(const Shape& shape, double lo, double hi, Rng& rng);
Tensor random_normal(const Shape& shape, double mean, double stddev, Rng& rng);
// Random integers in [0, n) as int32.
Tensor random_int(const Shape& shape, int64_t n, Rng& rng);

// --- Fused composites --------------------------------------------------------
// The pattern-fusion pass lowers MatMul+AddBias(+activation) and
// Conv2D+AddBias(+activation) onto these. They run the standalone matmul /
// conv2d loop with a bias + activation epilogue on each shard's own output
// rows (pixels), so results are bitwise identical to the unfused op
// sequence at any thread count by construction.
enum class FusedActivation { kNone = 0, kRelu = 1, kTanh = 2, kSigmoid = 3 };
FusedActivation fused_activation_from_string(const std::string& name);
// x: [M, K], w: [K, N], bias: [N] -> act(x @ w + bias), float32.
Tensor fused_dense(const Tensor& x, const Tensor& w, const Tensor& bias,
                   FusedActivation act);
// NHWC conv + per-channel bias [Cout] + activation.
Tensor fused_conv2d(const Tensor& input, const Tensor& filter,
                    const Tensor& bias, int stride, bool same_padding,
                    FusedActivation act);

// One link of a fused elementwise chain: a unary map, or a binary op
// combining the running value with `extras[extra]` (which broadcasts into
// the chain shape; stride-0 iteration on broadcast dimensions).
struct EwiseLink {
  std::string op;          // "Relu", "Add", ...
  bool binary = false;
  bool chain_left = true;  // binary: running value is the left operand
  int extra = -1;          // binary: index into `extras`
};
Tensor fused_elementwise(const Tensor& x, const std::vector<Tensor>& extras,
                         const std::vector<EwiseLink>& links);

// --- Misc --------------------------------------------------------------------
Tensor cast(const Tensor& a, DType target);

}  // namespace kernels
}  // namespace rlgraph
