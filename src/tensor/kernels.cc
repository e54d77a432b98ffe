#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/thread_pool.h"

namespace rlgraph {
namespace kernels {

namespace {

// --- intra-op sharding -------------------------------------------------------
//
// Grain sizes are the cost thresholds of the parallel_for cost model:
// elements (or flops) per shard below which forking is not worth a wakeup.
// Every sharded kernel writes disjoint output ranges per shard (or combines
// per-shard partials in a fixed tree), so parallel results are bitwise
// identical to the serial path at any thread count.
constexpr int64_t kCheapGrain = 1 << 14;  // streaming arithmetic: add, relu
constexpr int64_t kMathGrain = 1 << 12;   // transcendental maps: exp, tanh
constexpr int64_t kGrainFlops = 1 << 16;  // matmul/conv: flops per shard

// Serial ops skip the type-erased dispatch entirely: a single shard is
// bitwise identical to the unsharded loop for disjoint-write bodies.
template <typename Body>
void shard_range(int64_t grain, int64_t n, Body&& body) {
  if (n <= 0) return;
  if (n <= grain || global_parallelism() <= 1) {
    body(int64_t{0}, n);
    return;
  }
  parallel_for(grain, n, std::forward<Body>(body));
}

// Rows-of-work variant: `cost` is the per-row work estimate used to derive
// the grain so that one shard carries at least kGrainFlops worth of work.
inline int64_t rows_grain(int64_t flops_per_row) {
  return std::max<int64_t>(1, kGrainFlops / std::max<int64_t>(1, flops_per_row));
}

// Per-element op functors, one definition per op. The standalone kernels
// inline them into their loops; the fused kernels' activation epilogues and
// chain links call the same definitions, so fused results are bitwise
// identical to the unfused op sequence.
struct AddOp {
  template <typename T> T operator()(T x, T y) const { return x + y; }
};
struct SubOp {
  template <typename T> T operator()(T x, T y) const { return x - y; }
};
struct MulOp {
  template <typename T> T operator()(T x, T y) const { return x * y; }
};
struct DivOp {
  template <typename T> T operator()(T x, T y) const { return x / y; }
};
struct MinimumOp {
  template <typename T> T operator()(T x, T y) const { return x < y ? x : y; }
};
struct MaximumOp {
  template <typename T> T operator()(T x, T y) const { return x > y ? x : y; }
};
struct NegOp {
  float operator()(float x) const { return -x; }
};
struct ExpOp {
  float operator()(float x) const { return std::exp(x); }
};
struct LogOp {
  float operator()(float x) const { return std::log(x); }
};
struct SqrtOp {
  float operator()(float x) const { return std::sqrt(x); }
};
struct SquareOp {
  float operator()(float x) const { return x * x; }
};
struct AbsOp {
  float operator()(float x) const { return std::fabs(x); }
};
struct ReluOp {
  float operator()(float x) const { return x > 0.0f ? x : 0.0f; }
};
struct SigmoidOp {
  float operator()(float x) const { return 1.0f / (1.0f + std::exp(-x)); }
};
struct TanhOp {
  float operator()(float x) const { return std::tanh(x); }
};

// Iterator state for broadcasting: maps a flat output index to flat input
// indices given per-input strides (stride 0 on broadcast dimensions).
struct BroadcastPlan {
  Shape out_shape;
  std::vector<int64_t> a_strides;
  std::vector<int64_t> b_strides;
};

std::vector<int64_t> contiguous_strides(const Shape& s) {
  std::vector<int64_t> strides(static_cast<size_t>(s.rank()));
  int64_t acc = 1;
  for (int i = s.rank() - 1; i >= 0; --i) {
    strides[static_cast<size_t>(i)] = acc;
    acc *= s.dim(i);
  }
  return strides;
}

BroadcastPlan make_plan(const Shape& a, const Shape& b) {
  BroadcastPlan plan;
  plan.out_shape = broadcast_shapes(a, b);
  RLG_REQUIRE(plan.out_shape.fully_specified(),
              "broadcast of partial shapes at runtime");
  int rank = plan.out_shape.rank();
  auto as = contiguous_strides(a);
  auto bs = contiguous_strides(b);
  plan.a_strides.assign(static_cast<size_t>(rank), 0);
  plan.b_strides.assign(static_cast<size_t>(rank), 0);
  for (int i = 0; i < rank; ++i) {
    int ai = a.rank() - rank + i;
    int bi = b.rank() - rank + i;
    if (ai >= 0 && a.dim(ai) != 1) {
      plan.a_strides[static_cast<size_t>(i)] = as[static_cast<size_t>(ai)];
    }
    if (bi >= 0 && b.dim(bi) != 1) {
      plan.b_strides[static_cast<size_t>(i)] = bs[static_cast<size_t>(bi)];
    }
  }
  return plan;
}

// Apply binary fn elementwise with broadcasting; Fa/Fb are input element
// types, Fo is the output element type.
template <typename Fa, typename Fo, typename Fn>
Tensor binary_broadcast(const Tensor& a, const Tensor& b, DType out_dtype,
                        Fn fn) {
  if (a.shape() == b.shape()) {
    // Fast path: no index arithmetic; shards write disjoint output ranges.
    Tensor out(out_dtype, a.shape());
    const Fa* pa = a.data<Fa>();
    const Fa* pb = b.data<Fa>();
    Fo* po = out.mutable_data<Fo>();
    shard_range(kCheapGrain, a.num_elements(),
                [pa, pb, po, fn](int64_t begin, int64_t end) {
                  for (int64_t i = begin; i < end; ++i) {
                    po[i] = fn(pa[i], pb[i]);
                  }
                });
    return out;
  }
  BroadcastPlan plan = make_plan(a.shape(), b.shape());
  Tensor out(out_dtype, plan.out_shape);
  const Fa* pa = a.data<Fa>();
  const Fa* pb = b.data<Fa>();
  Fo* po = out.mutable_data<Fo>();
  int rank = plan.out_shape.rank();
  int64_t n = plan.out_shape.num_elements();
  // Each shard seeds its odometer (and the two strided input cursors) from
  // its first flat index, then walks its range exactly like the serial loop.
  shard_range(kCheapGrain, n, [&plan, pa, pb, po, fn, rank](int64_t begin,
                                                           int64_t end) {
    std::vector<int64_t> idx(static_cast<size_t>(rank), 0);
    int64_t ia = 0, ib = 0;
    int64_t rem = begin;
    for (int d = rank - 1; d >= 0; --d) {
      auto du = static_cast<size_t>(d);
      idx[du] = rem % plan.out_shape.dim(d);
      rem /= plan.out_shape.dim(d);
      ia += idx[du] * plan.a_strides[du];
      ib += idx[du] * plan.b_strides[du];
    }
    for (int64_t flat = begin; flat < end; ++flat) {
      po[flat] = fn(pa[ia], pb[ib]);
      // Odometer increment.
      for (int d = rank - 1; d >= 0; --d) {
        auto du = static_cast<size_t>(d);
        ++idx[du];
        ia += plan.a_strides[du];
        ib += plan.b_strides[du];
        if (idx[du] < plan.out_shape.dim(d)) break;
        ia -= plan.a_strides[du] * idx[du];
        ib -= plan.b_strides[du] * idx[du];
        idx[du] = 0;
      }
    }
  });
  return out;
}

template <typename Fn>
Tensor binary_numeric(const Tensor& a, const Tensor& b, Fn fn,
                      const char* op) {
  RLG_REQUIRE(a.dtype() == b.dtype(), op << ": dtype mismatch "
                                         << dtype_name(a.dtype()) << " vs "
                                         << dtype_name(b.dtype()));
  if (a.dtype() == DType::kFloat32) {
    return binary_broadcast<float, float>(a, b, DType::kFloat32, fn);
  }
  if (a.dtype() == DType::kInt32) {
    return binary_broadcast<int32_t, int32_t>(a, b, DType::kInt32, fn);
  }
  throw ValueError(std::string(op) + ": unsupported dtype " +
                   dtype_name(a.dtype()));
}

template <typename Fn>
Tensor compare(const Tensor& a, const Tensor& b, Fn fn, const char* op) {
  RLG_REQUIRE(a.dtype() == b.dtype(), op << ": dtype mismatch");
  if (a.dtype() == DType::kFloat32) {
    return binary_broadcast<float, uint8_t>(a, b, DType::kBool, fn);
  }
  if (a.dtype() == DType::kInt32) {
    return binary_broadcast<int32_t, uint8_t>(a, b, DType::kBool, fn);
  }
  throw ValueError(std::string(op) + ": unsupported dtype");
}

template <typename Fn>
Tensor unary_float(const Tensor& a, Fn fn, const char* op) {
  check_dtype(a, DType::kFloat32, op);
  Tensor out(DType::kFloat32, a.shape());
  const float* pa = a.data<float>();
  float* po = out.mutable_data<float>();
  shard_range(kMathGrain, a.num_elements(),
              [pa, po, fn](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) po[i] = fn(pa[i]);
              });
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_numeric(a, b, AddOp{}, "add");
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_numeric(a, b, SubOp{}, "sub");
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_numeric(a, b, MulOp{}, "mul");
}

Tensor div(const Tensor& a, const Tensor& b) {
  return binary_numeric(a, b, DivOp{}, "div");
}

Tensor minimum(const Tensor& a, const Tensor& b) {
  return binary_numeric(a, b, MinimumOp{}, "minimum");
}

Tensor maximum(const Tensor& a, const Tensor& b) {
  return binary_numeric(a, b, MaximumOp{}, "maximum");
}

Tensor equal(const Tensor& a, const Tensor& b) {
  return compare(
      a, b, [](auto x, auto y) -> uint8_t { return x == y ? 1 : 0; }, "equal");
}

Tensor greater(const Tensor& a, const Tensor& b) {
  return compare(
      a, b, [](auto x, auto y) -> uint8_t { return x > y ? 1 : 0; },
      "greater");
}

Tensor less(const Tensor& a, const Tensor& b) {
  return compare(
      a, b, [](auto x, auto y) -> uint8_t { return x < y ? 1 : 0; }, "less");
}

Tensor logical_and(const Tensor& a, const Tensor& b) {
  check_dtype(a, DType::kBool, "logical_and");
  check_dtype(b, DType::kBool, "logical_and");
  return binary_broadcast<uint8_t, uint8_t>(
      a, b, DType::kBool,
      [](uint8_t x, uint8_t y) -> uint8_t { return (x && y) ? 1 : 0; });
}

Tensor logical_or(const Tensor& a, const Tensor& b) {
  check_dtype(a, DType::kBool, "logical_or");
  check_dtype(b, DType::kBool, "logical_or");
  return binary_broadcast<uint8_t, uint8_t>(
      a, b, DType::kBool,
      [](uint8_t x, uint8_t y) -> uint8_t { return (x || y) ? 1 : 0; });
}

Tensor logical_not(const Tensor& a) {
  check_dtype(a, DType::kBool, "logical_not");
  Tensor out(DType::kBool, a.shape());
  const uint8_t* pa = a.data<uint8_t>();
  uint8_t* po = out.mutable_data<uint8_t>();
  for (int64_t i = 0; i < a.num_elements(); ++i) po[i] = pa[i] ? 0 : 1;
  return out;
}

Tensor neg(const Tensor& a) { return unary_float(a, NegOp{}, "neg"); }
Tensor exp(const Tensor& a) { return unary_float(a, ExpOp{}, "exp"); }
Tensor log(const Tensor& a) { return unary_float(a, LogOp{}, "log"); }
Tensor sqrt(const Tensor& a) { return unary_float(a, SqrtOp{}, "sqrt"); }
Tensor square(const Tensor& a) { return unary_float(a, SquareOp{}, "square"); }
Tensor abs(const Tensor& a) { return unary_float(a, AbsOp{}, "abs"); }
Tensor relu(const Tensor& a) { return unary_float(a, ReluOp{}, "relu"); }
Tensor sigmoid(const Tensor& a) {
  return unary_float(a, SigmoidOp{}, "sigmoid");
}
Tensor tanh(const Tensor& a) { return unary_float(a, TanhOp{}, "tanh"); }
Tensor softplus(const Tensor& a) {
  // max(x, 0) + log1p(exp(-|x|)): never overflows, and keeps full float
  // precision for large |x| where the naive log(1 + exp(x)) saturates.
  return unary_float(
      a,
      [](float x) {
        return std::max(x, 0.0f) + std::log1p(std::exp(-std::abs(x)));
      },
      "softplus");
}
Tensor clip(const Tensor& a, double lo, double hi) {
  float flo = static_cast<float>(lo);
  float fhi = static_cast<float>(hi);
  return unary_float(
      a, [flo, fhi](float x) { return std::min(fhi, std::max(flo, x)); },
      "clip");
}

Tensor where(const Tensor& cond, const Tensor& a, const Tensor& b) {
  check_dtype(cond, DType::kBool, "where");
  check_same_shape(a, b, "where");
  RLG_REQUIRE(a.dtype() == b.dtype(), "where: branch dtype mismatch");
  // Broadcast cond against value shape: cond either matches exactly or
  // matches the leading dimensions of a (per-row select).
  Tensor out(a.dtype(), a.shape());
  const uint8_t* pc = cond.data<uint8_t>();
  int64_t n = a.num_elements();
  int64_t cn = cond.num_elements();
  RLG_REQUIRE(cn > 0 && n % cn == 0,
              "where: cond shape " << cond.shape().to_string()
                                   << " incompatible with "
                                   << a.shape().to_string());
  int64_t inner = n / cn;
  size_t esize = dtype_size(a.dtype());
  const auto* pa = static_cast<const uint8_t*>(a.raw());
  const auto* pb = static_cast<const uint8_t*>(b.raw());
  auto* po = static_cast<uint8_t*>(out.mutable_raw());
  shard_range(rows_grain(inner), cn,
              [pc, pa, pb, po, inner, esize](int64_t c0, int64_t c1) {
                for (int64_t c = c0; c < c1; ++c) {
                  const uint8_t* src = pc[c] ? pa : pb;
                  std::memcpy(po + static_cast<size_t>(c * inner) * esize,
                              src + static_cast<size_t>(c * inner) * esize,
                              static_cast<size_t>(inner) * esize);
                }
              });
  return out;
}

namespace {
// Row-sharded a @ b. `epilogue(orow)` runs on each of the shard's own
// output rows once that row's accumulation over all of k is complete, so a
// fused bias/activation sees exactly the values the standalone matmul
// returns.
template <typename Epilogue>
Tensor matmul_with(const Tensor& a, const Tensor& b, const char* op,
                   Epilogue epilogue) {
  check_dtype(a, DType::kFloat32, op);
  check_dtype(b, DType::kFloat32, op);
  RLG_REQUIRE(a.shape().rank() == 2 && b.shape().rank() == 2,
              op << " requires rank-2 operands, got " << a.shape().to_string()
                 << " x " << b.shape().to_string());
  int64_t m = a.shape().dim(0), k = a.shape().dim(1);
  int64_t k2 = b.shape().dim(0), n = b.shape().dim(1);
  RLG_REQUIRE(k == k2, op << " inner dims mismatch: " << k << " vs " << k2);
  Tensor out = Tensor::zeros(DType::kFloat32, Shape{m, n});
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* po = out.mutable_data<float>();
  // Shard over output rows (disjoint writes); within a shard, block the k
  // dimension so the touched rows of b stay cache-resident, keeping the ikj
  // inner order. Per output element the accumulation still runs over k in
  // ascending order, so results are bitwise identical at any thread count.
  constexpr int64_t kKBlock = 256;
  shard_range(rows_grain(2 * k * n), m,
              [pa, pb, po, k, n, &epilogue](int64_t r0, int64_t r1) {
                for (int64_t kb = 0; kb < k; kb += kKBlock) {
                  int64_t ke = std::min(k, kb + kKBlock);
                  for (int64_t i = r0; i < r1; ++i) {
                    const float* arow = pa + i * k;
                    float* orow = po + i * n;
                    for (int64_t kk = kb; kk < ke; ++kk) {
                      float av = arow[kk];
                      if (av == 0.0f) continue;
                      const float* brow = pb + kk * n;
                      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
                    }
                  }
                }
                for (int64_t i = r0; i < r1; ++i) epilogue(po + i * n);
              });
  return out;
}
}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  return matmul_with(a, b, "matmul", [](float*) {});
}

Tensor transpose2d(const Tensor& a) {
  check_dtype(a, DType::kFloat32, "transpose2d");
  RLG_REQUIRE(a.shape().rank() == 2, "transpose2d requires rank 2");
  int64_t m = a.shape().dim(0), n = a.shape().dim(1);
  Tensor out(DType::kFloat32, Shape{n, m});
  const float* pa = a.data<float>();
  float* po = out.mutable_data<float>();
  // Blocked transpose: both the reads (pa rows) and the column-strided
  // writes (po) stay within one kTile x kTile block that fits in L1, instead
  // of striding the full output column per element. Shards take disjoint
  // row ranges of the input.
  constexpr int64_t kTile = 32;
  shard_range(rows_grain(n), m, [pa, po, m, n](int64_t r0, int64_t r1) {
    for (int64_t i0 = r0; i0 < r1; i0 += kTile) {
      int64_t i1 = std::min(r1, i0 + kTile);
      for (int64_t j0 = 0; j0 < n; j0 += kTile) {
        int64_t j1 = std::min(n, j0 + kTile);
        for (int64_t j = j0; j < j1; ++j) {
          for (int64_t i = i0; i < i1; ++i) po[j * m + i] = pa[i * n + j];
        }
      }
    }
  });
  return out;
}

ConvDims conv_dims(const Shape& input, const Shape& filter, int stride,
                   bool same_padding) {
  RLG_REQUIRE(input.rank() == 4 && filter.rank() == 4,
              "conv2d expects NHWC input and [kh,kw,cin,cout] filter");
  ConvDims d;
  d.batch = input.dim(0);
  d.in_h = input.dim(1);
  d.in_w = input.dim(2);
  d.in_c = input.dim(3);
  d.kh = filter.dim(0);
  d.kw = filter.dim(1);
  RLG_REQUIRE(filter.dim(2) == d.in_c, "conv2d filter cin mismatch");
  d.out_c = filter.dim(3);
  if (same_padding) {
    d.out_h = (d.in_h + stride - 1) / stride;
    d.out_w = (d.in_w + stride - 1) / stride;
    int64_t pad_total_h =
        std::max<int64_t>(0, (d.out_h - 1) * stride + d.kh - d.in_h);
    int64_t pad_total_w =
        std::max<int64_t>(0, (d.out_w - 1) * stride + d.kw - d.in_w);
    d.pad_h = pad_total_h / 2;
    d.pad_w = pad_total_w / 2;
  } else {
    RLG_REQUIRE(d.in_h >= d.kh && d.in_w >= d.kw,
                "conv2d valid padding: kernel larger than input");
    d.out_h = (d.in_h - d.kh) / stride + 1;
    d.out_w = (d.in_w - d.kw) / stride + 1;
    d.pad_h = 0;
    d.pad_w = 0;
  }
  return d;
}

namespace {
// Shards over batch x out_h: every (b, oh) pair owns a disjoint slice of the
// output, and the per-pixel accumulation order is fixed, so the result is
// bitwise identical to the serial loop. `epilogue(opix)` runs on each of the
// shard's own output pixels (out_c values) right after its accumulation.
template <typename Epilogue>
Tensor conv2d_with(const Tensor& input, const Tensor& filter, int stride,
                   const ConvDims& d, const char* op, Epilogue epilogue) {
  check_dtype(input, DType::kFloat32, op);
  check_dtype(filter, DType::kFloat32, op);
  Tensor out =
      Tensor::zeros(DType::kFloat32, Shape{d.batch, d.out_h, d.out_w, d.out_c});
  const float* pi = input.data<float>();
  const float* pf = filter.data<float>();
  float* po = out.mutable_data<float>();
  int64_t conv_row_flops = 2 * d.out_w * d.kh * d.kw * d.in_c * d.out_c;
  shard_range(rows_grain(conv_row_flops), d.batch * d.out_h,
              [&d, &epilogue, pi, pf, po, stride](int64_t row0, int64_t row1) {
    for (int64_t row = row0; row < row1; ++row) {
      int64_t b = row / d.out_h;
      int64_t oh = row % d.out_h;
      for (int64_t ow = 0; ow < d.out_w; ++ow) {
        float* opix = po + ((b * d.out_h + oh) * d.out_w + ow) * d.out_c;
        for (int64_t fh = 0; fh < d.kh; ++fh) {
          int64_t ih = oh * stride + fh - d.pad_h;
          if (ih < 0 || ih >= d.in_h) continue;
          for (int64_t fw = 0; fw < d.kw; ++fw) {
            int64_t iw = ow * stride + fw - d.pad_w;
            if (iw < 0 || iw >= d.in_w) continue;
            const float* ipix = pi + ((b * d.in_h + ih) * d.in_w + iw) * d.in_c;
            const float* fpix = pf + (fh * d.kw + fw) * d.in_c * d.out_c;
            for (int64_t c = 0; c < d.in_c; ++c) {
              float iv = ipix[c];
              if (iv == 0.0f) continue;
              const float* frow = fpix + c * d.out_c;
              for (int64_t oc = 0; oc < d.out_c; ++oc) {
                opix[oc] += iv * frow[oc];
              }
            }
          }
        }
        epilogue(opix);
      }
    }
  });
  return out;
}
}  // namespace

Tensor conv2d(const Tensor& input, const Tensor& filter, int stride,
              bool same_padding) {
  ConvDims d = conv_dims(input.shape(), filter.shape(), stride, same_padding);
  return conv2d_with(input, filter, stride, d, "conv2d", [](float*) {});
}

Tensor conv2d_backprop_input(const Shape& input_shape, const Tensor& filter,
                             const Tensor& grad_out, int stride,
                             bool same_padding) {
  ConvDims d = conv_dims(input_shape, filter.shape(), stride, same_padding);
  Tensor grad_in = Tensor::zeros(DType::kFloat32, input_shape);
  const float* pf = filter.data<float>();
  const float* pg = grad_out.data<float>();
  float* po = grad_in.mutable_data<float>();
  // Output rows (oh) with stride < kernel height scatter into overlapping
  // input rows, so the finest race-free shard is one batch image.
  int64_t image_flops = 2 * d.out_h * d.out_w * d.kh * d.kw * d.in_c * d.out_c;
  shard_range(rows_grain(image_flops), d.batch,
              [&d, pf, pg, po, stride](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
    for (int64_t oh = 0; oh < d.out_h; ++oh) {
      for (int64_t ow = 0; ow < d.out_w; ++ow) {
        const float* gpix = pg + ((b * d.out_h + oh) * d.out_w + ow) * d.out_c;
        for (int64_t fh = 0; fh < d.kh; ++fh) {
          int64_t ih = oh * stride + fh - d.pad_h;
          if (ih < 0 || ih >= d.in_h) continue;
          for (int64_t fw = 0; fw < d.kw; ++fw) {
            int64_t iw = ow * stride + fw - d.pad_w;
            if (iw < 0 || iw >= d.in_w) continue;
            float* ipix = po + ((b * d.in_h + ih) * d.in_w + iw) * d.in_c;
            const float* fpix = pf + (fh * d.kw + fw) * d.in_c * d.out_c;
            for (int64_t c = 0; c < d.in_c; ++c) {
              const float* frow = fpix + c * d.out_c;
              float acc = 0.0f;
              for (int64_t oc = 0; oc < d.out_c; ++oc) {
                acc += gpix[oc] * frow[oc];
              }
              ipix[c] += acc;
            }
          }
        }
      }
    }
    }
  });
  return grad_in;
}

Tensor conv2d_backprop_filter(const Tensor& input, const Shape& filter_shape,
                              const Tensor& grad_out, int stride,
                              bool same_padding) {
  ConvDims d = conv_dims(input.shape(), filter_shape, stride, same_padding);
  const float* pi = input.data<float>();
  const float* pg = grad_out.data<float>();
  // Every batch image scatters into the whole filter, so shards accumulate
  // private partial gradients over disjoint batch ranges, combined below in
  // a fixed pairwise tree — shard boundaries and tree shape depend only on
  // the problem size, never the thread count.
  auto accumulate = [&d, pi, pg, stride](float* po, int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      for (int64_t oh = 0; oh < d.out_h; ++oh) {
        for (int64_t ow = 0; ow < d.out_w; ++ow) {
          const float* gpix =
              pg + ((b * d.out_h + oh) * d.out_w + ow) * d.out_c;
          for (int64_t fh = 0; fh < d.kh; ++fh) {
            int64_t ih = oh * stride + fh - d.pad_h;
            if (ih < 0 || ih >= d.in_h) continue;
            for (int64_t fw = 0; fw < d.kw; ++fw) {
              int64_t iw = ow * stride + fw - d.pad_w;
              if (iw < 0 || iw >= d.in_w) continue;
              const float* ipix =
                  pi + ((b * d.in_h + ih) * d.in_w + iw) * d.in_c;
              float* fpix = po + (fh * d.kw + fw) * d.in_c * d.out_c;
              for (int64_t c = 0; c < d.in_c; ++c) {
                float iv = ipix[c];
                if (iv == 0.0f) continue;
                float* frow = fpix + c * d.out_c;
                for (int64_t oc = 0; oc < d.out_c; ++oc) {
                  frow[oc] += iv * gpix[oc];
                }
              }
            }
          }
        }
      }
    }
  };

  int64_t image_flops = 2 * d.out_h * d.out_w * d.kh * d.kw * d.in_c * d.out_c;
  ShardBounds sb = shard_bounds(rows_grain(image_flops), d.batch);
  if (sb.num_shards <= 1) {
    Tensor grad_f = Tensor::zeros(DType::kFloat32, filter_shape);
    accumulate(grad_f.mutable_data<float>(), 0, d.batch);
    return grad_f;
  }
  std::vector<Tensor> partials(static_cast<size_t>(sb.num_shards));
  parallel_shards(rows_grain(image_flops), d.batch,
                  [&](int64_t shard, int64_t b0, int64_t b1) {
                    Tensor p = Tensor::zeros(DType::kFloat32, filter_shape);
                    accumulate(p.mutable_data<float>(), b0, b1);
                    partials[static_cast<size_t>(shard)] = std::move(p);
                  });
  int64_t filter_elems = partials[0].num_elements();
  for (int64_t step = 1; step < sb.num_shards; step *= 2) {
    for (int64_t i = 0; i + step < sb.num_shards; i += 2 * step) {
      float* dst = partials[static_cast<size_t>(i)].mutable_data<float>();
      const float* src = partials[static_cast<size_t>(i + step)].data<float>();
      for (int64_t e = 0; e < filter_elems; ++e) dst[e] += src[e];
    }
  }
  return partials[0];
}

namespace {
// Generic reduction over one axis (or all). Combine must be associative.
template <typename Fn>
Tensor reduce(const Tensor& a, int axis, bool keep_dims, float init, Fn fn,
              bool mean) {
  check_dtype(a, DType::kFloat32, "reduce");
  const float* pa = a.data<float>();
  if (axis == -1) {
    // Full reduction: per-shard linear folds combined in a fixed pairwise
    // tree. Shard boundaries depend only on the element count, so the
    // result is bitwise identical at any thread count (a single shard is
    // exactly the classic serial fold).
    int64_t n = a.num_elements();
    ShardBounds sb = shard_bounds(kCheapGrain, n);
    float acc = init;
    if (sb.num_shards <= 1) {
      for (int64_t i = 0; i < n; ++i) acc = fn(acc, pa[i]);
    } else {
      std::vector<float> partials(static_cast<size_t>(sb.num_shards), init);
      parallel_shards(kCheapGrain, n,
                      [&partials, pa, init, fn](int64_t shard, int64_t begin,
                                                int64_t end) {
                        float p = init;
                        for (int64_t i = begin; i < end; ++i) p = fn(p, pa[i]);
                        partials[static_cast<size_t>(shard)] = p;
                      });
      for (int64_t step = 1; step < sb.num_shards; step *= 2) {
        for (int64_t i = 0; i + step < sb.num_shards; i += 2 * step) {
          partials[static_cast<size_t>(i)] =
              fn(partials[static_cast<size_t>(i)],
                 partials[static_cast<size_t>(i + step)]);
        }
      }
      acc = partials[0];
    }
    if (mean && n > 0) {
      acc /= static_cast<float>(n);
    }
    if (!keep_dims) return Tensor::scalar(acc);
    std::vector<int64_t> dims(static_cast<size_t>(a.shape().rank()), 1);
    return Tensor::filled(DType::kFloat32, Shape(dims), acc);
  }
  RLG_REQUIRE(axis >= 0 && axis < a.shape().rank(),
              "reduce axis " << axis << " out of range for "
                             << a.shape().to_string());
  int64_t outer = 1, inner = 1;
  int64_t extent = a.shape().dim(axis);
  for (int i = 0; i < axis; ++i) outer *= a.shape().dim(i);
  for (int i = axis + 1; i < a.shape().rank(); ++i) inner *= a.shape().dim(i);
  std::vector<int64_t> out_dims;
  for (int i = 0; i < a.shape().rank(); ++i) {
    if (i == axis) {
      if (keep_dims) out_dims.push_back(1);
    } else {
      out_dims.push_back(a.shape().dim(i));
    }
  }
  Tensor out(DType::kFloat32, Shape(out_dims));
  float* po = out.mutable_data<float>();
  // Axis reduction: every output element folds its own extent, so sharding
  // over the flat output index writes disjoint ranges and is trivially
  // bitwise-stable.
  shard_range(rows_grain(extent), outer * inner,
              [pa, po, inner, extent, init, fn, mean](int64_t t0, int64_t t1) {
                for (int64_t t = t0; t < t1; ++t) {
                  int64_t o = t / inner;
                  int64_t in = t % inner;
                  float acc = init;
                  for (int64_t e = 0; e < extent; ++e) {
                    acc = fn(acc, pa[(o * extent + e) * inner + in]);
                  }
                  if (mean && extent > 0) acc /= static_cast<float>(extent);
                  po[t] = acc;
                }
              });
  return out;
}
}  // namespace

Tensor reduce_sum(const Tensor& a, int axis, bool keep_dims) {
  return reduce(
      a, axis, keep_dims, 0.0f, [](float acc, float v) { return acc + v; },
      /*mean=*/false);
}

Tensor reduce_mean(const Tensor& a, int axis, bool keep_dims) {
  return reduce(
      a, axis, keep_dims, 0.0f, [](float acc, float v) { return acc + v; },
      /*mean=*/true);
}

Tensor reduce_max(const Tensor& a, int axis, bool keep_dims) {
  return reduce(
      a, axis, keep_dims, -std::numeric_limits<float>::infinity(),
      [](float acc, float v) { return v > acc ? v : acc; }, /*mean=*/false);
}

Tensor sum_to_shape(const Tensor& a, const Shape& target) {
  if (a.shape() == target) return a;
  check_dtype(a, DType::kFloat32, "sum_to_shape");
  RLG_REQUIRE(target.fully_specified(), "sum_to_shape needs concrete target");
  // Reduce leading extra dims, then any dims where target is 1.
  Tensor cur = a;
  while (cur.shape().rank() > target.rank()) {
    cur = reduce_sum(cur, 0, /*keep_dims=*/false);
  }
  for (int i = 0; i < target.rank(); ++i) {
    if (target.dim(i) == 1 && cur.shape().dim(i) != 1) {
      cur = reduce_sum(cur, i, /*keep_dims=*/true);
    }
  }
  RLG_REQUIRE(cur.shape() == target, "sum_to_shape: cannot reduce "
                                         << a.shape().to_string() << " to "
                                         << target.to_string());
  return cur;
}

Tensor softmax(const Tensor& a) {
  check_dtype(a, DType::kFloat32, "softmax");
  RLG_REQUIRE(a.shape().rank() >= 1, "softmax requires rank >= 1");
  int64_t cols = a.shape().dim(a.shape().rank() - 1);
  int64_t rows = a.num_elements() / cols;
  Tensor out(DType::kFloat32, a.shape());
  const float* pa = a.data<float>();
  float* po = out.mutable_data<float>();
  shard_range(rows_grain(cols), rows, [pa, po, cols](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* row = pa + r * cols;
      float* orow = po + r * cols;
      float mx = row[0];
      for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
      float sum = 0.0f;
      for (int64_t c = 0; c < cols; ++c) {
        orow[c] = std::exp(row[c] - mx);
        sum += orow[c];
      }
      for (int64_t c = 0; c < cols; ++c) orow[c] /= sum;
    }
  });
  return out;
}

Tensor log_softmax(const Tensor& a) {
  check_dtype(a, DType::kFloat32, "log_softmax");
  int64_t cols = a.shape().dim(a.shape().rank() - 1);
  int64_t rows = a.num_elements() / cols;
  Tensor out(DType::kFloat32, a.shape());
  const float* pa = a.data<float>();
  float* po = out.mutable_data<float>();
  shard_range(rows_grain(cols), rows, [pa, po, cols](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* row = pa + r * cols;
      float* orow = po + r * cols;
      float mx = row[0];
      for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
      float sum = 0.0f;
      for (int64_t c = 0; c < cols; ++c) sum += std::exp(row[c] - mx);
      float lse = mx + std::log(sum);
      for (int64_t c = 0; c < cols; ++c) orow[c] = row[c] - lse;
    }
  });
  return out;
}

Tensor argmax(const Tensor& a) {
  check_dtype(a, DType::kFloat32, "argmax");
  RLG_REQUIRE(a.shape().rank() >= 1, "argmax requires rank >= 1");
  int64_t cols = a.shape().dim(a.shape().rank() - 1);
  int64_t rows = a.num_elements() / cols;
  Shape out_shape = a.shape().drop_front(0);
  // Remove last dim.
  std::vector<int64_t> dims(a.shape().dims().begin(),
                            a.shape().dims().end() - 1);
  Tensor out(DType::kInt32, Shape(dims));
  const float* pa = a.data<float>();
  int32_t* po = out.mutable_data<int32_t>();
  shard_range(rows_grain(cols), rows, [pa, po, cols](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* row = pa + r * cols;
      int64_t best = 0;
      for (int64_t c = 1; c < cols; ++c) {
        if (row[c] > row[best]) best = c;
      }
      po[r] = static_cast<int32_t>(best);
    }
  });
  return out;
}

Tensor one_hot(const Tensor& indices, int64_t depth) {
  check_dtype(indices, DType::kInt32, "one_hot");
  Shape out_shape = indices.shape().concat(Shape{depth});
  Tensor out = Tensor::zeros(DType::kFloat32, out_shape);
  const int32_t* pi = indices.data<int32_t>();
  float* po = out.mutable_data<float>();
  for (int64_t i = 0; i < indices.num_elements(); ++i) {
    int32_t idx = pi[i];
    RLG_REQUIRE(idx >= 0 && idx < depth,
                "one_hot index " << idx << " out of range [0, " << depth
                                 << ")");
    po[i * depth + idx] = 1.0f;
  }
  return out;
}

Tensor gather_rows(const Tensor& params, const Tensor& indices) {
  check_dtype(indices, DType::kInt32, "gather_rows");
  RLG_REQUIRE(params.shape().rank() >= 1, "gather_rows requires rank >= 1");
  RLG_REQUIRE(indices.shape().rank() == 1, "gather_rows indices must be 1-D");
  int64_t n = params.shape().dim(0);
  int64_t row_elems = params.num_elements() / std::max<int64_t>(n, 1);
  size_t row_bytes = static_cast<size_t>(row_elems) * dtype_size(params.dtype());
  Shape out_shape =
      Shape{indices.shape().dim(0)}.concat(params.shape().drop_front(1));
  Tensor out(params.dtype(), out_shape);
  const int32_t* pi = indices.data<int32_t>();
  const auto* pp = static_cast<const uint8_t*>(params.raw());
  auto* po = static_cast<uint8_t*>(out.mutable_raw());
  for (int64_t i = 0; i < indices.num_elements(); ++i) {
    int32_t idx = pi[i];
    RLG_REQUIRE(idx >= 0 && idx < n, "gather_rows index out of range");
    std::memcpy(po + static_cast<size_t>(i) * row_bytes,
                pp + static_cast<size_t>(idx) * row_bytes, row_bytes);
  }
  return out;
}

Tensor select_columns(const Tensor& values, const Tensor& indices) {
  check_dtype(values, DType::kFloat32, "select_columns");
  check_dtype(indices, DType::kInt32, "select_columns");
  RLG_REQUIRE(values.shape().rank() == 2, "select_columns values must be 2-D");
  RLG_REQUIRE(indices.shape().rank() == 1 &&
                  indices.shape().dim(0) == values.shape().dim(0),
              "select_columns indices must be [batch]");
  int64_t batch = values.shape().dim(0);
  int64_t cols = values.shape().dim(1);
  Tensor out(DType::kFloat32, Shape{batch});
  const float* pv = values.data<float>();
  const int32_t* pi = indices.data<int32_t>();
  float* po = out.mutable_data<float>();
  for (int64_t b = 0; b < batch; ++b) {
    int32_t c = pi[b];
    RLG_REQUIRE(c >= 0 && c < cols, "select_columns index out of range");
    po[b] = pv[b * cols + c];
  }
  return out;
}

Tensor concat(const std::vector<Tensor>& parts, int axis) {
  RLG_REQUIRE(!parts.empty(), "concat of zero tensors");
  const Shape& first = parts[0].shape();
  RLG_REQUIRE(axis >= 0 && axis < first.rank(), "concat axis out of range");
  int64_t total_axis = 0;
  for (const Tensor& p : parts) {
    RLG_REQUIRE(p.dtype() == parts[0].dtype(), "concat dtype mismatch");
    RLG_REQUIRE(p.shape().rank() == first.rank(), "concat rank mismatch");
    for (int i = 0; i < first.rank(); ++i) {
      if (i != axis) {
        RLG_REQUIRE(p.shape().dim(i) == first.dim(i),
                    "concat non-axis dim mismatch at axis " << i);
      }
    }
    total_axis += p.shape().dim(axis);
  }
  Shape out_shape = first.with_dim(axis, total_axis);
  Tensor out(parts[0].dtype(), out_shape);
  int64_t outer = 1;
  for (int i = 0; i < axis; ++i) outer *= first.dim(i);
  int64_t inner = 1;
  for (int i = axis + 1; i < first.rank(); ++i) inner *= first.dim(i);
  size_t esize = dtype_size(parts[0].dtype());
  auto* po = static_cast<uint8_t*>(out.mutable_raw());
  size_t out_row = static_cast<size_t>(total_axis * inner) * esize;
  size_t offset = 0;
  for (const Tensor& p : parts) {
    size_t p_row = static_cast<size_t>(p.shape().dim(axis) * inner) * esize;
    const auto* pp = static_cast<const uint8_t*>(p.raw());
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(po + static_cast<size_t>(o) * out_row + offset,
                  pp + static_cast<size_t>(o) * p_row, p_row);
    }
    offset += p_row;
  }
  return out;
}

std::vector<Tensor> split(const Tensor& t, int axis,
                          const std::vector<int64_t>& sizes) {
  RLG_REQUIRE(axis >= 0 && axis < t.shape().rank(), "split axis out of range");
  int64_t total = 0;
  for (int64_t s : sizes) total += s;
  RLG_REQUIRE(total == t.shape().dim(axis),
              "split sizes sum " << total << " != dim " << t.shape().dim(axis));
  int64_t outer = 1;
  for (int i = 0; i < axis; ++i) outer *= t.shape().dim(i);
  int64_t inner = 1;
  for (int i = axis + 1; i < t.shape().rank(); ++i) inner *= t.shape().dim(i);
  size_t esize = dtype_size(t.dtype());
  const auto* pt = static_cast<const uint8_t*>(t.raw());
  size_t in_row = static_cast<size_t>(total * inner) * esize;
  std::vector<Tensor> out;
  out.reserve(sizes.size());
  size_t offset = 0;
  for (int64_t s : sizes) {
    Shape shape = t.shape().with_dim(axis, s);
    Tensor part(t.dtype(), shape);
    auto* pp = static_cast<uint8_t*>(part.mutable_raw());
    size_t p_row = static_cast<size_t>(s * inner) * esize;
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(pp + static_cast<size_t>(o) * p_row,
                  pt + static_cast<size_t>(o) * in_row + offset, p_row);
    }
    offset += p_row;
    out.push_back(std::move(part));
  }
  return out;
}

Tensor slice_rows(const Tensor& t, int64_t begin, int64_t size) {
  RLG_REQUIRE(t.shape().rank() >= 1, "slice_rows requires rank >= 1");
  int64_t n = t.shape().dim(0);
  RLG_REQUIRE(begin >= 0 && size >= 0 && begin + size <= n,
              "slice_rows [" << begin << ", " << begin + size
                             << ") out of range for " << n << " rows");
  int64_t row_elems = n == 0 ? 0 : t.num_elements() / n;
  size_t row_bytes = static_cast<size_t>(row_elems) * dtype_size(t.dtype());
  Shape out_shape = Shape{size}.concat(t.shape().drop_front(1));
  Tensor out(t.dtype(), out_shape);
  std::memcpy(out.mutable_raw(),
              static_cast<const uint8_t*>(t.raw()) +
                  static_cast<size_t>(begin) * row_bytes,
              static_cast<size_t>(size) * row_bytes);
  return out;
}

Tensor stack_rows(const std::vector<Tensor>& parts) {
  RLG_REQUIRE(!parts.empty(), "stack_rows of zero tensors");
  const Shape& s = parts[0].shape();
  Shape out_shape = s.prepend(static_cast<int64_t>(parts.size()));
  Tensor out(parts[0].dtype(), out_shape);
  size_t row_bytes = parts[0].byte_size();
  auto* po = static_cast<uint8_t*>(out.mutable_raw());
  for (size_t i = 0; i < parts.size(); ++i) {
    RLG_REQUIRE(parts[i].shape() == s && parts[i].dtype() == parts[0].dtype(),
                "stack_rows: inhomogeneous parts");
    std::memcpy(po + i * row_bytes, parts[i].raw(), row_bytes);
  }
  return out;
}

Tensor random_uniform(const Shape& shape, double lo, double hi, Rng& rng) {
  Tensor t(DType::kFloat32, shape);
  float* p = t.mutable_data<float>();
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    p[i] = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

Tensor random_normal(const Shape& shape, double mean, double stddev, Rng& rng) {
  Tensor t(DType::kFloat32, shape);
  float* p = t.mutable_data<float>();
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    p[i] = static_cast<float>(rng.normal(mean, stddev));
  }
  return t;
}

Tensor random_int(const Shape& shape, int64_t n, Rng& rng) {
  Tensor t(DType::kInt32, shape);
  int32_t* p = t.mutable_data<int32_t>();
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    p[i] = static_cast<int32_t>(rng.uniform_int(n));
  }
  return t;
}

namespace {
inline float apply_fused_activation(float v, FusedActivation act) {
  switch (act) {
    case FusedActivation::kNone: return v;
    case FusedActivation::kRelu: return ReluOp{}(v);
    case FusedActivation::kTanh: return TanhOp{}(v);
    case FusedActivation::kSigmoid: return SigmoidOp{}(v);
  }
  return v;
}
}  // namespace

FusedActivation fused_activation_from_string(const std::string& name) {
  if (name.empty() || name == "none" || name == "linear") {
    return FusedActivation::kNone;
  }
  if (name == "relu") return FusedActivation::kRelu;
  if (name == "tanh") return FusedActivation::kTanh;
  if (name == "sigmoid") return FusedActivation::kSigmoid;
  throw ValueError("fused activation: unsupported \"" + name + "\"");
}

Tensor fused_dense(const Tensor& x, const Tensor& w, const Tensor& bias,
                   FusedActivation act) {
  check_dtype(bias, DType::kFloat32, "fused_dense");
  RLG_REQUIRE(bias.shape().rank() == 1 && w.shape().rank() == 2 &&
                  bias.shape().dim(0) == w.shape().dim(1),
              "fused_dense bias " << bias.shape().to_string()
                                  << " does not match weights "
                                  << w.shape().to_string());
  const float* pbias = bias.data<float>();
  int64_t n = bias.shape().dim(0);
  return matmul_with(x, w, "fused_dense", [pbias, n, act](float* orow) {
    for (int64_t j = 0; j < n; ++j) {
      orow[j] = apply_fused_activation(AddOp{}(orow[j], pbias[j]), act);
    }
  });
}

Tensor fused_conv2d(const Tensor& input, const Tensor& filter,
                    const Tensor& bias, int stride, bool same_padding,
                    FusedActivation act) {
  ConvDims d = conv_dims(input.shape(), filter.shape(), stride, same_padding);
  check_dtype(bias, DType::kFloat32, "fused_conv2d");
  RLG_REQUIRE(bias.shape().rank() == 1 && bias.shape().dim(0) == d.out_c,
              "fused_conv2d bias must be [" << d.out_c << "], got "
                                            << bias.shape().to_string());
  const float* pbias = bias.data<float>();
  int64_t n = d.out_c;
  return conv2d_with(input, filter, stride, d, "fused_conv2d",
                     [pbias, n, act](float* opix) {
                       for (int64_t oc = 0; oc < n; ++oc) {
                         opix[oc] = apply_fused_activation(
                             AddOp{}(opix[oc], pbias[oc]), act);
                       }
                     });
}

namespace {
// Chain links dispatch through function pointers instantiated from the
// standalone kernels' functors.
template <typename Op>
float apply_unary(float x) {
  return Op{}(x);
}
template <typename Op>
float apply_binary(float x, float y) {
  return Op{}(x, y);
}

struct CompiledLink {
  float (*un)(float) = nullptr;
  float (*bin)(float, float) = nullptr;
  bool chain_left = true;
  int extra = -1;
};

CompiledLink compile_link(const EwiseLink& link, size_t num_extras) {
  CompiledLink c;
  if (link.binary) {
    c.chain_left = link.chain_left;
    c.extra = link.extra;
    RLG_REQUIRE(link.extra >= 0 &&
                    static_cast<size_t>(link.extra) < num_extras,
                "fused_elementwise: extra index " << link.extra
                                                  << " out of range");
    if (link.op == "Add") c.bin = &apply_binary<AddOp>;
    else if (link.op == "Sub") c.bin = &apply_binary<SubOp>;
    else if (link.op == "Mul") c.bin = &apply_binary<MulOp>;
    else if (link.op == "Div") c.bin = &apply_binary<DivOp>;
    else if (link.op == "Minimum") c.bin = &apply_binary<MinimumOp>;
    else if (link.op == "Maximum") c.bin = &apply_binary<MaximumOp>;
    else
      throw ValueError("fused_elementwise: unsupported binary op " + link.op);
  } else {
    if (link.op == "Neg") c.un = &apply_unary<NegOp>;
    else if (link.op == "Exp") c.un = &apply_unary<ExpOp>;
    else if (link.op == "Log") c.un = &apply_unary<LogOp>;
    else if (link.op == "Sqrt") c.un = &apply_unary<SqrtOp>;
    else if (link.op == "Square") c.un = &apply_unary<SquareOp>;
    else if (link.op == "Abs") c.un = &apply_unary<AbsOp>;
    else if (link.op == "Relu") c.un = &apply_unary<ReluOp>;
    else if (link.op == "Sigmoid") c.un = &apply_unary<SigmoidOp>;
    else if (link.op == "Tanh") c.un = &apply_unary<TanhOp>;
    else
      throw ValueError("fused_elementwise: unsupported unary op " + link.op);
  }
  return c;
}
}  // namespace

Tensor fused_elementwise(const Tensor& x, const std::vector<Tensor>& extras,
                         const std::vector<EwiseLink>& links) {
  check_dtype(x, DType::kFloat32, "fused_elementwise");
  for (const Tensor& e : extras) {
    check_dtype(e, DType::kFloat32, "fused_elementwise");
  }
  std::vector<CompiledLink> steps;
  steps.reserve(links.size());
  for (const EwiseLink& l : links) steps.push_back(compile_link(l, extras.size()));
  const Shape& oshape = x.shape();
  int rank = oshape.rank();
  int64_t n = oshape.num_elements();
  // Per-extra broadcast strides against the chain (= output) shape, stride 0
  // on broadcast dimensions — the same cursor scheme as binary_broadcast, so
  // each extra element pairs with the same chain element as in the unfused
  // broadcast op.
  std::vector<std::vector<int64_t>> estrides(extras.size());
  for (size_t e = 0; e < extras.size(); ++e) {
    const Shape& es = extras[e].shape();
    RLG_REQUIRE(es.rank() <= rank,
                "fused_elementwise: extra " << es.to_string()
                                            << " does not broadcast into "
                                            << oshape.to_string());
    auto cs = contiguous_strides(es);
    estrides[e].assign(static_cast<size_t>(rank), 0);
    for (int i = 0; i < rank; ++i) {
      int ei = es.rank() - rank + i;
      if (ei >= 0 && es.dim(ei) != 1) {
        RLG_REQUIRE(es.dim(ei) == oshape.dim(i),
                    "fused_elementwise: extra " << es.to_string()
                                                << " does not broadcast into "
                                                << oshape.to_string());
        estrides[e][static_cast<size_t>(i)] = cs[static_cast<size_t>(ei)];
      }
    }
  }
  Tensor out(DType::kFloat32, oshape);
  const float* px = x.data<float>();
  std::vector<const float*> pext(extras.size());
  for (size_t e = 0; e < extras.size(); ++e) pext[e] = extras[e].data<float>();
  float* po = out.mutable_data<float>();
  size_t ne = extras.size();
  shard_range(kMathGrain, n, [&](int64_t begin, int64_t end) {
    // Seed the odometer and every extra's strided cursor from the shard's
    // first flat index, then walk exactly like the serial loop.
    std::vector<int64_t> idx(static_cast<size_t>(rank), 0);
    std::vector<int64_t> cursor(ne, 0);
    int64_t rem = begin;
    for (int d = rank - 1; d >= 0; --d) {
      auto du = static_cast<size_t>(d);
      idx[du] = rem % oshape.dim(d);
      rem /= oshape.dim(d);
      for (size_t e = 0; e < ne; ++e) cursor[e] += idx[du] * estrides[e][du];
    }
    for (int64_t flat = begin; flat < end; ++flat) {
      float v = px[flat];
      for (const CompiledLink& s : steps) {
        if (s.un) {
          v = s.un(v);
        } else {
          float o = pext[static_cast<size_t>(s.extra)]
                        [cursor[static_cast<size_t>(s.extra)]];
          v = s.chain_left ? s.bin(v, o) : s.bin(o, v);
        }
      }
      po[flat] = v;
      for (int d = rank - 1; d >= 0; --d) {
        auto du = static_cast<size_t>(d);
        ++idx[du];
        for (size_t e = 0; e < ne; ++e) cursor[e] += estrides[e][du];
        if (idx[du] < oshape.dim(d)) break;
        for (size_t e = 0; e < ne; ++e) cursor[e] -= estrides[e][du] * idx[du];
        idx[du] = 0;
      }
    }
  });
  return out;
}

Tensor cast(const Tensor& a, DType target) { return a.cast(target); }

}  // namespace kernels
}  // namespace rlgraph
