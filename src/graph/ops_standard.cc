// Registration of the built-in op set shared by both backends.
//
// Each op gets a shape-inference function (works on possibly-partial shapes,
// used during the graph build) and a kernel (works on concrete tensors, used
// by the session and the define-by-run backend). Gradient rules are
// registered separately in backend/grad_rules.cc.
#include "graph/op_schema.h"
#include "tensor/kernels.h"
#include "util/errors.h"

namespace rlgraph {

namespace {

using SIC = ShapeInferenceContext;

// --- shape helpers ----------------------------------------------------------

OpSignature same_as_input(const SIC& c, size_t i = 0) {
  RLG_REQUIRE(c.input_shapes.size() > i, c.node->op << ": missing input " << i);
  return single(c.input_dtypes[i], c.input_shapes[i]);
}

OpSignature broadcast_sig(const SIC& c) {
  RLG_REQUIRE(c.input_shapes.size() == 2, c.node->op << " expects 2 inputs");
  RLG_REQUIRE(c.input_dtypes[0] == c.input_dtypes[1],
              c.node->op << ": dtype mismatch "
                         << dtype_name(c.input_dtypes[0]) << " vs "
                         << dtype_name(c.input_dtypes[1]));
  return single(c.input_dtypes[0],
                broadcast_shapes(c.input_shapes[0], c.input_shapes[1]));
}

OpSignature compare_sig(const SIC& c) {
  RLG_REQUIRE(c.input_shapes.size() == 2, c.node->op << " expects 2 inputs");
  return single(DType::kBool,
                broadcast_shapes(c.input_shapes[0], c.input_shapes[1]));
}

OpSignature float_unary_sig(const SIC& c) {
  RLG_REQUIRE(c.input_dtypes[0] == DType::kFloat32,
              c.node->op << " requires float32 input");
  return single(DType::kFloat32, c.input_shapes[0]);
}

// MatMul output [M, N]; FusedDense shares it.
OpSignature matmul_sig(const SIC& c) {
  const Shape& a = c.input_shapes[0];
  const Shape& b = c.input_shapes[1];
  RLG_REQUIRE(a.rank() == 2 && b.rank() == 2,
              c.node->op << " requires rank-2 inputs, got " << a.to_string()
                         << " x " << b.to_string());
  if (a.dim(1) != kUnknownDim && b.dim(0) != kUnknownDim) {
    RLG_REQUIRE(a.dim(1) == b.dim(0), c.node->op << " inner dim mismatch: "
                                                 << a.to_string() << " x "
                                                 << b.to_string());
  }
  return single(DType::kFloat32, Shape{a.dim(0), b.dim(1)});
}

// Conv2D output [B, Ho, Wo, Cout] via the kernels' own conv_dims, so a
// geometry the kernel would reject (kernel larger than input, cin mismatch)
// fails at build time. FusedConv2D shares it.
OpSignature conv2d_sig(const SIC& c) {
  const Shape& in = c.input_shapes[0];
  const Shape& f = c.input_shapes[1];
  RLG_REQUIRE(in.rank() == 4 && f.rank() == 4,
              c.node->op << " expects NHWC x [kh,kw,cin,cout]");
  RLG_REQUIRE(in.dim(1) != kUnknownDim && in.dim(2) != kUnknownDim,
              c.node->op << " spatial dims must be known at build time");
  kernels::ConvDims d = kernels::conv_dims(
      in, f, static_cast<int>(attr_int(c.node->attrs, "stride")),
      attr_bool(c.node->attrs, "same_padding", false));
  return single(DType::kFloat32, Shape{d.batch, d.out_h, d.out_w, d.out_c});
}

// Fused dense/conv ops: the core op's signature plus a rank-1 bias over the
// output channels.
OpSignature fused_bias_sig(const SIC& c, OpSignature (*core)(const SIC&)) {
  RLG_REQUIRE(c.input_shapes.size() == 3, c.node->op << " expects 3 inputs");
  OpSignature sig = core(c);
  const Shape& bias = c.input_shapes[2];
  const Shape& out = sig.shapes[0];
  RLG_REQUIRE(bias.rank() == 1, c.node->op << " bias must be rank 1");
  int64_t channels = out.dim(out.rank() - 1);
  if (bias.dim(0) != kUnknownDim && channels != kUnknownDim) {
    RLG_REQUIRE(bias.dim(0) == channels,
                c.node->op << " bias dim mismatch: " << bias.to_string());
  }
  return sig;
}

// Kernel adapters.
KernelFn unary(Tensor (*fn)(const Tensor&)) {
  return [fn](KernelContext& k) { return std::vector<Tensor>{fn(k.inputs[0])}; };
}

KernelFn binary(Tensor (*fn)(const Tensor&, const Tensor&)) {
  return [fn](KernelContext& k) {
    return std::vector<Tensor>{fn(k.inputs[0], k.inputs[1])};
  };
}

void reg(OpRegistry& r, std::string name, ShapeFn shape_fn, KernelFn kernel,
         bool stateful = false) {
  r.register_op(OpSchema{std::move(name), std::move(shape_fn),
                         std::move(kernel), stateful});
}

// --- op registrations -------------------------------------------------------

void register_io_ops(OpRegistry& r) {
  // Placeholder: fed by the session; executing its kernel means a missing
  // feed.
  reg(
      r, "Placeholder",
      [](const SIC& c) {
        return single(attr_dtype(c.node->attrs, "dtype"),
                      attr_shape(c.node->attrs, "shape"));
      },
      [](KernelContext& k) -> std::vector<Tensor> {
        throw ValueError("placeholder '" + k.node->name +
                         "' was not fed for this execution");
      });

  reg(
      r, "Const",
      [](const SIC& c) {
        const Tensor& v = attr_tensor(c.node->attrs, "value");
        return single(v.dtype(), v.shape());
      },
      [](KernelContext& k) {
        return std::vector<Tensor>{attr_tensor(k.node->attrs, "value")};
      });

  // Variable read.
  reg(
      r, "Variable",
      [](const SIC& c) {
        return single(attr_dtype(c.node->attrs, "dtype"),
                      attr_shape(c.node->attrs, "shape"));
      },
      [](KernelContext& k) {
        const std::string& name = attr_string(k.node->attrs, "var_name");
        return std::vector<Tensor>{k.variables->get(name)};
      },
      /*stateful=*/true);

  // Assign(value) -> value; writes the variable.
  reg(
      r, "Assign", [](const SIC& c) { return same_as_input(c); },
      [](KernelContext& k) {
        const std::string& name = attr_string(k.node->attrs, "var_name");
        k.variables->set(name, k.inputs[0].clone());
        return std::vector<Tensor>{k.inputs[0]};
      },
      /*stateful=*/true);

  // AssignAdd(delta) -> new value.
  reg(
      r, "AssignAdd", [](const SIC& c) { return same_as_input(c); },
      [](KernelContext& k) {
        const std::string& name = attr_string(k.node->attrs, "var_name");
        Tensor updated = kernels::add(k.variables->get(name), k.inputs[0]);
        k.variables->set(name, updated);
        return std::vector<Tensor>{updated};
      },
      /*stateful=*/true);

  reg(r, "Identity", [](const SIC& c) { return same_as_input(c); },
      [](KernelContext& k) { return std::vector<Tensor>{k.inputs[0]}; });

  reg(r, "StopGradient", [](const SIC& c) { return same_as_input(c); },
      [](KernelContext& k) { return std::vector<Tensor>{k.inputs[0]}; });

  // Group: synchronization point over any number of inputs; returns the
  // number of grouped inputs as an int scalar.
  reg(
      r, "Group",
      [](const SIC&) { return single(DType::kInt32, Shape{}); },
      [](KernelContext& k) {
        return std::vector<Tensor>{
            Tensor::scalar_int(static_cast<int32_t>(k.inputs.size()))};
      },
      /*stateful=*/true);

  // Custom stateful component op; kernel and output signature are attached
  // to the node directly by the build context.
  reg(
      r, "CustomStateful",
      [](const SIC& c) -> OpSignature {
        // Signature is set explicitly when the node is created.
        OpSignature sig;
        sig.dtypes = c.node->out_dtypes;
        sig.shapes = c.node->out_shapes;
        RLG_REQUIRE(!sig.dtypes.empty(),
                    "CustomStateful node missing explicit signature");
        return sig;
      },
      [](KernelContext& k) {
        RLG_REQUIRE(k.node->custom_kernel != nullptr,
                    "CustomStateful node '" << k.node->name
                                            << "' has no kernel");
        return k.node->custom_kernel(k.inputs);
      },
      /*stateful=*/true);
}

void register_math_ops(OpRegistry& r) {
  reg(r, "Add", broadcast_sig, binary(&kernels::add));
  reg(r, "Sub", broadcast_sig, binary(&kernels::sub));
  reg(r, "Mul", broadcast_sig, binary(&kernels::mul));
  reg(r, "Div", broadcast_sig, binary(&kernels::div));
  reg(r, "Minimum", broadcast_sig, binary(&kernels::minimum));
  reg(r, "Maximum", broadcast_sig, binary(&kernels::maximum));
  reg(r, "Equal", compare_sig, binary(&kernels::equal));
  reg(r, "Greater", compare_sig, binary(&kernels::greater));
  reg(r, "Less", compare_sig, binary(&kernels::less));
  reg(r, "LogicalAnd", compare_sig, binary(&kernels::logical_and));
  reg(r, "LogicalOr", compare_sig, binary(&kernels::logical_or));
  reg(r, "LogicalNot", [](const SIC& c) { return same_as_input(c); },
      unary(&kernels::logical_not));

  reg(r, "Neg", float_unary_sig, unary(&kernels::neg));
  reg(r, "Exp", float_unary_sig, unary(&kernels::exp));
  reg(r, "Log", float_unary_sig, unary(&kernels::log));
  reg(r, "Sqrt", float_unary_sig, unary(&kernels::sqrt));
  reg(r, "Square", float_unary_sig, unary(&kernels::square));
  reg(r, "Abs", float_unary_sig, unary(&kernels::abs));
  reg(r, "Relu", float_unary_sig, unary(&kernels::relu));
  reg(r, "Sigmoid", float_unary_sig, unary(&kernels::sigmoid));
  reg(r, "Tanh", float_unary_sig, unary(&kernels::tanh));
  reg(r, "Softplus", float_unary_sig, unary(&kernels::softplus));

  reg(
      r, "Clip", float_unary_sig,
      [](KernelContext& k) {
        return std::vector<Tensor>{
            kernels::clip(k.inputs[0], attr_double(k.node->attrs, "lo"),
                          attr_double(k.node->attrs, "hi"))};
      });

  reg(
      r, "Where",
      [](const SIC& c) {
        RLG_REQUIRE(c.input_shapes.size() == 3, "Where expects 3 inputs");
        return single(c.input_dtypes[1], c.input_shapes[1]);
      },
      [](KernelContext& k) {
        return std::vector<Tensor>{
            kernels::where(k.inputs[0], k.inputs[1], k.inputs[2])};
      });

  // AddN: sum of >= 1 same-shaped tensors.
  reg(
      r, "AddN", [](const SIC& c) { return same_as_input(c); },
      [](KernelContext& k) {
        Tensor acc = k.inputs[0];
        for (size_t i = 1; i < k.inputs.size(); ++i) {
          acc = kernels::add(acc, k.inputs[i]);
        }
        return std::vector<Tensor>{acc};
      });

  // FusedElementwise: chain of parameter-free float elementwise ops applied
  // in a single pass (produced by plan pattern fusion). The "ops" attr is a
  // comma-separated list; each entry is either a unary op name ("Relu") or a
  // binary op with a side marker ("Add:l" = running chain value is the LEFT
  // operand, "Add:r" = right). Binary entries consume the node's extra
  // inputs (inputs[1..]) in order of appearance; extras broadcast into the
  // chain shape.
  reg(
      r, "FusedElementwise", float_unary_sig,
      [](KernelContext& k) {
        const std::string& chain = attr_string(k.node->attrs, "ops");
        std::vector<kernels::EwiseLink> links;
        int next_extra = 0;
        size_t pos = 0;
        while (pos < chain.size()) {
          size_t comma = chain.find(',', pos);
          std::string entry = chain.substr(
              pos, comma == std::string::npos ? std::string::npos : comma - pos);
          pos = comma == std::string::npos ? chain.size() : comma + 1;
          kernels::EwiseLink link;
          size_t colon = entry.find(':');
          if (colon == std::string::npos) {
            link.op = entry;
          } else {
            link.op = entry.substr(0, colon);
            std::string side = entry.substr(colon + 1);
            RLG_REQUIRE(side == "l" || side == "r",
                        "FusedElementwise: bad side marker in \"" << entry
                                                                  << "\"");
            link.binary = true;
            link.chain_left = side == "l";
            link.extra = next_extra++;
          }
          links.push_back(std::move(link));
        }
        RLG_REQUIRE(
            k.inputs.size() == static_cast<size_t>(next_extra) + 1,
            "FusedElementwise: chain needs " << next_extra + 1 << " inputs, got "
                                             << k.inputs.size());
        std::vector<Tensor> extras(k.inputs.begin() + 1, k.inputs.end());
        return std::vector<Tensor>{
            kernels::fused_elementwise(k.inputs[0], extras, links)};
      });
}

void register_linalg_ops(OpRegistry& r) {
  reg(r, "MatMul", matmul_sig, binary(&kernels::matmul));

  // FusedDense: act(x @ w + bias), one dispatch. Produced by the plan-level
  // pattern-fusion pass; has no gradient rule by design (fusion only runs on
  // inference plans).
  reg(
      r, "FusedDense",
      [](const SIC& c) { return fused_bias_sig(c, matmul_sig); },
      [](KernelContext& k) {
        return std::vector<Tensor>{kernels::fused_dense(
            k.inputs[0], k.inputs[1], k.inputs[2],
            kernels::fused_activation_from_string(
                attr_string(k.node->attrs, "activation")))};
      });

  reg(
      r, "Transpose2D",
      [](const SIC& c) {
        const Shape& a = c.input_shapes[0];
        RLG_REQUIRE(a.rank() == 2, "Transpose2D requires rank 2");
        return single(DType::kFloat32, Shape{a.dim(1), a.dim(0)});
      },
      unary(&kernels::transpose2d));

  reg(
      r, "Conv2D", conv2d_sig,
      [](KernelContext& k) {
        return std::vector<Tensor>{kernels::conv2d(
            k.inputs[0], k.inputs[1],
            static_cast<int>(attr_int(k.node->attrs, "stride")),
            attr_bool(k.node->attrs, "same_padding", false))};
      });

  // FusedConv2D: act(conv2d(x, f) + bias[Cout]), one dispatch. Inference-only
  // (no gradient rule), like FusedDense.
  reg(
      r, "FusedConv2D",
      [](const SIC& c) { return fused_bias_sig(c, conv2d_sig); },
      [](KernelContext& k) {
        return std::vector<Tensor>{kernels::fused_conv2d(
            k.inputs[0], k.inputs[1], k.inputs[2],
            static_cast<int>(attr_int(k.node->attrs, "stride")),
            attr_bool(k.node->attrs, "same_padding", false),
            kernels::fused_activation_from_string(
                attr_string(k.node->attrs, "activation")))};
      });

  // Gradient kernels exposed as ops so the autodiff graph stays uniform.
  reg(
      r, "Conv2DBackpropInput",
      [](const SIC& c) {
        return single(DType::kFloat32, attr_shape(c.node->attrs, "input_shape"));
      },
      [](KernelContext& k) {
        Shape in_shape = attr_shape(k.node->attrs, "input_shape");
        // The symbolic input shape may have an unknown batch; take it from
        // the gradient tensor at runtime.
        if (in_shape.rank() > 0 && in_shape.dim(0) == kUnknownDim) {
          in_shape = in_shape.with_dim(0, k.inputs[1].shape().dim(0));
        }
        return std::vector<Tensor>{kernels::conv2d_backprop_input(
            in_shape, k.inputs[0], k.inputs[1],
            static_cast<int>(attr_int(k.node->attrs, "stride")),
            attr_bool(k.node->attrs, "same_padding", false))};
      });

  reg(
      r, "Conv2DBackpropFilter",
      [](const SIC& c) {
        return single(DType::kFloat32,
                      attr_shape(c.node->attrs, "filter_shape"));
      },
      [](KernelContext& k) {
        return std::vector<Tensor>{kernels::conv2d_backprop_filter(
            k.inputs[0], attr_shape(k.node->attrs, "filter_shape"),
            k.inputs[1], static_cast<int>(attr_int(k.node->attrs, "stride")),
            attr_bool(k.node->attrs, "same_padding", false))};
      });
}

Shape reduce_shape(const Shape& in, int64_t axis, bool keep_dims) {
  if (axis == -1) {
    if (!keep_dims) return Shape{};
    std::vector<int64_t> dims(static_cast<size_t>(in.rank()), 1);
    return Shape(dims);
  }
  std::vector<int64_t> dims;
  for (int i = 0; i < in.rank(); ++i) {
    if (i == axis) {
      if (keep_dims) dims.push_back(1);
    } else {
      dims.push_back(in.dim(i));
    }
  }
  return Shape(dims);
}

void register_reduce_ops(OpRegistry& r) {
  auto make = [&r](const std::string& name,
                   Tensor (*fn)(const Tensor&, int, bool)) {
    reg(
        r, name,
        [](const SIC& c) {
          return single(DType::kFloat32,
                        reduce_shape(c.input_shapes[0],
                                     attr_int(c.node->attrs, "axis", -1),
                                     attr_bool(c.node->attrs, "keep_dims",
                                               false)));
        },
        [fn](KernelContext& k) {
          return std::vector<Tensor>{
              fn(k.inputs[0],
                 static_cast<int>(attr_int(k.node->attrs, "axis", -1)),
                 attr_bool(k.node->attrs, "keep_dims", false))};
        });
  };
  make("ReduceSum", &kernels::reduce_sum);
  make("ReduceMean", &kernels::reduce_mean);
  make("ReduceMax", &kernels::reduce_max);

  // SumToShape: gradient helper reducing a broadcast result to a target
  // (possibly partial; unknown dims resolved at runtime from the input).
  reg(
      r, "SumToShape",
      [](const SIC& c) {
        return single(DType::kFloat32, attr_shape(c.node->attrs, "target"));
      },
      [](KernelContext& k) {
        Shape target = attr_shape(k.node->attrs, "target");
        // Resolve unknown dims from the runtime input shape (aligned right).
        const Shape& in = k.inputs[0].shape();
        std::vector<int64_t> dims = target.dims();
        int off = in.rank() - target.rank();
        for (size_t i = 0; i < dims.size(); ++i) {
          if (dims[i] == kUnknownDim) {
            dims[i] = in.dim(static_cast<int>(i) + off);
          }
        }
        return std::vector<Tensor>{
            kernels::sum_to_shape(k.inputs[0], Shape(dims))};
      });

  reg(r, "Softmax", float_unary_sig, unary(&kernels::softmax));
  reg(r, "LogSoftmax", float_unary_sig, unary(&kernels::log_softmax));
}

void register_index_ops(OpRegistry& r) {
  reg(
      r, "ArgMax",
      [](const SIC& c) {
        const Shape& in = c.input_shapes[0];
        RLG_REQUIRE(in.rank() >= 1, "ArgMax requires rank >= 1");
        std::vector<int64_t> dims(in.dims().begin(), in.dims().end() - 1);
        return single(DType::kInt32, Shape(dims));
      },
      unary(&kernels::argmax));

  reg(
      r, "OneHot",
      [](const SIC& c) {
        int64_t depth = attr_int(c.node->attrs, "depth");
        return single(DType::kFloat32,
                      c.input_shapes[0].concat(Shape{depth}));
      },
      [](KernelContext& k) {
        return std::vector<Tensor>{
            kernels::one_hot(k.inputs[0], attr_int(k.node->attrs, "depth"))};
      });

  reg(
      r, "GatherRows",
      [](const SIC& c) {
        return single(c.input_dtypes[0],
                      Shape{c.input_shapes[1].dim(0)}.concat(
                          c.input_shapes[0].drop_front(1)));
      },
      binary(&kernels::gather_rows));

  reg(
      r, "SelectColumns",
      [](const SIC& c) {
        return single(DType::kFloat32, Shape{c.input_shapes[0].dim(0)});
      },
      binary(&kernels::select_columns));
}

void register_shape_ops(OpRegistry& r) {
  // Reshape: target shape attr; at most one -1 dim inferred at runtime.
  reg(
      r, "Reshape",
      [](const SIC& c) {
        Shape target = attr_shape(c.node->attrs, "shape");
        // If the input element count and all-but-one target dims are known,
        // we could resolve -1 here; leave it unknown for the build, the
        // kernel resolves at runtime.
        return single(c.input_dtypes[0], target);
      },
      [](KernelContext& k) {
        Shape target = attr_shape(k.node->attrs, "shape");
        std::vector<int64_t> dims = target.dims();
        int64_t known = 1;
        int unknown_at = -1;
        for (size_t i = 0; i < dims.size(); ++i) {
          if (dims[i] == kUnknownDim) {
            RLG_REQUIRE(unknown_at < 0, "Reshape: more than one -1 dim");
            unknown_at = static_cast<int>(i);
          } else {
            known *= dims[i];
          }
        }
        if (unknown_at >= 0) {
          RLG_REQUIRE(known > 0 && k.inputs[0].num_elements() % known == 0,
                      "Reshape: cannot infer -1 dim");
          dims[static_cast<size_t>(unknown_at)] =
              k.inputs[0].num_elements() / known;
        }
        return std::vector<Tensor>{k.inputs[0].reshaped(Shape(dims))};
      });

  reg(
      r, "ExpandDims",
      [](const SIC& c) {
        int64_t axis = attr_int(c.node->attrs, "axis");
        const Shape& in = c.input_shapes[0];
        RLG_REQUIRE(axis >= 0 && axis <= in.rank(), "ExpandDims axis range");
        std::vector<int64_t> dims = in.dims();
        dims.insert(dims.begin() + axis, 1);
        return single(c.input_dtypes[0], Shape(dims));
      },
      [](KernelContext& k) {
        int64_t axis = attr_int(k.node->attrs, "axis");
        std::vector<int64_t> dims = k.inputs[0].shape().dims();
        dims.insert(dims.begin() + axis, 1);
        return std::vector<Tensor>{k.inputs[0].reshaped(Shape(dims))};
      });

  reg(
      r, "Squeeze",
      [](const SIC& c) {
        int64_t axis = attr_int(c.node->attrs, "axis");
        const Shape& in = c.input_shapes[0];
        RLG_REQUIRE(axis >= 0 && axis < in.rank() &&
                        (in.dim(static_cast<int>(axis)) == 1 ||
                         in.dim(static_cast<int>(axis)) == kUnknownDim),
                    "Squeeze axis must be size 1");
        std::vector<int64_t> dims = in.dims();
        dims.erase(dims.begin() + axis);
        return single(c.input_dtypes[0], Shape(dims));
      },
      [](KernelContext& k) {
        int64_t axis = attr_int(k.node->attrs, "axis");
        std::vector<int64_t> dims = k.inputs[0].shape().dims();
        RLG_REQUIRE(dims[static_cast<size_t>(axis)] == 1,
                    "Squeeze axis not of size 1 at runtime");
        dims.erase(dims.begin() + axis);
        return std::vector<Tensor>{k.inputs[0].reshaped(Shape(dims))};
      });

  reg(
      r, "Concat",
      [](const SIC& c) {
        int axis = static_cast<int>(attr_int(c.node->attrs, "axis"));
        Shape out = c.input_shapes[0];
        int64_t total = 0;
        for (const Shape& s : c.input_shapes) {
          if (s.dim(axis) == kUnknownDim || total == kUnknownDim) {
            total = kUnknownDim;
          } else {
            total += s.dim(axis);
          }
        }
        return single(c.input_dtypes[0], out.with_dim(axis, total));
      },
      [](KernelContext& k) {
        return std::vector<Tensor>{kernels::concat(
            k.inputs, static_cast<int>(attr_int(k.node->attrs, "axis")))};
      });

  reg(
      r, "Split",
      [](const SIC& c) {
        int axis = static_cast<int>(attr_int(c.node->attrs, "axis"));
        std::vector<int64_t> sizes = attr_ints(c.node->attrs, "sizes");
        OpSignature sig;
        for (int64_t s : sizes) {
          sig.dtypes.push_back(c.input_dtypes[0]);
          sig.shapes.push_back(c.input_shapes[0].with_dim(axis, s));
        }
        return sig;
      },
      [](KernelContext& k) {
        return kernels::split(
            k.inputs[0], static_cast<int>(attr_int(k.node->attrs, "axis")),
            attr_ints(k.node->attrs, "sizes"));
      });

  reg(
      r, "SliceRows",
      [](const SIC& c) {
        int64_t size = attr_int(c.node->attrs, "size");
        return single(c.input_dtypes[0],
                      Shape{size}.concat(c.input_shapes[0].drop_front(1)));
      },
      [](KernelContext& k) {
        return std::vector<Tensor>{kernels::slice_rows(
            k.inputs[0], attr_int(k.node->attrs, "begin"),
            attr_int(k.node->attrs, "size"))};
      });

  // Size(x): number of elements as a float scalar (used by mean gradients
  // when the batch extent is only known at runtime).
  reg(
      r, "Size",
      [](const SIC&) { return single(DType::kFloat32, Shape{}); },
      [](KernelContext& k) {
        return std::vector<Tensor>{
            Tensor::scalar(static_cast<float>(k.inputs[0].num_elements()))};
      });

  // ReshapeLike(x, ref): reshape x to ref's runtime shape.
  reg(
      r, "ReshapeLike",
      [](const SIC& c) { return single(c.input_dtypes[0], c.input_shapes[1]); },
      [](KernelContext& k) {
        return std::vector<Tensor>{
            k.inputs[0].reshaped(k.inputs[1].shape())};
      });

  reg(
      r, "Cast",
      [](const SIC& c) {
        return single(attr_dtype(c.node->attrs, "dtype"), c.input_shapes[0]);
      },
      [](KernelContext& k) {
        return std::vector<Tensor>{
            k.inputs[0].cast(attr_dtype(k.node->attrs, "dtype"))};
      });
}

void register_random_ops(OpRegistry& r) {
  // RandomUniformLike(x): uniform floats with x's runtime shape.
  reg(
      r, "RandomUniformLike",
      [](const SIC& c) { return single(DType::kFloat32, c.input_shapes[0]); },
      [](KernelContext& k) {
        return std::vector<Tensor>{kernels::random_uniform(
            k.inputs[0].shape(), attr_double(k.node->attrs, "lo", 0.0),
            attr_double(k.node->attrs, "hi", 1.0), *k.rng)};
      },
      /*stateful=*/true);

  // RandomNormalLike(x): Gaussian floats with x's runtime shape. Stateful —
  // pinned to the serial RNG chain by the scheduler, so sampled traces are
  // bitwise identical at any thread count.
  reg(
      r, "RandomNormalLike",
      [](const SIC& c) { return single(DType::kFloat32, c.input_shapes[0]); },
      [](KernelContext& k) {
        return std::vector<Tensor>{kernels::random_normal(
            k.inputs[0].shape(), attr_double(k.node->attrs, "mean", 0.0),
            attr_double(k.node->attrs, "stddev", 1.0), *k.rng)};
      },
      /*stateful=*/true);

  // RandomIntLike(x, n): int32 uniform in [0, n) with x's runtime shape.
  reg(
      r, "RandomIntLike",
      [](const SIC& c) { return single(DType::kInt32, c.input_shapes[0]); },
      [](KernelContext& k) {
        return std::vector<Tensor>{kernels::random_int(
            k.inputs[0].shape(), attr_int(k.node->attrs, "n"), *k.rng)};
      },
      /*stateful=*/true);
}

}  // namespace

void register_standard_ops(OpRegistry& r) {
  register_io_ops(r);
  register_math_ops(r);
  register_linalg_ops(r);
  register_reduce_ops(r);
  register_index_ops(r);
  register_shape_ops(r);
  register_random_ops(r);
}

}  // namespace rlgraph
