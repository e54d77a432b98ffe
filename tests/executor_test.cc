// Tests for GraphExecutor: backend equivalence, fast-path edge contraction,
// graph optimization integration, weight get/set and checkpoint round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <iterator>

#include "components/layers.h"
#include "core/graph_executor.h"
#include "tensor/kernels.h"
#include "tensor/tensor_io.h"

namespace rlgraph {
namespace {

std::shared_ptr<Component> make_mlp_root() {
  auto root = std::make_shared<Component>("root");
  auto* l1 = root->add_component(
      std::make_shared<DenseLayer>("l1", 8, Activation::kTanh));
  auto* l2 = root->add_component(std::make_shared<DenseLayer>("l2", 3));
  root->register_api("forward", [l1, l2](BuildContext& ctx, const OpRecs& in) {
    return l2->call_api(ctx, "apply", l1->call_api(ctx, "apply", in));
  });
  return root;
}

std::map<std::string, std::vector<SpacePtr>> mlp_apis() {
  return {{"forward", {FloatBox(Shape{5})->with_batch_rank()}}};
}

TEST(GraphExecutorTest, BackendsProduceIdenticalResults) {
  // Same seed -> same init weights -> identical outputs across backends.
  ExecutorOptions static_opts;
  static_opts.backend = Backend::kStatic;
  static_opts.seed = 99;
  GraphExecutor static_exec(make_mlp_root(), mlp_apis(), static_opts);
  static_exec.build();

  ExecutorOptions imp_opts;
  imp_opts.backend = Backend::kImperative;
  imp_opts.seed = 99;
  GraphExecutor imp_exec(make_mlp_root(), mlp_apis(), imp_opts);
  imp_exec.build();

  Rng rng(5);
  Tensor x = kernels::random_uniform(Shape{4, 5}, -1, 1, rng);
  Tensor ys = static_exec.execute("forward", {x})[0];
  Tensor yi = imp_exec.execute("forward", {x})[0];
  EXPECT_TRUE(ys.all_close(yi, 1e-5));
}

TEST(GraphExecutorTest, FastPathMatchesDispatchedExecution) {
  ExecutorOptions with_fp;
  with_fp.backend = Backend::kImperative;
  with_fp.fast_path = true;
  with_fp.seed = 4;
  GraphExecutor fast(make_mlp_root(), mlp_apis(), with_fp);
  fast.build();

  ExecutorOptions without_fp = with_fp;
  without_fp.fast_path = false;
  GraphExecutor slow(make_mlp_root(), mlp_apis(), without_fp);
  slow.build();

  Rng rng(6);
  for (int i = 0; i < 3; ++i) {
    Tensor x = kernels::random_uniform(Shape{2, 5}, -1, 1, rng);
    // First fast call traces; later calls replay the contracted program.
    Tensor yf = fast.execute("forward", {x})[0];
    Tensor ys = slow.execute("forward", {x})[0];
    EXPECT_TRUE(yf.all_close(ys, 1e-6)) << "iteration " << i;
  }
}

TEST(GraphExecutorTest, OptimizePassesPreserveSemantics) {
  ExecutorOptions opt_on;
  opt_on.seed = 12;
  opt_on.optimize = true;
  GraphExecutor a(make_mlp_root(), mlp_apis(), opt_on);
  a.build();
  ExecutorOptions opt_off = opt_on;
  opt_off.optimize = false;
  GraphExecutor b(make_mlp_root(), mlp_apis(), opt_off);
  b.build();
  EXPECT_LE(a.stats().graph_nodes_after, b.stats().graph_nodes_after);
  Rng rng(7);
  Tensor x = kernels::random_uniform(Shape{3, 5}, -1, 1, rng);
  EXPECT_TRUE(a.execute("forward", {x})[0].all_close(
      b.execute("forward", {x})[0], 1e-6));
}

TEST(GraphExecutorTest, BatchableCallsAtSixBatchSizesCompileNothingAfterBuild) {
  // Every static-backend call runs the plan compiled at build time, whatever
  // its batch size: no per-call compile, and repeat calls reproduce their
  // outputs bitwise.
  GraphExecutor exec(make_mlp_root(), mlp_apis());
  exec.build();
  Session* session = exec.session();
  const int64_t compiles = session->plan_compiles();

  Rng rng(3);
  const std::vector<int64_t> batches{1, 2, 3, 5, 16, 33};
  std::map<int64_t, Tensor> inputs, outputs;
  for (int64_t n : batches) {
    inputs[n] = kernels::random_uniform(Shape{n, 5}, -1, 1, rng);
    outputs[n] = exec.execute("forward", {inputs[n]})[0];
    EXPECT_EQ(outputs[n].shape(), (Shape{n, 3}));
  }
  for (int round = 0; round < 2; ++round) {
    for (int64_t n : batches) {
      EXPECT_TRUE(exec.execute("forward", {inputs[n]})[0].equals(outputs[n]))
          << "batch " << n << ", round " << round;
    }
  }
  EXPECT_EQ(session->plan_compiles(), compiles);
}

TEST(GraphExecutorTest, BuildStatsPopulated) {
  GraphExecutor exec(make_mlp_root(), mlp_apis());
  const BuildStats& stats = exec.build();
  EXPECT_EQ(stats.num_components, 3);
  EXPECT_GT(stats.graph_fn_calls, 0);
  EXPECT_GT(stats.graph_nodes_before, 0);
  EXPECT_GE(stats.trace_seconds, 0.0);
  EXPECT_GE(stats.build_seconds, 0.0);
  // Build is idempotent.
  exec.build();
}

TEST(GraphExecutorTest, InputValidation) {
  GraphExecutor exec(make_mlp_root(), mlp_apis());
  exec.build();
  EXPECT_THROW(exec.execute("nope", {}), NotFoundError);
  EXPECT_THROW(exec.execute("forward", {}), ValueError);  // missing input
  // Wrong dtype.
  EXPECT_THROW(
      exec.execute("forward", {Tensor::from_ints(Shape{1, 5},
                                                 {1, 2, 3, 4, 5})}),
      ValueError);
}

TEST(GraphExecutorTest, GetSetWeightsByPrefix) {
  GraphExecutor exec(make_mlp_root(), mlp_apis());
  exec.build();
  auto all = exec.get_weights();
  EXPECT_EQ(all.size(), 4u);  // 2 layers x (weights, bias)
  auto l1_only = exec.get_weights("root/l1");
  EXPECT_EQ(l1_only.size(), 2u);
  // Zero the l1 weights and verify the executor output changes.
  Rng rng(8);
  Tensor x = kernels::random_uniform(Shape{1, 5}, -1, 1, rng);
  Tensor before = exec.execute("forward", {x})[0];
  std::map<std::string, Tensor> zeros;
  for (auto& [name, value] : l1_only) {
    zeros[name] = Tensor::zeros(value.dtype(), value.shape());
  }
  exec.set_weights(zeros);
  Tensor after = exec.execute("forward", {x})[0];
  EXPECT_FALSE(before.all_close(after, 1e-6));
}

TEST(GraphExecutorTest, CheckpointRoundTrip) {
  ExecutorOptions opts;
  opts.seed = 21;
  GraphExecutor a(make_mlp_root(), mlp_apis(), opts);
  a.build();
  Rng rng(9);
  Tensor x = kernels::random_uniform(Shape{2, 5}, -1, 1, rng);
  Tensor y_orig = a.execute("forward", {x})[0];
  std::vector<uint8_t> bytes = a.export_variables();

  ExecutorOptions opts2;
  opts2.seed = 22;  // different init
  GraphExecutor b(make_mlp_root(), mlp_apis(), opts2);
  b.build();
  EXPECT_FALSE(b.execute("forward", {x})[0].all_close(y_orig, 1e-5));
  b.import_variables(bytes);
  EXPECT_TRUE(b.execute("forward", {x})[0].all_close(y_orig, 1e-6));
  EXPECT_EQ(b.export_variables(), bytes);
}

TEST(GraphExecutorTest, CheckpointRejectsGarbage) {
  GraphExecutor exec(make_mlp_root(), mlp_apis());
  exec.build();
  EXPECT_THROW(exec.import_variables({1, 2, 3, 4, 5, 6, 7, 8}), Error);

  // Crafted checkpoints: a valid first entry that zeroes one variable,
  // followed by `bad_entry`. Every one must throw SerializationError and
  // leave all variables untouched (the valid first entry is not applied).
  const std::map<std::string, Tensor> before = exec.get_weights();
  const std::string first = before.begin()->first;
  const std::string second = std::next(before.begin())->first;
  auto checkpoint = [&](const std::function<void(ByteWriter&)>& bad_entry,
                        uint32_t magic = 0x524C4756, uint32_t version = 1) {
    ByteWriter w;
    w.write_u32(magic);
    w.write_u32(version);
    w.write_u32(2);
    const Tensor& t = before.at(first);
    w.write_string(first);
    write_tensor(&w, Tensor::zeros(t.dtype(), t.shape()));
    bad_entry(w);
    return w.take();
  };
  auto raw_entry = [](const std::string& name, uint8_t tag,
                      const std::vector<int64_t>& dims, uint64_t nbytes) {
    return [=](ByteWriter& w) {
      w.write_string(name);
      w.write_u8(tag);
      w.write_u32(static_cast<uint32_t>(dims.size()));
      for (int64_t d : dims) w.write_i64(d);
      w.write_u64(nbytes);
      std::vector<uint8_t> payload(16, 0);
      w.write_bytes(payload.data(), payload.size());
    };
  };
  const uint8_t f32 = static_cast<uint8_t>(DType::kFloat32);
  const Tensor& st = before.at(second);
  const std::vector<std::pair<std::string, std::vector<uint8_t>>> cases = {
      {"corrupt dims",
       checkpoint(raw_entry(second, f32, {int64_t{1} << 30, int64_t{1} << 20},
                            16))},
      {"bad dtype tag", checkpoint(raw_entry(second, 9, {4}, 16))},
      {"unknown variable",
       checkpoint([](ByteWriter& w) {
         w.write_string("root/no_such_variable");
         write_tensor(&w, Tensor::zeros(DType::kFloat32, Shape{4}));
       })},
      {"shape mismatch",
       checkpoint([&](ByteWriter& w) {
         w.write_string(second);
         write_tensor(&w, Tensor::zeros(st.dtype(),
                                        Shape{st.num_elements() + 1}));
       })},
      {"trailing bytes",
       checkpoint([&](ByteWriter& w) {
         w.write_string(second);
         write_tensor(&w, st);
         w.write_u8(0);
       })},
      {"bad magic", checkpoint([](ByteWriter&) {}, 0xDEADBEEF)},
      {"bad version", checkpoint([](ByteWriter&) {}, 0x524C4756, 999)},
  };
  for (const auto& [what, bytes] : cases) {
    EXPECT_THROW(exec.import_variables(bytes), SerializationError) << what;
    for (const auto& [name, value] : exec.get_weights()) {
      EXPECT_TRUE(value.equals(before.at(name))) << what << ": " << name;
    }
  }
}

TEST(GraphExecutorTest, SeedsMakeStochasticOpsReproducible) {
  // Two executors with the same seed produce identical random sequences.
  auto make = [](uint64_t seed) {
    auto root = std::make_shared<Component>("root");
    root->register_api("rand", [root_raw = root.get()](BuildContext& ctx,
                                                       const OpRecs& in) {
      return root_raw->graph_fn(
          ctx, "draw",
          [](OpContext& ops, const std::vector<OpRef>& args) {
            return std::vector<OpRef>{
                ops.apply("RandomUniformLike", {args[0]})};
          },
          in);
    });
    ExecutorOptions opts;
    opts.seed = seed;
    auto exec = std::make_unique<GraphExecutor>(
        root,
        std::map<std::string, std::vector<SpacePtr>>{
            {"rand", {FloatBox(Shape{4})->with_batch_rank()}}},
        opts);
    exec->build();
    return exec;
  };
  auto a = make(3), b = make(3), c = make(4);
  Tensor x = Tensor::zeros(DType::kFloat32, Shape{1, 4});
  Tensor ra = a->execute("rand", {x})[0];
  Tensor rb = b->execute("rand", {x})[0];
  Tensor rc = c->execute("rand", {x})[0];
  EXPECT_TRUE(ra.equals(rb));
  EXPECT_FALSE(ra.equals(rc));
}

TEST(GraphExecutorTest, ExecutionCallCounting) {
  GraphExecutor exec(make_mlp_root(), mlp_apis());
  exec.build();
  Tensor x = Tensor::zeros(DType::kFloat32, Shape{1, 5});
  exec.execute("forward", {x});
  exec.execute("forward", {x});
  EXPECT_EQ(exec.execution_calls(), 2);
}

}  // namespace
}  // namespace rlgraph
