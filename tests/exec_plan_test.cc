// Tests for the compiled execution-plan layer: per-call session compiles,
// eager intermediate release, feed validation, pooled-buffer determinism,
// the kernel-purity invariant, and fast-path-vs-session equivalence on a
// real DQN update step.
#include <gtest/gtest.h>

#include "agents/dqn_agent.h"
#include "backend/static_context.h"
#include "components/layers.h"
#include "core/graph_executor.h"
#include "env/grid_world.h"
#include "graph/exec_plan.h"
#include "graph/session.h"
#include "tensor/kernels.h"
#include "util/thread_pool.h"

namespace rlgraph {
namespace {

class ExecPlanTest : public ::testing::Test {
 protected:
  ExecPlanTest() : rng_(7), ctx_(&store_, &rng_) {}

  Session make_session() { return Session(ctx_.graph(), &store_, &rng_); }

  VariableStore store_;
  Rng rng_;
  StaticGraphContext ctx_;
};

TEST_F(ExecPlanTest, SessionRunCompilesEachCall) {
  // Session::run keeps no plan: every call compiles, and every plan counts
  // into the session's one counter set.
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{});
  OpRef a = ctx_.mul(x, ctx_.scalar(2.0f));
  Session s = make_session();
  FeedMap feeds;
  feeds[x.node] = Tensor::scalar(3.0f);

  EXPECT_FLOAT_EQ(s.run({{a.node, 0}}, feeds)[0].scalar_value(), 6.0f);
  feeds[x.node] = Tensor::scalar(4.0f);
  EXPECT_FLOAT_EQ(s.run({{a.node, 0}}, feeds)[0].scalar_value(), 8.0f);
  EXPECT_EQ(s.plan_compiles(), 2);
  EXPECT_EQ(s.num_runs(), 2);
}

TEST_F(ExecPlanTest, EagerReleaseBoundsPeakLiveSlots) {
  // A chain of N unary ops: with last-use refcounting only the current
  // step's input and output are live, so the peak stays O(1) while the
  // plan holds O(N) slots.
  constexpr int kChain = 16;
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{64});
  OpRef v = x;
  for (int i = 0; i < kChain; ++i) v = ctx_.neg(v);
  Session s = make_session();
  auto plan = s.compile({{v.node, 0}}, {x.node});
  ASSERT_GE(plan->num_slots(), static_cast<size_t>(kChain));

  std::vector<float> data(64, 1.5f);
  RunArena arena;
  plan->execute(arena, {Tensor::from_floats(Shape{64}, data)}, &store_, &rng_);
  EXPECT_LE(arena.peak_live_slots(), 3);
}

TEST_F(ExecPlanTest, PooledRunsAreDeterministicAndReuseBuffers) {
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{256});
  OpRef v = x;
  for (int i = 0; i < 8; ++i) v = ctx_.add(ctx_.neg(v), ctx_.scalar(0.5f));
  Session s = make_session();
  auto plan = s.compile({{v.node, 0}}, {x.node});

  std::vector<float> data(256);
  for (size_t i = 0; i < data.size(); ++i) data[i] = 0.01f * (float)i;
  Tensor feed = Tensor::from_floats(Shape{256}, data);

  std::vector<float> first = plan->run({feed}, &store_, &rng_)[0].to_floats();
  for (int run = 0; run < 5; ++run) {
    // Later runs draw intermediate buffers from the arena's pool; recycled
    // storage must not perturb results.
    EXPECT_EQ(plan->run({feed}, &store_, &rng_)[0].to_floats(), first);
  }
  EXPECT_GT(plan->counters().bytes_reused.load(), 0);
  EXPECT_EQ(s.bytes_reused(), plan->counters().bytes_reused.load());
}

TEST_F(ExecPlanTest, RunRejectsNonPlaceholderFeed) {
  OpRef c = ctx_.constant(Tensor::scalar(1.0f));
  OpRef y = ctx_.neg(c);
  Session s = make_session();
  FeedMap feeds;
  feeds[c.node] = Tensor::scalar(9.0f);
  EXPECT_THROW(s.run({{y.node, 0}}, feeds), ValueError);
}

TEST_F(ExecPlanTest, RunNamesUnusedFeeds) {
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{});
  OpRef y = ctx_.placeholder("y", DType::kFloat32, Shape{});
  OpRef out = ctx_.neg(x);
  Session s = make_session();
  FeedMap feeds;
  feeds[x.node] = Tensor::scalar(1.0f);
  feeds[y.node] = Tensor::scalar(2.0f);  // not consumed by the fetch
  try {
    s.run({{out.node, 0}}, feeds);
    FAIL() << "expected ValueError for unused feed";
  } catch (const ValueError& e) {
    EXPECT_NE(std::string(e.what()).find("'y'"), std::string::npos)
        << "error should name the unused feed: " << e.what();
  }
}

TEST_F(ExecPlanTest, FeedValidationNamesDeclaredAndProvidedSignatures) {
  // A mismatched feed must name BOTH sides — the declared placeholder
  // space/shape and what the caller actually provided — so agent-API feed
  // bugs are diagnosable from the message alone.
  OpRef x = ctx_.placeholder("states", DType::kFloat32, Shape{3});
  OpRef out = ctx_.neg(x);
  Session s = make_session();
  auto plan = s.compile({{out.node, 0}}, {x.node});

  try {
    plan->run({Tensor::from_floats(Shape{2}, {1.0f, 2.0f})}, &store_, &rng_);
    FAIL() << "expected ValueError for shape mismatch";
  } catch (const ValueError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'states'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("provides float32(2)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("declared float32(3)"), std::string::npos) << msg;
  }

  try {
    plan->run({Tensor::from_ints(Shape{3}, {1, 2, 3})}, &store_, &rng_);
    FAIL() << "expected ValueError for dtype mismatch";
  } catch (const ValueError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("provides int32(3)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("declared float32(3)"), std::string::npos) << msg;
  }

  // A batchable API call through the executor whose feed contradicts the
  // declared signature (inner dim 9 vs 8) fails the same way and compiles
  // nothing.
  auto root = std::make_shared<Component>("root");
  auto* dense = root->add_component(std::make_shared<DenseLayer>("d", 2));
  root->register_api("forward", [dense](BuildContext& bctx,
                                        const OpRecs& in) {
    return dense->call_api(bctx, "apply", in);
  });
  GraphExecutor exec(root, {{"forward", {FloatBox(Shape{8})->with_batch_rank()}}});
  exec.build();
  Session* session = exec.session();
  const int64_t compiles = session->plan_compiles();
  try {
    exec.execute("forward", {Tensor::zeros(DType::kFloat32, Shape{4, 9})});
    FAIL() << "expected ValueError for a feed contradicting the signature";
  } catch (const ValueError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("provides float32(4, 9)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("declared float32(?, 8)"), std::string::npos) << msg;
  }
  EXPECT_EQ(session->plan_compiles(), compiles);
}

TEST_F(ExecPlanTest, PositionalPlanToleratesUnusedFeed) {
  // API calls feed arguments positionally; an API that ignores one of its
  // declared arguments must still compile (the value is dropped).
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{});
  OpRef y = ctx_.placeholder("y", DType::kFloat32, Shape{});
  OpRef out = ctx_.mul(x, ctx_.scalar(4.0f));
  Session s = make_session();
  auto plan = s.compile({{out.node, 0}}, {x.node, y.node});
  ASSERT_EQ(plan->unused_feed_names(), std::vector<std::string>{"y"});
  auto fetched = plan->run({Tensor::scalar(2.0f), Tensor::scalar(99.0f)},
                           &store_, &rng_);
  EXPECT_FLOAT_EQ(fetched[0].scalar_value(), 8.0f);
}

TEST(ExecPlanBuilderTest, PurityCheckCatchesInputMutation) {
  CompiledPlan::Builder builder;
  int in_slot = builder.add_input();
  NodeDef node;
  node.name = "mutator";
  node.op = "CustomStateful";
  node.stateful = true;
  node.custom_kernel = [](const std::vector<Tensor>& in) {
    Tensor alias = in[0];  // shares the buffer
    alias.mutable_data<float>()[0] += 1.0f;
    return std::vector<Tensor>{Tensor::scalar(0.0f)};
  };
  int out_slot = builder.add_step(std::move(node), {in_slot}, 1);
  builder.set_outputs({out_slot});
  std::shared_ptr<CompiledPlan> plan = builder.finish();

  RunArena arena;
  arena.set_check_kernel_purity(true);
  Tensor input = Tensor::from_floats(Shape{4}, {1, 2, 3, 4});
  EXPECT_THROW(plan->execute(arena, {input}, nullptr, nullptr), Error);

  arena.set_check_kernel_purity(false);
  EXPECT_NO_THROW(plan->execute(arena, {input}, nullptr, nullptr));
}

TEST(ExecPlanBuilderTest, CountersTrackRunsAndNodes) {
  CompiledPlan::Builder builder;
  int in_slot = builder.add_input();
  int c_slot = builder.add_const(Tensor::scalar(2.0f));
  NodeDef node;
  node.name = "mul";
  node.op = "Mul";
  int out_slot = builder.add_step(std::move(node), {in_slot, c_slot}, 1);
  builder.set_outputs({out_slot});
  std::shared_ptr<CompiledPlan> plan = builder.finish();

  RunArena arena;
  for (int i = 0; i < 3; ++i) {
    auto out = plan->execute(arena, {Tensor::scalar(5.0f)}, nullptr, nullptr);
    EXPECT_FLOAT_EQ(out[0].scalar_value(), 10.0f);
  }
  EXPECT_EQ(plan->counters().runs.load(), 3);
  EXPECT_EQ(plan->counters().nodes_executed.load(), 3);
}

// --- pooled dynamic plans ---------------------------------------------------

struct ParallelismGuard {
  explicit ParallelismGuard(size_t n) { set_global_parallelism(n); }
  ~ParallelismGuard() { set_global_parallelism(1); }
};

class PooledPlanTest : public ExecPlanTest {
 protected:
  // A batchable elementwise pipeline with two branches per stage (step-DAG
  // width 2, so the parallel executor engages at threads > 1).
  OpRef build_pipeline(int64_t inner, int depth = 4) {
    OpRef x = ctx_.placeholder("x", DType::kFloat32,
                               Shape{kUnknownDim, inner});
    OpRef v = x;
    for (int i = 0; i < depth; ++i) {
      OpRef left = ctx_.neg(ctx_.mul(v, ctx_.scalar(2.0f)));
      OpRef right = ctx_.relu(ctx_.add(v, ctx_.scalar(0.5f)));
      v = ctx_.add(left, right);
    }
    x_ = x;
    return v;
  }

  static Tensor make_feed(int64_t n, int64_t inner) {
    std::vector<float> data(static_cast<size_t>(n * inner));
    for (size_t i = 0; i < data.size(); ++i) data[i] = 0.03f * (float)i - 1.0f;
    return Tensor::from_floats(Shape{n, inner}, data);
  }

  OpRef x_;
};

TEST_F(PooledPlanTest, SteadyStateRunsAllocateNothingNew) {
  // The buffer pool alone gives the zero-allocation steady state: after
  // the first run every kernel output is served from the pool's free lists.
  ParallelismGuard guard(1);
  OpRef v = build_pipeline(64, /*depth=*/6);
  Session s = make_session();
  auto plan = s.compile({{v.node, 0}}, {x_.node});

  Tensor feed = make_feed(4, 64);
  (void)plan->run({feed}, &store_, &rng_);
  const int64_t allocated = plan->bytes_allocated();
  const int64_t reused = plan->counters().bytes_reused.load();
  for (int i = 0; i < 10; ++i) (void)plan->run({feed}, &store_, &rng_);
  EXPECT_EQ(plan->bytes_allocated(), allocated) << "fresh allocation on the "
                                                   "steady-state hot path";
  EXPECT_GT(plan->counters().bytes_reused.load(), reused);
}

TEST_F(PooledPlanTest, FusedDensePlanAllocatesNothingNewInSteadyState) {
  // Fused composite kernels (FusedDense, FusedElementwise) allocate their
  // outputs through the same pool, so a fused inference plan reaches the
  // same steady state as SteadyStateRunsAllocateNothingNew.
  ParallelismGuard guard(1);
  std::vector<float> w(16 * 8), b(8);
  for (size_t i = 0; i < w.size(); ++i) w[i] = 0.02f * (float)i - 1.2f;
  for (size_t i = 0; i < b.size(); ++i) b[i] = 0.1f * (float)i;
  store_.create("w", Tensor::from_floats(Shape{16, 8}, w));
  store_.create("b", Tensor::from_floats(Shape{8}, b));
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{kUnknownDim, 16});
  OpRef h = ctx_.relu(ctx_.add(ctx_.matmul(x, ctx_.variable("w")),
                               ctx_.variable("b")));
  OpRef out = ctx_.mul(ctx_.neg(h), ctx_.scalar(0.5f));

  Session s = make_session();
  s.set_pattern_fusion(true);
  auto plan = s.compile({{out.node, 0}}, {x.node});
  ASSERT_GT(plan->fused_kernel_steps(), 0);

  Tensor feed = make_feed(4, 16);
  (void)plan->run({feed}, &store_, &rng_);
  const int64_t allocated = plan->bytes_allocated();
  const int64_t reused = plan->counters().bytes_reused.load();
  for (int i = 0; i < 10; ++i) (void)plan->run({feed}, &store_, &rng_);
  EXPECT_EQ(plan->bytes_allocated(), allocated)
      << "fresh allocation on the fused steady-state hot path";
  EXPECT_GT(plan->counters().bytes_reused.load(), reused);
}

TEST_F(PooledPlanTest, AliasingKernelStaysCorrectAcrossPooledRuns) {
  // identity() returns its input tensor, so one buffer backs two slots; the
  // pool may only recycle it once both handles are gone.
  ParallelismGuard guard(1);
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{kUnknownDim, 16});
  OpRef c = ctx_.neg(ctx_.identity(ctx_.neg(x)));
  OpRef d = ctx_.mul(c, ctx_.scalar(3.0f));
  Session s = make_session();
  auto plan = s.compile({{d.node, 0}}, {x.node});

  Tensor feed = make_feed(4, 16);
  Tensor want = kernels::mul(feed, Tensor::scalar(3.0f));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(want.equals(plan->run({feed}, &store_, &rng_)[0]))
        << "run " << i;
  }
}

// --- fast-path vs. session equivalence on a DQN update step ----------------

Json dqn_config(const std::string& backend) {
  Json cfg = Json::parse(R"({
    "type": "dqn",
    "network": [{"type": "dense", "units": 24, "activation": "relu"}],
    "memory": {"type": "prioritized", "capacity": 256},
    "optimizer": {"type": "adam", "learning_rate": 0.002},
    "exploration": {"eps_start": 0.8, "eps_end": 0.1, "decay_steps": 300},
    "update": {"batch_size": 16, "sync_interval": 10, "min_records": 32},
    "discount": 0.95
  })");
  cfg["backend"] = Json(backend);
  cfg["fast_path"] = Json(true);
  return cfg;
}

TEST(ExecPlanEquivalenceTest, FastPathMatchesSessionOnDQNUpdateBatch) {
  GridWorld env(GridWorld::Config{4, 0.01, 30, true});
  DQNAgent session_agent(dqn_config("static"), env.state_space(),
                         env.action_space());
  DQNAgent fastpath_agent(dqn_config("define_by_run"), env.state_space(),
                          env.action_space());
  session_agent.build();
  fastpath_agent.build();

  // Same seed, same init: both agents start from identical weights.
  const int64_t B = 4;
  const int64_t dim = static_cast<const BoxSpace&>(*env.state_space())
                          .value_shape()
                          .num_elements();
  std::vector<float> s(B * dim), s2(B * dim);
  for (size_t i = 0; i < s.size(); ++i) {
    s[i] = 0.01f * (float)i;
    s2[i] = 0.02f * (float)i;
  }
  std::vector<Tensor> batch = {
      Tensor::from_floats(Shape{B, dim}, s),
      Tensor::from_ints(Shape{B}, {0, 1, 2, 3}),
      Tensor::from_floats(Shape{B}, {1.0f, 0.0f, -1.0f, 0.5f}),
      Tensor::from_floats(Shape{B, dim}, s2),
      Tensor::from_bools(Shape{B}, {false, false, true, false}),
      Tensor::from_floats(Shape{B}, {1.0f, 1.0f, 1.0f, 1.0f}),
  };

  // Call 1 on the define-by-run side dispatches + traces; call 2 onward
  // lowers the trace onto a CompiledPlan and runs it. The static side runs
  // its build-time CompiledPlan each time. Weight updates on both sides
  // stay in lockstep, so each call's loss and |td| must agree bitwise.
  for (int call = 0; call < 3; ++call) {
    std::vector<Tensor> a =
        session_agent.executor().execute("update_batch", batch);
    std::vector<Tensor> b =
        fastpath_agent.executor().execute("update_batch", batch);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a[0].to_floats(), b[0].to_floats())
        << "loss diverged on call " << call;
    EXPECT_EQ(a[2].to_floats(), b[2].to_floats())
        << "|td| diverged on call " << call;
  }

  // The two backends' weights must also agree after the updates.
  auto wa = session_agent.get_weights();
  auto wb = fastpath_agent.get_weights();
  ASSERT_EQ(wa.size(), wb.size());
  for (const auto& [name, tensor] : wa) {
    ASSERT_TRUE(wb.count(name)) << name;
    EXPECT_EQ(tensor.to_floats(), wb[name].to_floats()) << name;
  }
}

}  // namespace
}  // namespace rlgraph
