// Inter-op parallel scheduling of CompiledPlans: wide plans produce results
// bitwise identical to serial execution at any thread count, stateful steps
// stay ordered (RNG draws, variable writes), failures propagate, concurrent
// runs of one plan get private arenas, and a full DQN training trace is
// reproducible at 1/2/8 threads.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "agents/dqn_agent.h"
#include "backend/static_context.h"
#include "env/grid_world.h"
#include "graph/exec_plan.h"
#include "graph/session.h"
#include "util/thread_pool.h"

namespace rlgraph {
namespace {

struct ParallelismGuard {
  explicit ParallelismGuard(size_t n) { set_global_parallelism(n); }
  ~ParallelismGuard() { set_global_parallelism(1); }
};

class ParallelPlanTest : public ::testing::Test {
 protected:
  ParallelPlanTest() : rng_(7), ctx_(&store_, &rng_) {}

  Session make_session() { return Session(ctx_.graph(), &store_, &rng_); }

  VariableStore store_;
  Rng rng_;
  StaticGraphContext ctx_;
};

TEST_F(ParallelPlanTest, WidePlanMatchesSerialBitwise) {
  // Eight independent branches off one input: max_parallel_width() == 8,
  // so the parallel executor genuinely overlaps steps.
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{256});
  std::vector<OpRef> branches;
  for (int i = 0; i < 8; ++i) {
    OpRef b = ctx_.tanh(ctx_.mul(x, ctx_.scalar(0.25f * (i + 1))));
    branches.push_back(ctx_.exp(ctx_.neg(b)));
  }
  OpRef sum = branches[0];
  for (int i = 1; i < 8; ++i) sum = ctx_.add(sum, branches[i]);

  Session s = make_session();
  auto plan = s.compile({{sum.node, 0}}, {x.node});
  EXPECT_GE(plan->max_parallel_width(), 8);

  std::vector<float> data(256);
  for (size_t i = 0; i < data.size(); ++i) data[i] = 0.013f * (float)i - 1.5f;
  Tensor feed = Tensor::from_floats(Shape{256}, data);

  set_global_parallelism(1);
  std::vector<float> serial = plan->run({feed}, &store_, &rng_)[0].to_floats();
  for (size_t threads : {size_t{2}, size_t{8}}) {
    ParallelismGuard guard(threads);
    for (int rep = 0; rep < 5; ++rep) {
      EXPECT_EQ(plan->run({feed}, &store_, &rng_)[0].to_floats(), serial)
          << threads << " threads, rep " << rep;
    }
  }
}

TEST_F(ParallelPlanTest, ChainPlanStaysOnSerialPath) {
  // A pure chain has width 1: the executor must not pay scheduling
  // overhead (and max_parallel_width() advertises that).
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{64});
  OpRef v = x;
  for (int i = 0; i < 6; ++i) v = ctx_.neg(v);
  Session s = make_session();
  auto plan = s.compile({{v.node, 0}}, {x.node});
  EXPECT_EQ(plan->max_parallel_width(), 1);

  ParallelismGuard guard(8);
  std::vector<float> data(64, 1.25f);
  Tensor out =
      plan->run({Tensor::from_floats(Shape{64}, data)}, &store_, &rng_)[0];
  EXPECT_EQ(out.to_floats(), data);  // even number of negations
}

TEST_F(ParallelPlanTest, StatefulStepsKeepScheduleOrder) {
  // Two assign_adds into the same variable plus a read, all fetched from
  // one plan: the stateful chain must serialize them in schedule order at
  // any parallelism, alongside enough pure width to trigger the parallel
  // executor.
  ctx_.create_variable("acc", Tensor::zeros(DType::kFloat32, Shape{16}));
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{16});
  std::vector<OpRef> pure;
  for (int i = 0; i < 6; ++i) {
    pure.push_back(ctx_.tanh(ctx_.mul(x, ctx_.scalar(0.1f * (i + 1)))));
  }
  OpRef wide = pure[0];
  for (int i = 1; i < 6; ++i) wide = ctx_.add(wide, pure[i]);
  OpRef a1 = ctx_.assign_add("acc", x);
  OpRef a2 = ctx_.assign_add("acc", ctx_.mul(x, ctx_.scalar(2.0f)));
  OpRef read = ctx_.variable("acc");
  std::vector<int> read_deps{a1.node, a2.node};
  ctx_.graph()->mutable_node(read.node).control_inputs = read_deps;

  Session s = make_session();
  auto plan = s.compile({{wide.node, 0}, {read.node, 0}}, {x.node});

  std::vector<float> data(16, 0.5f);
  Tensor feed = Tensor::from_floats(Shape{16}, data);
  for (size_t threads : {size_t{1}, size_t{8}}) {
    store_.set("acc", Tensor::zeros(DType::kFloat32, Shape{16}));
    ParallelismGuard guard(threads);
    std::vector<Tensor> out = plan->run({feed}, &store_, &rng_);
    // 0.5 + 1.0 applied once each: the read (ordered after both writes by
    // control deps + the stateful chain) sees 1.5 everywhere.
    for (float v : out[1].to_floats()) {
      EXPECT_FLOAT_EQ(v, 1.5f) << threads << " threads";
    }
  }
}

TEST_F(ParallelPlanTest, ConcurrentRunsOfOnePlanGetPrivateArenas) {
  // Four threads run one stateless wide plan at once, each with its own
  // feeds. CompiledPlan::run hands every concurrent run a private arena
  // from the plan's free list, so each output bitwise equals the serial
  // result for the same feed, at one pool thread and at several.
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{kUnknownDim, 32});
  std::vector<OpRef> branches;
  for (int i = 0; i < 4; ++i) {
    branches.push_back(ctx_.tanh(ctx_.mul(x, ctx_.scalar(0.3f * (i + 1)))));
  }
  OpRef sum = branches[0];
  for (int i = 1; i < 4; ++i) sum = ctx_.add(sum, ctx_.neg(branches[i]));

  Session s = make_session();
  std::shared_ptr<const CompiledPlan> plan =
      s.compile({{sum.node, 0}}, {x.node});

  constexpr int kThreads = 4;
  constexpr int kRuns = 50;
  auto feed_for = [](int thread, int run) {
    const int64_t rows = 1 + (thread + run) % 4;
    std::vector<float> data(static_cast<size_t>(rows * 32));
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = 0.01f * static_cast<float>(i) - 0.1f * thread + 0.003f * run;
    }
    return Tensor::from_floats(Shape{rows, 32}, data);
  };
  std::vector<std::vector<Tensor>> serial(kThreads);
  set_global_parallelism(1);
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRuns; ++r) {
      serial[t].push_back(plan->run({feed_for(t, r)}, &store_, &rng_)[0]);
    }
  }

  for (size_t pool_threads : {size_t{1}, size_t{2}}) {
    ParallelismGuard guard(pool_threads);
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int r = 0; r < kRuns; ++r) {
          Tensor out = plan->run({feed_for(t, r)}, &store_, &rng_)[0];
          if (!out.equals(serial[t][r])) ++mismatches[t];
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mismatches[t], 0)
          << "thread " << t << ", " << pool_threads << " pool threads";
    }
  }
  EXPECT_EQ(s.num_runs(), 3 * kThreads * kRuns);
}

TEST_F(ParallelPlanTest, FailingStepPropagatesFromParallelExecution) {
  // A wide plan where one branch reads an unfed placeholder: its kernel
  // throws mid-run on some pool thread, and the submitting thread must
  // observe that exception (first failure wins, run terminates cleanly).
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{32});
  OpRef unfed = ctx_.placeholder("unfed", DType::kFloat32, Shape{32});
  std::vector<OpRef> branches;
  for (int i = 0; i < 6; ++i) {
    branches.push_back(ctx_.tanh(ctx_.mul(x, ctx_.scalar(0.2f * (i + 1)))));
  }
  OpRef bad = ctx_.neg(unfed);
  OpRef sum = bad;
  for (const OpRef& b : branches) sum = ctx_.add(sum, b);

  auto plan = CompiledPlan::compile(ctx_.graph(), {{sum.node, 0}}, {x.node});
  ASSERT_GE(plan->max_parallel_width(), 2);
  ParallelismGuard guard(8);
  RunArena arena;
  std::vector<float> data(32, 1.0f);
  EXPECT_THROW(plan->execute(arena, {Tensor::from_floats(Shape{32}, data)},
                             &store_, &rng_),
               Error);
}

TEST_F(ParallelPlanTest, FusedPlanBitwiseMatchesUnfusedAtAnyThreadCount) {
  // A two-layer dense network plus an elementwise tail: pattern fusion
  // collapses MatMul+Add+activation into FusedDense steps and the tail into
  // one FusedElementwise. The fused kernels reuse the standalone kernels'
  // shard grains and per-element loops, so results are bitwise identical to
  // the unfused plan at any thread count — with fewer dispatches.
  auto fill = [](int64_t count, float scale) {
    std::vector<float> v(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      v[static_cast<size_t>(i)] =
          scale * std::sin(0.37f * static_cast<float>(i));
    }
    return v;
  };
  store_.create("w1", Tensor::from_floats(Shape{32, 32}, fill(32 * 32, 0.3f)));
  store_.create("b1", Tensor::from_floats(Shape{32}, fill(32, 0.1f)));
  store_.create("w2", Tensor::from_floats(Shape{32, 16}, fill(32 * 16, 0.25f)));
  store_.create("b2", Tensor::from_floats(Shape{16}, fill(16, 0.05f)));

  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{64, 32});
  OpRef h1 = ctx_.relu(ctx_.add(ctx_.matmul(x, ctx_.variable("w1")),
                                ctx_.variable("b1")));
  OpRef h2 = ctx_.tanh(ctx_.add(ctx_.matmul(h1, ctx_.variable("w2")),
                                ctx_.variable("b2")));
  OpRef out = ctx_.mul(ctx_.neg(h2), ctx_.scalar(0.5f));

  auto unfused =
      CompiledPlan::compile(ctx_.graph(), {{out.node, 0}}, {x.node});
  auto fused = CompiledPlan::compile(ctx_.graph(), {{out.node, 0}}, {x.node},
                                     /*fuse_patterns=*/true);
  EXPECT_GE(fused->fused_kernel_steps(), 3);  // 2x FusedDense + tail chain
  EXPECT_LT(fused->num_steps(), unfused->num_steps());

  Tensor feed = Tensor::from_floats(Shape{64, 32}, fill(64 * 32, 1.0f));
  set_global_parallelism(1);
  RunArena serial_arena;
  std::vector<float> serial =
      unfused->execute(serial_arena, {feed}, &store_, &rng_)[0].to_floats();
  {
    RunArena arena;
    EXPECT_EQ(fused->execute(arena, {feed}, &store_, &rng_)[0].to_floats(),
              serial);
  }
  for (size_t threads : {size_t{2}, size_t{8}}) {
    ParallelismGuard guard(threads);
    for (int rep = 0; rep < 3; ++rep) {
      RunArena fused_arena;
      EXPECT_EQ(
          fused->execute(fused_arena, {feed}, &store_, &rng_)[0].to_floats(),
          serial)
          << threads << " threads, rep " << rep;
      RunArena unfused_arena;
      EXPECT_EQ(
          unfused->execute(unfused_arena, {feed}, &store_, &rng_)[0]
              .to_floats(),
          serial)
          << threads << " threads, rep " << rep;
    }
  }
}

TEST_F(ParallelPlanTest, FusedConvPlanBitwiseMatchesUnfusedAtAnyThreadCount) {
  // Conv2D + bias + {none, relu, tanh, sigmoid} at stride 1/2 with same and
  // valid padding. The fused kernel runs conv2d's own loop with a bias +
  // activation epilogue, so it equals the unfused Conv2D -> Add -> act plan
  // bitwise. 16 images of 8x8 give the conv enough rows to shard.
  auto fill = [](int64_t count, float scale) {
    std::vector<float> v(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      v[static_cast<size_t>(i)] =
          scale * std::sin(0.37f * static_cast<float>(i));
    }
    return v;
  };
  store_.create("cf", Tensor::from_floats(Shape{3, 3, 3, 8},
                                          fill(3 * 3 * 3 * 8, 0.2f)));
  store_.create("cb", Tensor::from_floats(Shape{8}, fill(8, 0.1f)));
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{16, 8, 8, 3});
  Tensor feed =
      Tensor::from_floats(Shape{16, 8, 8, 3}, fill(16 * 8 * 8 * 3, 1.0f));

  for (int64_t stride : {1, 2}) {
    for (bool same : {true, false}) {
      for (const std::string act : {"none", "relu", "tanh", "sigmoid"}) {
        SCOPED_TRACE("stride " + std::to_string(stride) +
                     (same ? " same " : " valid ") + act);
        OpRef h = ctx_.add(
            ctx_.apply("Conv2D", {x, ctx_.variable("cf")},
                       {{"stride", stride}, {"same_padding", same}}),
            ctx_.variable("cb"));
        if (act == "relu") h = ctx_.relu(h);
        if (act == "tanh") h = ctx_.tanh(h);
        if (act == "sigmoid") h = ctx_.sigmoid(h);

        auto unfused =
            CompiledPlan::compile(ctx_.graph(), {{h.node, 0}}, {x.node});
        auto fused = CompiledPlan::compile(ctx_.graph(), {{h.node, 0}},
                                           {x.node}, /*fuse_patterns=*/true);
        EXPECT_EQ(fused->fused_kernel_steps(), 1);
        EXPECT_LT(fused->num_steps(), unfused->num_steps());

        set_global_parallelism(1);
        RunArena serial_arena;
        std::vector<float> serial =
            unfused->execute(serial_arena, {feed}, &store_, &rng_)[0]
                .to_floats();
        RunArena fused_serial_arena;
        EXPECT_EQ(fused->execute(fused_serial_arena, {feed}, &store_,
                                 &rng_)[0]
                      .to_floats(),
                  serial);
        for (size_t threads : {size_t{2}, size_t{8}}) {
          ParallelismGuard guard(threads);
          RunArena fused_arena;
          EXPECT_EQ(
              fused->execute(fused_arena, {feed}, &store_, &rng_)[0]
                  .to_floats(),
              serial)
              << threads << " threads";
          RunArena unfused_arena;
          EXPECT_EQ(
              unfused->execute(unfused_arena, {feed}, &store_, &rng_)[0]
                  .to_floats(),
              serial)
              << threads << " threads";
        }
      }
    }
  }
}

Json dqn_config() {
  Json cfg = Json::parse(R"({
    "type": "dqn",
    "network": [{"type": "dense", "units": 24, "activation": "relu"}],
    "memory": {"type": "prioritized", "capacity": 256},
    "optimizer": {"type": "adam", "learning_rate": 0.002},
    "exploration": {"eps_start": 0.8, "eps_end": 0.1, "decay_steps": 300},
    "update": {"batch_size": 16, "sync_interval": 10, "min_records": 32},
    "discount": 0.95
  })");
  cfg["backend"] = Json("static");
  return cfg;
}

struct Trace {
  std::vector<int32_t> actions;
  std::vector<double> losses;
};

Trace run_dqn(int steps) {
  GridWorld env(GridWorld::Config{4, 0.01, 30, true});
  env.seed(99);
  DQNAgent agent(dqn_config(), env.state_space(), env.action_space());
  agent.build();
  Trace trace;
  Tensor obs = env.reset();
  for (int i = 0; i < steps; ++i) {
    Tensor batch = obs.reshaped(obs.shape().prepend(1));
    Tensor action = agent.get_actions(batch);
    trace.actions.push_back(action.to_ints()[0]);
    StepResult r = env.step(action.to_ints()[0]);
    agent.observe(agent.last_preprocessed(), action,
                  Tensor::from_floats(Shape{1}, {(float)r.reward}),
                  r.observation.reshaped(r.observation.shape().prepend(1)),
                  Tensor::from_bools(Shape{1}, {r.terminal}));
    trace.losses.push_back(agent.update());
    obs = r.terminal ? env.reset() : r.observation;
  }
  return trace;
}

TEST(ParallelDQNTest, FullUpdateTraceIdenticalAtAnyThreadCount) {
  // The tentpole acceptance test: a complete DQN act/observe/update loop —
  // forward pass, loss, autodiff backward pass, Adam apply, target sync —
  // produces bit-identical actions and losses at 1, 2, and 8 threads.
  set_global_parallelism(1);
  Trace serial = run_dqn(80);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    ParallelismGuard guard(threads);
    Trace parallel = run_dqn(80);
    EXPECT_EQ(serial.actions, parallel.actions) << threads << " threads";
    EXPECT_EQ(serial.losses, parallel.losses) << threads << " threads";
  }
}

}  // namespace
}  // namespace rlgraph
