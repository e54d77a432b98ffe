// Tests for the graph optimization passes: build-time DCE and constant
// folding, and per-plan pattern fusion, including endpoint remapping
// correctness and the closure-local size of fused graphs.
#include <gtest/gtest.h>

#include "agents/dqn_agent.h"
#include "agents/impala_agent.h"
#include "agents/sac_agent.h"
#include "backend/static_context.h"
#include "core/graph_builder.h"
#include "env/pendulum_env.h"
#include "env/vector_env.h"
#include "graph/passes.h"
#include "graph/session.h"

namespace rlgraph {
namespace {

class PassesTest : public ::testing::Test {
 protected:
  PassesTest() : rng_(3), ctx_(&store_, &rng_) {}

  Tensor eval(const OptimizeResult& opt, OpRef ref, const FeedMap& feeds = {}) {
    Session s(opt.graph, &store_, &rng_);
    Endpoint e = opt.endpoint_map.at({ref.node, ref.index});
    return s.run({e}, feeds)[0];
  }

  VariableStore store_;
  Rng rng_;
  StaticGraphContext ctx_;
};

TEST_F(PassesTest, DeadNodesRemoved) {
  OpRef live = ctx_.scalar(1.0f);
  OpRef dead = ctx_.neg(ctx_.scalar(2.0f));
  (void)dead;
  OptimizeResult opt =
      optimize_graph(ctx_.graph_def(), {{live.node, live.index}});
  EXPECT_EQ(opt.nodes_after, 1);
  EXPECT_FLOAT_EQ(eval(opt, live).scalar_value(), 1.0f);
}

TEST_F(PassesTest, ConstantFolding) {
  OpRef a = ctx_.scalar(2.0f);
  OpRef b = ctx_.scalar(3.0f);
  OpRef sum = ctx_.add(a, b);
  OpRef doubled = ctx_.mul(sum, ctx_.scalar(2.0f));
  OptimizeResult opt =
      optimize_graph(ctx_.graph_def(), {{doubled.node, doubled.index}});
  EXPECT_GE(opt.folded, 2);
  // Whole graph collapses to one constant.
  EXPECT_EQ(opt.nodes_after, 1);
  EXPECT_EQ(opt.graph->node(0).op, "Const");
  EXPECT_FLOAT_EQ(eval(opt, doubled).scalar_value(), 10.0f);
}

TEST_F(PassesTest, FoldingStopsAtPlaceholders) {
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{});
  OpRef y = ctx_.add(x, ctx_.add(ctx_.scalar(1.0f), ctx_.scalar(2.0f)));
  OptimizeResult opt = optimize_graph(ctx_.graph_def(),
                                      {{y.node, y.index}, {x.node, x.index}});
  EXPECT_EQ(opt.folded, 1);  // 1+2 folds, x+3 cannot
  FeedMap feeds;
  feeds[opt.endpoint_map.at({x.node, 0}).node] = Tensor::scalar(10.0f);
  EXPECT_FLOAT_EQ(eval(opt, y, feeds).scalar_value(), 13.0f);
}

TEST_F(PassesTest, StatefulOpsNeverFolded) {
  store_.create("v", Tensor::scalar(5.0f));
  OpRef read = ctx_.variable("v");
  OpRef y = ctx_.neg(read);
  OptimizeResult opt = optimize_graph(ctx_.graph_def(), {{y.node, y.index}});
  // Variable read survives; value tracks the store.
  EXPECT_FLOAT_EQ(eval(opt, y).scalar_value(), -5.0f);
  store_.set("v", Tensor::scalar(7.0f));
  EXPECT_FLOAT_EQ(eval(opt, y).scalar_value(), -7.0f);
}

// --- per-plan pattern fusion -------------------------------------------------

class PlanFusionTest : public PassesTest {
 protected:
  // Evaluate an endpoint of the ORIGINAL graph through the fused graph.
  Tensor eval_fused(const PlanFusionResult& fused, OpRef ref,
                    const FeedMap& feeds = {}) {
    Session s(fused.graph, &store_, &rng_);
    Endpoint e = fused.endpoint_map.at({ref.node, ref.index});
    FeedMap remapped;
    for (const auto& [node, value] : feeds) {
      remapped[fused.endpoint_map.at({node, 0}).node] = value;
    }
    return s.run({e}, remapped)[0];
  }

  Tensor eval_raw(OpRef ref, const FeedMap& feeds = {}) {
    Session s(ctx_.graph(), &store_, &rng_);
    return s.run({{ref.node, ref.index}}, feeds)[0];
  }

  static void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
    ASSERT_EQ(a.shape(), b.shape());
    const float* pa = a.data<float>();
    const float* pb = b.data<float>();
    for (int64_t i = 0; i < a.num_elements(); ++i) {
      EXPECT_EQ(pa[i], pb[i]) << "element " << i;
    }
  }
};

TEST_F(PlanFusionTest, MatMulBiasReluBecomesFusedDense) {
  store_.create("w", Tensor::from_floats(Shape{3, 2}, {1, -2, 3, 4, -5, 6}));
  store_.create("b", Tensor::from_floats(Shape{2}, {0.5f, -0.25f}));
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{kUnknownDim, 3});
  OpRef y = ctx_.relu(ctx_.add(ctx_.matmul(x, ctx_.variable("w")),
                               ctx_.variable("b")));

  PlanFusionResult fused = fuse_plan_patterns(ctx_.graph_def(), {{y.node, 0}});
  ASSERT_NE(fused.graph, nullptr);
  EXPECT_EQ(fused.fused_patterns, 1);
  EXPECT_EQ(fused.steps_saved, 2);  // Add + Relu absorbed into the MatMul
  const NodeDef& fn =
      fused.graph->node(fused.endpoint_map.at({y.node, 0}).node);
  EXPECT_EQ(fn.op, "FusedDense");

  FeedMap feeds;
  feeds[x.node] = Tensor::from_floats(Shape{2, 3}, {1, -1, 2, 0, 3, -2});
  expect_bitwise_equal(eval_fused(fused, y, feeds), eval_raw(y, feeds));
}

TEST_F(PlanFusionTest, MultiConsumerIntermediateBlocksDenseFusion) {
  // Near miss: the MatMul output feeds both the bias Add and a second
  // consumer, so absorbing it would recompute (or orphan) that consumer.
  store_.create("w2", Tensor::from_floats(Shape{2, 2}, {1, 2, 3, 4}));
  store_.create("b2", Tensor::from_floats(Shape{2}, {1, 1}));
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{kUnknownDim, 2});
  OpRef mm = ctx_.matmul(x, ctx_.variable("w2"));
  OpRef biased = ctx_.add(mm, ctx_.variable("b2"));
  OpRef other = ctx_.neg(mm);  // second consumer of the MatMul
  OpRef out = ctx_.add(biased, other);

  PlanFusionResult fused =
      fuse_plan_patterns(ctx_.graph_def(), {{out.node, 0}});
  EXPECT_EQ(fused.fused_patterns, 0);
  if (fused.graph != nullptr) {  // chain fusion may still fire elsewhere
    FeedMap feeds;
    feeds[x.node] = Tensor::from_floats(Shape{1, 2}, {2, -3});
    expect_bitwise_equal(eval_fused(fused, out, feeds), eval_raw(out, feeds));
  }
}

TEST_F(PlanFusionTest, BroadcastBinaryChainFuses) {
  // relu(x + b) * s with b [4] broadcast over [B, 4] and a scalar s: one
  // FusedElementwise with two broadcast extras.
  store_.create("bias_vec", Tensor::from_floats(Shape{4}, {1, -1, 2, -2}));
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{2, 4});
  OpRef y = ctx_.mul(ctx_.relu(ctx_.add(x, ctx_.variable("bias_vec"))),
                     ctx_.scalar(3.0f));

  PlanFusionResult fused = fuse_plan_patterns(ctx_.graph_def(), {{y.node, 0}});
  ASSERT_NE(fused.graph, nullptr);
  EXPECT_EQ(fused.fused_chains, 1);
  EXPECT_GE(fused.steps_saved, 2);
  const NodeDef& fn =
      fused.graph->node(fused.endpoint_map.at({y.node, 0}).node);
  EXPECT_EQ(fn.op, "FusedElementwise");
  EXPECT_EQ(fn.inputs.size(), 3u);  // chain input + bias extra + scalar extra

  FeedMap feeds;
  feeds[x.node] =
      Tensor::from_floats(Shape{2, 4}, {0.5f, -2, 1, 3, -1, 4, -0.5f, 2});
  expect_bitwise_equal(eval_fused(fused, y, feeds), eval_raw(y, feeds));
}

TEST_F(PlanFusionTest, KeptEndpointsAreNeverAbsorbed) {
  // Fetching the intermediate relu keeps it addressable: the chain above it
  // must not absorb it.
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{kUnknownDim});
  OpRef mid = ctx_.relu(x);
  OpRef y = ctx_.tanh(ctx_.neg(mid));

  PlanFusionResult fused = fuse_plan_patterns(
      ctx_.graph_def(), {{y.node, 0}, {mid.node, 0}});
  ASSERT_NE(fused.graph, nullptr);  // neg+tanh still fuse
  EXPECT_EQ(fused.fused_chains, 1);
  EXPECT_EQ(fused.steps_saved, 1);
  FeedMap feeds;
  feeds[x.node] = Tensor::from_floats(Shape{3}, {-1, 0.5f, 2});
  expect_bitwise_equal(eval_fused(fused, mid, feeds), eval_raw(mid, feeds));
  expect_bitwise_equal(eval_fused(fused, y, feeds), eval_raw(y, feeds));
}

TEST_F(PlanFusionTest, MultiConsumerIntermediateBlocksChainFusion) {
  // relu(x) feeds two chains: absorbing it into either would orphan the
  // other consumer, so it stays a step of its own while the neg -> tanh
  // chain above it still fuses.
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{kUnknownDim});
  OpRef mid = ctx_.relu(x);
  OpRef y1 = ctx_.tanh(ctx_.neg(mid));
  OpRef y2 = ctx_.exp(mid);

  PlanFusionResult fused =
      fuse_plan_patterns(ctx_.graph_def(), {{y1.node, 0}, {y2.node, 0}});
  ASSERT_NE(fused.graph, nullptr);
  EXPECT_EQ(fused.fused_chains, 1);
  EXPECT_EQ(fused.steps_saved, 1);
  EXPECT_EQ(fused.graph->node(fused.endpoint_map.at({mid.node, 0}).node).op,
            "Relu");
  FeedMap feeds;
  feeds[x.node] = Tensor::from_floats(Shape{3}, {-1, 0.5f, 2});
  expect_bitwise_equal(eval_fused(fused, y1, feeds), eval_raw(y1, feeds));
  expect_bitwise_equal(eval_fused(fused, y2, feeds), eval_raw(y2, feeds));
}

TEST_F(PlanFusionTest, StatefulClosureDeclines) {
  // An Assign in the fetched closure marks a training/acting plan; the
  // whole pass declines rather than fusing around state writes.
  store_.create("sv", Tensor::scalar(1.0f));
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{kUnknownDim});
  OpRef chain = ctx_.tanh(ctx_.relu(x));
  OpRef write = ctx_.assign("sv", chain);
  PlanFusionResult fused =
      fuse_plan_patterns(ctx_.graph_def(), {{write.node, 0}});
  EXPECT_EQ(fused.graph, nullptr);
  EXPECT_EQ(fused.fused_chains, 0);
  EXPECT_EQ(fused.fused_patterns, 0);
}

TEST_F(PlanFusionTest, FusedGraphHoldsOnlyClosureAndFeeds) {
  // A MatMul+Add+Relu plan beside an unrelated 200-node subgraph: the fused
  // graph is the plan's closure (x, w, b, FusedDense), not a graph copy.
  store_.create("w", Tensor::from_floats(Shape{3, 2}, {1, -2, 3, 4, -5, 6}));
  store_.create("b", Tensor::from_floats(Shape{2}, {0.5f, -0.25f}));
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{kUnknownDim, 3});
  OpRef y = ctx_.relu(ctx_.add(ctx_.matmul(x, ctx_.variable("w")),
                               ctx_.variable("b")));
  OpRef z = ctx_.placeholder("z", DType::kFloat32, Shape{kUnknownDim, 3});
  OpRef u = z;
  for (int i = 0; i < 100; ++i) u = ctx_.add(ctx_.tanh(u), z);
  ASSERT_GT(ctx_.graph_def().num_nodes(), 200);

  PlanFusionResult fused = fuse_plan_patterns(ctx_.graph_def(), {{y.node, 0}});
  ASSERT_NE(fused.graph, nullptr);
  EXPECT_EQ(fused.fused_patterns, 1);
  EXPECT_EQ(fused.fused_chains, 0);  // the unrelated chain is not in the plan
  EXPECT_EQ(fused.graph->num_nodes(), 4);
  EXPECT_EQ(fused.endpoint_map.size(), 6u);  // the six closure nodes
  EXPECT_EQ(fused.endpoint_map.count({u.node, 0}), 0u);
  EXPECT_EQ(fused.endpoint_map.count({z.node, 0}), 0u);
  FeedMap feeds;
  feeds[x.node] = Tensor::from_floats(Shape{2, 3}, {1, -1, 2, 0, 3, -2});
  expect_bitwise_equal(eval_fused(fused, y, feeds), eval_raw(y, feeds));

  // The plan's feeds are emitted too, read by the closure or not.
  PlanFusionResult with_feeds =
      fuse_plan_patterns(ctx_.graph_def(), {{y.node, 0}}, {x.node, z.node});
  ASSERT_NE(with_feeds.graph, nullptr);
  EXPECT_EQ(with_feeds.graph->num_nodes(), 5);
  EXPECT_EQ(with_feeds.endpoint_map.size(), 7u);
  EXPECT_EQ(
      with_feeds.graph->node(with_feeds.endpoint_map.at({z.node, 0}).node).op,
      "Placeholder");
}

TEST_F(PlanFusionTest, FusedCompileToleratesFeedOutsideClosure) {
  store_.create("w", Tensor::from_floats(Shape{3, 2}, {1, -2, 3, 4, -5, 6}));
  store_.create("b", Tensor::from_floats(Shape{2}, {0.5f, -0.25f}));
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{kUnknownDim, 3});
  OpRef ignored = ctx_.placeholder("ignored", DType::kFloat32, Shape{});
  OpRef y = ctx_.relu(ctx_.add(ctx_.matmul(x, ctx_.variable("w")),
                               ctx_.variable("b")));
  const std::string ignored_name = ctx_.graph_def().node(ignored.node).name;
  std::vector<Endpoint> fetches = {{y.node, 0}};
  std::vector<int> feed_nodes = {x.node, ignored.node};
  std::vector<Tensor> feed_values = {
      Tensor::from_floats(Shape{2, 3}, {1, -1, 2, 0, 3, -2}),
      Tensor::scalar(7.0f)};

  auto unfused = CompiledPlan::compile(ctx_.graph(), fetches, feed_nodes);
  RunArena unfused_arena;
  Tensor want =
      unfused->execute(unfused_arena, feed_values, &store_, &rng_)[0];
  auto plan = CompiledPlan::compile(ctx_.graph(), fetches, feed_nodes,
                                    /*fuse_patterns=*/true);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->fused_kernel_steps(), 1);
  EXPECT_EQ(plan->num_feeds(), 2u);
  EXPECT_EQ(plan->unused_feed_names(),
            std::vector<std::string>{ignored_name});
  EXPECT_EQ(plan->graph_num_nodes(), 5u);  // x, w, b, FusedDense, ignored
  RunArena arena;
  expect_bitwise_equal(plan->execute(arena, feed_values, &store_, &rng_)[0],
                       want);
}

TEST_F(PlanFusionTest, ConsumerOutsideClosureDoesNotBlockDenseFusion) {
  // The MatMul output also feeds a Neg the plan never fetches. That consumer
  // never runs in this plan, so the MatMul+Add still fuses, bitwise equal.
  store_.create("w2", Tensor::from_floats(Shape{2, 2}, {1, 2, 3, 4}));
  store_.create("b2", Tensor::from_floats(Shape{2}, {1, -1}));
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{kUnknownDim, 2});
  OpRef mm = ctx_.matmul(x, ctx_.variable("w2"));
  OpRef biased = ctx_.add(mm, ctx_.variable("b2"));
  OpRef other = ctx_.neg(mm);  // second consumer, outside the closure
  (void)other;

  PlanFusionResult fused =
      fuse_plan_patterns(ctx_.graph_def(), {{biased.node, 0}});
  ASSERT_NE(fused.graph, nullptr);
  EXPECT_EQ(fused.fused_patterns, 1);

  std::vector<Endpoint> fetches = {{biased.node, 0}};
  auto fused_plan = CompiledPlan::compile(ctx_.graph(), fetches, {x.node},
                                          /*fuse_patterns=*/true);
  auto unfused_plan = CompiledPlan::compile(ctx_.graph(), fetches, {x.node});
  EXPECT_EQ(fused_plan->fused_kernel_steps(), 1);
  Tensor feed = Tensor::from_floats(Shape{3, 2}, {2, -3, 0.5f, 1, -1, 4});
  RunArena fused_arena;
  RunArena unfused_arena;
  expect_bitwise_equal(
      fused_plan->execute(fused_arena, {feed}, &store_, &rng_)[0],
      unfused_plan->execute(unfused_arena, {feed}, &store_, &rng_)[0]);
}

TEST_F(PassesTest, OptimizedGraphMatchesUnoptimized) {
  // A realistic mixed graph: math on placeholders, constants, a variable.
  store_.create("w", Tensor::from_floats(Shape{3, 2}, {1, 2, 3, 4, 5, 6}));
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{kUnknownDim, 3});
  OpRef w = ctx_.variable("w");
  OpRef h = ctx_.relu(ctx_.matmul(x, w));
  OpRef scaled = ctx_.mul(h, ctx_.add(ctx_.scalar(1.0f), ctx_.scalar(1.0f)));
  OpRef out = ctx_.reduce_sum(ctx_.tanh(ctx_.neg(scaled)));

  Tensor input = Tensor::from_floats(Shape{2, 3}, {1, -1, 2, 0, 3, -2});
  Session raw(ctx_.graph(), &store_, &rng_);
  FeedMap feeds;
  feeds[x.node] = input;
  Tensor expected = raw.run({{out.node, 0}}, feeds)[0];

  OptimizeResult opt = optimize_graph(ctx_.graph_def(),
                                      {{out.node, 0}, {x.node, 0}});
  EXPECT_LT(opt.nodes_after, opt.nodes_before);
  FeedMap feeds2;
  feeds2[opt.endpoint_map.at({x.node, 0}).node] = input;
  Tensor got = eval(opt, out, feeds2);
  EXPECT_TRUE(got.all_close(expected, 1e-5));
}

// --- agent graphs --------------------------------------------------------------

// Builds an agent's static graph the way GraphExecutor::build does, up to
// (not including) optimize_graph, so a test can run the pass itself.
template <typename AgentT>
class RawGraphProbe : public AgentT {
 public:
  using AgentT::AgentT;

  std::shared_ptr<GraphDef> build_raw_graph(std::vector<Endpoint>* roots) {
    this->setup_graph();
    GraphBuilder builder(this->root_.get(), this->api_spaces_);
    builder.assemble();
    StaticGraphContext ctx(&variables_, &rng_);
    BuildStats stats;
    for (const auto& [_, api] : builder.build(ctx, &stats)) {
      for (const OpRef& f : api.fetches) roots->push_back({f.node, f.index});
      for (const OpRef& p : api.placeholders) {
        roots->push_back({p.node, p.index});
      }
    }
    return ctx.graph();
  }

 private:
  VariableStore variables_;
  Rng rng_{1};
};

void expect_optimize_fixed_point(const GraphDef& raw,
                                 const std::vector<Endpoint>& roots) {
  OptimizeResult once = optimize_graph(raw, roots);
  EXPECT_LT(once.nodes_after, once.nodes_before);
  std::vector<Endpoint> mapped;
  for (const Endpoint& r : roots) mapped.push_back(once.endpoint_map.at(r));
  OptimizeResult twice = optimize_graph(*once.graph, mapped);
  EXPECT_EQ(twice.folded, 0);
  EXPECT_EQ(twice.nodes_after, twice.nodes_before);  // removes nothing
}

TEST(OptimizeAgentGraphTest, FixedPointOnDQNImpalaAndSacGraphs) {
  {
    RawGraphProbe<DQNAgent> dqn(Json::parse(R"({
      "type": "dqn",
      "network": [{"type": "dense", "units": 32, "activation": "relu"}],
      "memory": {"type": "replay", "capacity": 256},
      "optimizer": {"type": "adam", "learning_rate": 0.001},
      "update": {"batch_size": 16, "sync_interval": 50, "min_records": 32},
      "double_q": true, "dueling_q": true, "n_step": 3
    })"), FloatBox(Shape{16}), IntBox(4));
    std::vector<Endpoint> roots;
    std::shared_ptr<GraphDef> graph = dqn.build_raw_graph(&roots);
    SCOPED_TRACE("dqn");
    expect_optimize_fixed_point(*graph, roots);
  }
  Json env_spec = Json::parse(R"({"type": "catch"})");
  VectorEnv env(env_spec, 2, 7);
  for (IMPALAAgent::Mode mode :
       {IMPALAAgent::Mode::kActor, IMPALAAgent::Mode::kLearner}) {
    RawGraphProbe<IMPALAAgent> impala(Json::parse(R"({
      "type": "impala_actor",
      "network": [{"type": "conv2d", "filters": 4, "kernel": 3, "stride": 2,
                   "activation": "relu"},
                  {"type": "dense", "units": 16, "activation": "relu"}],
      "rollout_length": 6, "discount": 0.95,
      "optimizer": {"type": "adam", "learning_rate": 0.001}
    })"), env.state_space(), env.action_space(), mode);
    impala.set_queue(std::make_shared<SharedTensorQueue>(2));
    std::vector<Endpoint> roots;
    std::shared_ptr<GraphDef> graph = impala.build_raw_graph(&roots);
    SCOPED_TRACE(mode == IMPALAAgent::Mode::kActor ? "impala actor"
                                                   : "impala learner");
    expect_optimize_fixed_point(*graph, roots);
  }
  {
    PendulumEnv pendulum(PendulumEnv::Config{});
    RawGraphProbe<SacAgent> sac(Json::parse(R"({
      "type": "sac",
      "network": [{"type": "dense", "units": 16, "activation": "relu"}],
      "optimizer": {"type": "adam", "learning_rate": 0.003},
      "memory": {"capacity": 512},
      "update": {"batch_size": 16, "min_records": 32}
    })"), pendulum.state_space(), pendulum.action_space());
    std::vector<Endpoint> roots;
    std::shared_ptr<GraphDef> graph = sac.build_raw_graph(&roots);
    SCOPED_TRACE("sac");
    expect_optimize_fixed_point(*graph, roots);
  }
}

TEST(PlanFusionAgentTest, ServePlansHoldNoMoreThanTheirClosure) {
  // The dense-32 serving policy (obs 16, 4 actions): after greedy acts at
  // six batch sizes, an act_greedy plan compiled by the agent's session
  // keeps alive only its fused closure. A plan's slots number at least its
  // closure's nodes (one per output, at least one per node), and it has no
  // unused feeds here. Compiling it again counts one more compile.
  DQNAgent agent(Json::parse(R"({
    "type": "dqn",
    "backend": "static",
    "network": [{"type": "dense", "units": 32, "activation": "relu"}],
    "memory": {"type": "replay", "capacity": 256},
    "optimizer": {"type": "adam", "learning_rate": 0.001},
    "exploration": {"eps_start": 0.1, "eps_end": 0.1, "decay_steps": 100},
    "update": {"batch_size": 16, "sync_interval": 50, "min_records": 32},
    "discount": 0.99
  })"), FloatBox(Shape{16}), IntBox(4));
  agent.build();
  const std::vector<int64_t> batches = {1, 2, 4, 8, 16, 32};
  for (int64_t b : batches) {
    agent.get_actions(Tensor::zeros(DType::kFloat32, Shape{b, 16}),
                      /*explore=*/false);
  }

  GraphExecutor& ex = agent.executor();
  const BuiltApi& api = ex.api_registry().at("act_greedy");
  std::vector<Endpoint> fetches;
  for (const OpRef& f : api.fetches) fetches.push_back({f.node, f.index});
  std::vector<int> feed_nodes;
  for (const OpRef& p : api.placeholders) feed_nodes.push_back(p.node);
  Session* session = ex.session();
  const int64_t compiles = session->plan_compiles();

  std::shared_ptr<const CompiledPlan> plan =
      session->compile(fetches, feed_nodes);
  EXPECT_GT(plan->fused_kernel_steps(), 0);
  EXPECT_TRUE(plan->unused_feed_names().empty());
  EXPECT_LE(plan->graph_num_nodes(), plan->num_slots());
  EXPECT_EQ(session->plan_compiles(), compiles + 1);
}

}  // namespace
}  // namespace rlgraph
