// Tests for the graph optimization passes: build-time DCE and constant
// folding, and per-plan pattern fusion, including endpoint remapping
// correctness.
#include <gtest/gtest.h>

#include "backend/static_context.h"
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

}  // namespace
}  // namespace rlgraph
