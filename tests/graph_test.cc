// Tests for the dataflow IR: GraphDef, op schemas, and the Session
// evaluator (feeds/fetches, stateful ops, plan caching, control deps).
#include <gtest/gtest.h>

#include "backend/static_context.h"
#include "graph/session.h"

namespace rlgraph {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : rng_(7), ctx_(&store_, &rng_) {}

  Session make_session() { return Session(ctx_.graph(), &store_, &rng_); }

  VariableStore store_;
  Rng rng_;
  StaticGraphContext ctx_;
};

TEST_F(SessionTest, EvaluatesConstants) {
  OpRef a = ctx_.constant(Tensor::scalar(2.0f));
  OpRef b = ctx_.constant(Tensor::scalar(3.0f));
  OpRef c = ctx_.add(a, b);
  Session s = make_session();
  auto out = s.run({{c.node, c.index}}, {});
  EXPECT_FLOAT_EQ(out[0].scalar_value(), 5.0f);
}

TEST_F(SessionTest, FeedsPlaceholders) {
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{kUnknownDim, 2});
  OpRef y = ctx_.mul(x, ctx_.scalar(3.0f));
  Session s = make_session();
  FeedMap feeds;
  feeds[x.node] = Tensor::from_floats(Shape{2, 2}, {1, 2, 3, 4});
  auto out = s.run({{y.node, y.index}}, feeds);
  EXPECT_EQ(out[0].to_floats(), (std::vector<float>{3, 6, 9, 12}));
}

TEST_F(SessionTest, MissingFeedThrows) {
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{2});
  OpRef y = ctx_.neg(x);
  Session s = make_session();
  EXPECT_THROW(s.run({{y.node, y.index}}, {}), ValueError);
}

TEST_F(SessionTest, FeedValidation) {
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{kUnknownDim, 2});
  Session s = make_session();
  FeedMap bad_dtype;
  bad_dtype[x.node] = Tensor::from_ints(Shape{1, 2}, {1, 2});
  EXPECT_THROW(s.run({{x.node, 0}}, bad_dtype), ValueError);
  FeedMap bad_shape;
  bad_shape[x.node] = Tensor::from_floats(Shape{3}, {1, 2, 3});
  EXPECT_THROW(s.run({{x.node, 0}}, bad_shape), ValueError);
}

TEST_F(SessionTest, VariablesPersistAcrossRuns) {
  ctx_.create_variable("counter", Tensor::scalar(0.0f));
  OpRef inc = ctx_.assign_add("counter", ctx_.scalar(1.0f));
  Session s = make_session();
  EXPECT_FLOAT_EQ(s.run({{inc.node, 0}}, {})[0].scalar_value(), 1.0f);
  EXPECT_FLOAT_EQ(s.run({{inc.node, 0}}, {})[0].scalar_value(), 2.0f);
  EXPECT_FLOAT_EQ(store_.get("counter").scalar_value(), 2.0f);
}

TEST_F(SessionTest, StatefulOpsRunOncePerInvocation) {
  ctx_.create_variable("v", Tensor::scalar(0.0f));
  OpRef inc = ctx_.assign_add("v", ctx_.scalar(1.0f));
  // Two consumers of the same assign node: must not double-apply.
  OpRef a = ctx_.add(inc, ctx_.scalar(0.0f));
  OpRef b = ctx_.mul(inc, ctx_.scalar(1.0f));
  Session s = make_session();
  auto out = s.run({{a.node, 0}, {b.node, 0}}, {});
  EXPECT_FLOAT_EQ(out[0].scalar_value(), 1.0f);
  EXPECT_FLOAT_EQ(out[1].scalar_value(), 1.0f);
  EXPECT_FLOAT_EQ(store_.get("v").scalar_value(), 1.0f);
}

TEST_F(SessionTest, OnlyFetchedSubgraphExecutes) {
  ctx_.create_variable("side", Tensor::scalar(0.0f));
  OpRef touched = ctx_.assign_add("side", ctx_.scalar(1.0f));
  OpRef untouched = ctx_.scalar(5.0f);
  (void)touched;
  Session s = make_session();
  s.run({{untouched.node, 0}}, {});
  // The assign was not in the fetched subgraph: variable unchanged.
  EXPECT_FLOAT_EQ(store_.get("side").scalar_value(), 0.0f);
}

TEST_F(SessionTest, MultiOutputSplit) {
  OpRef x = ctx_.constant(Tensor::from_floats(Shape{2, 3}, {1, 2, 3, 4, 5, 6}));
  std::vector<OpRef> parts = ctx_.split(x, 1, {1, 2});
  Session s = make_session();
  auto out = s.run({{parts[0].node, parts[0].index},
                    {parts[1].node, parts[1].index}},
                   {});
  EXPECT_EQ(out[0].to_floats(), (std::vector<float>{1, 4}));
  EXPECT_EQ(out[1].to_floats(), (std::vector<float>{2, 3, 5, 6}));
}

TEST_F(SessionTest, CustomStatefulKernel) {
  int calls = 0;
  auto refs = ctx_.apply_custom(
      "custom",
      [&calls](const std::vector<Tensor>& in) {
        ++calls;
        return std::vector<Tensor>{
            Tensor::scalar(static_cast<float>(in[0].scalar_value() * 2))};
      },
      {ctx_.scalar(4.0f)}, {DType::kFloat32}, {Shape{}});
  Session s = make_session();
  EXPECT_FLOAT_EQ(s.run({{refs[0].node, 0}}, {})[0].scalar_value(), 8.0f);
  s.run({{refs[0].node, 0}}, {});
  EXPECT_EQ(calls, 2);  // re-executed every run (stateful)
}

TEST_F(SessionTest, RepeatRunsExecuteSameNodeCount) {
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{});
  OpRef y = ctx_.square(x);
  Session s = make_session();
  FeedMap feeds;
  feeds[x.node] = Tensor::scalar(3.0f);
  s.run({{y.node, 0}}, feeds);
  int64_t nodes_after_one = s.nodes_executed();
  feeds[x.node] = Tensor::scalar(4.0f);
  auto out = s.run({{y.node, 0}}, feeds);
  EXPECT_FLOAT_EQ(out[0].scalar_value(), 16.0f);
  // Same per-run node count: each run compiles the same plan, with no
  // side effects left behind by the first.
  EXPECT_EQ(s.nodes_executed(), 2 * nodes_after_one);
  EXPECT_EQ(s.num_runs(), 2);
}

TEST_F(SessionTest, ControlDependenciesForceOrdering) {
  // A node with a control input on an assign observes the assigned value
  // even without a data dependency.
  ctx_.create_variable("flag", Tensor::scalar(0.0f));
  OpRef assign = ctx_.assign("flag", ctx_.scalar(5.0f));
  OpRef read = ctx_.variable("flag");
  // Manually add the control edge: read must run after assign.
  // (Contexts do not expose control edges directly; patch the graph.)
  auto graph = ctx_.graph();
  graph->mutable_node(read.node).control_inputs.push_back(assign.node);
  Session s = make_session();
  Tensor out = s.run({{read.node, 0}}, {})[0];
  EXPECT_FLOAT_EQ(out.scalar_value(), 5.0f);
}

TEST_F(SessionTest, FetchOrderDefinesResultOrder) {
  OpRef a = ctx_.scalar(1.0f);
  OpRef b = ctx_.scalar(2.0f);
  Session s = make_session();
  auto out = s.run({{b.node, 0}, {a.node, 0}}, {});
  EXPECT_FLOAT_EQ(out[0].scalar_value(), 2.0f);
  EXPECT_FLOAT_EQ(out[1].scalar_value(), 1.0f);
}

TEST_F(SessionTest, ConvShapeFnsRejectCinMismatchAtBuild) {
  // A 3-channel filter over a 2-channel input: both conv ops' shape
  // functions reject it while the graph is built.
  OpRef x = ctx_.placeholder("x", DType::kFloat32, Shape{kUnknownDim, 5, 5, 2});
  OpRef f = ctx_.constant(Tensor::zeros(DType::kFloat32, Shape{3, 3, 3, 4}));
  OpRef bias = ctx_.constant(Tensor::zeros(DType::kFloat32, Shape{4}));
  EXPECT_THROW(ctx_.apply("Conv2D", {x, f}, {{"stride", int64_t{1}}}),
               ValueError);
  EXPECT_THROW(ctx_.apply("FusedConv2D", {x, f, bias},
                          {{"stride", int64_t{1}},
                           {"activation", std::string("relu")}}),
               ValueError);
}

TEST(GraphDefTest, UniquifiesNames) {
  GraphDef g;
  NodeDef n1;
  n1.op = "Const";
  n1.name = "x";
  n1.attrs["value"] = Tensor::scalar(1.0f);
  n1.out_dtypes = {DType::kFloat32};
  n1.out_shapes = {Shape{}};
  NodeDef n2 = n1;
  int id1 = g.add_node(n1);
  int id2 = g.add_node(n2);
  EXPECT_NE(g.node(id1).name, g.node(id2).name);
  EXPECT_EQ(g.node_by_name(g.node(id2).name), id2);
  EXPECT_THROW(g.node_by_name("nope"), NotFoundError);
}

TEST(GraphDefTest, RejectsForwardReferences) {
  GraphDef g;
  NodeDef bad;
  bad.op = "Neg";
  bad.inputs = {Endpoint{5, 0}};
  bad.out_dtypes = {DType::kFloat32};
  bad.out_shapes = {Shape{}};
  EXPECT_THROW(g.add_node(bad), ValueError);
}

TEST(OpRegistryTest, LookupAndUnknownOp) {
  const OpRegistry& reg = OpRegistry::instance();
  EXPECT_TRUE(reg.contains("MatMul"));
  EXPECT_TRUE(reg.contains("CustomStateful"));
  EXPECT_FALSE(reg.contains("NoSuchOp"));
  EXPECT_THROW(reg.lookup("NoSuchOp"), NotFoundError);
  EXPECT_GT(reg.op_names().size(), 40u);
}

TEST(VariableStoreTest, LifecycleAndValidation) {
  VariableStore store;
  store.create("w", Tensor::from_floats(Shape{2}, {1, 2}));
  EXPECT_TRUE(store.exists("w"));
  EXPECT_THROW(store.create("w", Tensor::scalar(0.0f)), ValueError);
  EXPECT_THROW(store.get("missing"), NotFoundError);
  // Signature-changing assignment rejected.
  EXPECT_THROW(store.set("w", Tensor::scalar(0.0f)), ValueError);
  store.set("w", Tensor::from_floats(Shape{2}, {3, 4}));
  EXPECT_FLOAT_EQ(store.get("w").data<float>()[1], 4.0f);
}

}  // namespace
}  // namespace rlgraph
