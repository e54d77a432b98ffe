// Tests for layer components, NeuralNetwork stacks, Policy heads,
// preprocessors and exploration.
#include <gtest/gtest.h>

#include "components/exploration.h"
#include "components/layers.h"
#include "components/neural_network.h"
#include "components/policy.h"
#include "components/preprocessors.h"
#include "core/component_test.h"
#include "tensor/kernels.h"

namespace rlgraph {
namespace {

ComponentTest make_layer_test(std::shared_ptr<Component> layer,
                              SpacePtr input_space,
                              Backend backend = Backend::kStatic) {
  auto root = std::make_shared<Component>("root");
  auto* l = root->add_component(std::move(layer));
  root->register_api("apply", [l](BuildContext& ctx, const OpRecs& in) {
    return l->call_api(ctx, "apply", in);
  });
  ExecutorOptions opts;
  opts.backend = backend;
  return ComponentTest(root, {{"apply", {std::move(input_space)}}}, opts);
}

TEST(DenseLayerTest, OutputShapeAndDeterminism) {
  auto test = make_layer_test(
      std::make_shared<DenseLayer>("dense", 8, Activation::kRelu),
      FloatBox(Shape{4})->with_batch_rank());
  Tensor x = Tensor::from_floats(Shape{3, 4},
                                 std::vector<float>(12, 0.5f));
  Tensor y1 = test.test("apply", {x})[0];
  Tensor y2 = test.test("apply", {x})[0];
  EXPECT_EQ(y1.shape(), (Shape{3, 2 * 4}));
  EXPECT_TRUE(y1.equals(y2));
  // ReLU output is non-negative.
  for (int64_t i = 0; i < y1.num_elements(); ++i) {
    EXPECT_GE(y1.at_flat(i), 0.0f);
  }
}

TEST(DenseLayerTest, VariablesScopedAndShaped) {
  auto layer = std::make_shared<DenseLayer>("dense", 6);
  auto test =
      make_layer_test(layer, FloatBox(Shape{3})->with_batch_rank());
  VariableStore& vars = test.executor().variables();
  EXPECT_EQ(vars.get("root/dense/weights").shape(), (Shape{3, 6}));
  EXPECT_EQ(vars.get("root/dense/bias").shape(), (Shape{6}));
}

TEST(DenseLayerTest, RejectsSpatialInput) {
  EXPECT_THROW(
      make_layer_test(std::make_shared<DenseLayer>("dense", 4),
                      FloatBox(Shape{2, 2})->with_batch_rank()),
      ValueError);
}

TEST(Conv2DLayerTest, OutputShape) {
  auto test = make_layer_test(
      std::make_shared<Conv2DLayer>("conv", 5, 3, 2),
      FloatBox(Shape{9, 9, 2})->with_batch_rank());
  Tensor x = Tensor::zeros(DType::kFloat32, Shape{2, 9, 9, 2});
  Tensor y = test.test("apply", {x})[0];
  EXPECT_EQ(y.shape(), (Shape{2, 4, 4, 5}));

  // Valid-padding geometries the kernel would reject fail when the static
  // graph is built, not on the first call: a 4x4 kernel over a 3x3 input at
  // stride 2, and over a 2x2 input at stride 1.
  for (auto [hw, stride] : {std::pair<int64_t, int64_t>{3, 2}, {2, 1}}) {
    EXPECT_THROW(make_layer_test(std::make_shared<Conv2DLayer>("conv", 2, 4,
                                                               stride),
                                 FloatBox(Shape{hw, hw, 1})->with_batch_rank()),
                 ValueError)
        << hw << "x" << hw << " input, stride " << stride;
  }
}

TEST(LSTMLayerTest, SequenceOutputShape) {
  auto test = make_layer_test(
      std::make_shared<LSTMLayer>("lstm", 6),
      FloatBox(Shape{5, 3})->with_batch_rank());  // [B, T=5, F=3]
  Tensor x = Tensor::zeros(DType::kFloat32, Shape{2, 5, 3});
  Tensor y = test.test("apply", {x})[0];
  EXPECT_EQ(y.shape(), (Shape{2, 5, 6}));
  // Zero input with zero-init weights except forget bias: h stays 0.
  // (Weights are random; just sanity-check values are bounded by tanh.)
  for (int64_t i = 0; i < y.num_elements(); ++i) {
    EXPECT_LE(std::abs(y.at_flat(i)), 1.0);
  }
}

TEST(LSTMLayerTest, TimeDependence) {
  auto test = make_layer_test(
      std::make_shared<LSTMLayer>("lstm", 4),
      FloatBox(Shape{3, 2})->with_batch_rank());
  Rng rng(8);
  Tensor x = kernels::random_uniform(Shape{1, 3, 2}, -1, 1, rng);
  Tensor y = test.test("apply", {x})[0];
  // Changing the first time step must change later outputs (state flows).
  Tensor x2 = x.clone();
  x2.set_flat(0, x.at_flat(0) + 1.0);
  Tensor y2 = test.test("apply", {x2})[0];
  EXPECT_FALSE(y.all_close(y2, 1e-6));
}

TEST(NeuralNetworkTest, ConvToDenseAutoFlatten) {
  Json config = Json::parse(R"([
    {"type": "conv2d", "filters": 4, "kernel": 3, "stride": 2,
     "activation": "relu"},
    {"type": "dense", "units": 10, "activation": "tanh"}
  ])");
  auto test = make_layer_test(
      std::make_shared<NeuralNetwork>("net", config),
      FloatBox(Shape{9, 9, 1})->with_batch_rank());
  Tensor y = test.test("apply",
                       {Tensor::zeros(DType::kFloat32, Shape{3, 9, 9, 1})})[0];
  EXPECT_EQ(y.shape(), (Shape{3, 10}));
}

TEST(NeuralNetworkTest, RejectsUnknownLayerType) {
  EXPECT_THROW(NeuralNetwork("net", Json::parse(R"([{"type": "quantum"}])")),
               ConfigError);
  EXPECT_THROW(NeuralNetwork("net", Json::parse(R"({"not": "a list"})")),
               Error);  // config validation
}

TEST(ActivationTest, ParsesNames) {
  EXPECT_EQ(activation_from_string("relu"), Activation::kRelu);
  EXPECT_EQ(activation_from_string(""), Activation::kNone);
  EXPECT_EQ(activation_from_string("linear"), Activation::kNone);
  EXPECT_THROW(activation_from_string("swishish"), ConfigError);
}

// --- Policy heads ------------------------------------------------------------

ComponentTest make_policy_test(PolicyHead head, int64_t actions = 3) {
  Json network = Json::parse(R"([{"type": "dense", "units": 8,
                                  "activation": "tanh"}])");
  auto policy =
      std::make_shared<Policy>("policy", network, IntBox(actions), head);
  std::map<std::string, std::vector<SpacePtr>> apis;
  SpacePtr state = FloatBox(Shape{4})->with_batch_rank();
  if (head == PolicyHead::kCategorical) {
    apis = {{"get_logits_value", {state}},
            {"sample_action", {state}},
            {"get_action", {state}}};
  } else {
    apis = {{"get_q_values", {state}}, {"get_action", {state}}};
  }
  return ComponentTest(std::move(policy), std::move(apis));
}

TEST(PolicyTest, QHeadShapes) {
  auto test = make_policy_test(PolicyHead::kQValues);
  auto q = test.test_with_sampled_inputs("get_q_values", 6);
  EXPECT_EQ(q[0].shape(), (Shape{6, 3}));
}

TEST(PolicyTest, DuelingDecomposition) {
  // Dueling Q-values satisfy: Q - V = A - mean(A), so mean_a(Q(s, a)) = V.
  auto test = make_policy_test(PolicyHead::kDuelingQ);
  auto q = test.test_with_sampled_inputs("get_q_values", 4);
  // mean over actions of (Q - mean(Q)) == 0 by construction.
  Tensor mean_q = kernels::reduce_mean(q[0], 1, false);
  Tensor centered = kernels::sub(q[0], kernels::reduce_mean(q[0], 1, true));
  Tensor remean = kernels::reduce_mean(centered, 1, false);
  for (int64_t i = 0; i < remean.num_elements(); ++i) {
    EXPECT_NEAR(remean.at_flat(i), 0.0, 1e-5);
  }
  (void)mean_q;
}

TEST(PolicyTest, GreedyActionMatchesArgmaxOfQ) {
  auto test = make_policy_test(PolicyHead::kDuelingQ);
  Rng rng(3);
  Tensor s = kernels::random_uniform(Shape{5, 4}, -1, 1, rng);
  Tensor q = test.test("get_q_values", {s})[0];
  Tensor a = test.test("get_action", {s})[0];
  EXPECT_TRUE(a.equals(kernels::argmax(q)));
}

TEST(PolicyTest, CategoricalHeadsAndSampling) {
  auto test = make_policy_test(PolicyHead::kCategorical, 4);
  auto lv = test.test_with_sampled_inputs("get_logits_value", 3);
  ASSERT_EQ(lv.size(), 2u);
  EXPECT_EQ(lv[0].shape(), (Shape{3, 4}));  // logits
  EXPECT_EQ(lv[1].shape(), (Shape{3, 1}));  // value
  auto sampled = test.test_with_sampled_inputs("sample_action", 50);
  std::set<int32_t> seen;
  for (int i = 0; i < 50; ++i) {
    int32_t a = sampled[0].data<int32_t>()[i];
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 4);
    seen.insert(a);
  }
  // Random-weight logits are near-uniform: sampling should hit several
  // distinct actions.
  EXPECT_GE(seen.size(), 2u);
}

TEST(PolicyTest, RequiresCategoricalActionSpace) {
  Json network = Json::parse(R"([{"type": "dense", "units": 4}])");
  EXPECT_THROW(Policy("p", network, FloatBox(Shape{2}),
                      PolicyHead::kQValues),
               ValueError);
}

// --- Preprocessors -------------------------------------------------------------

ComponentTest make_preproc_test(const std::string& config,
                                SpacePtr input_space) {
  auto root = std::make_shared<Component>("root");
  auto* stack = root->add_component(
      std::make_shared<PreprocessorStack>("pre", Json::parse(config)));
  root->register_api("preprocess",
                     [stack](BuildContext& ctx, const OpRecs& in) {
                       return stack->call_api(ctx, "preprocess", in);
                     });
  root->register_api("reset", [stack](BuildContext& ctx, const OpRecs& in) {
    return stack->call_api(ctx, "reset", in);
  });
  return ComponentTest(root, {{"preprocess", {std::move(input_space)}},
                              {"reset", {}}});
}

TEST(PreprocessorTest, GrayscaleAveragesChannels) {
  auto test = make_preproc_test(R"([{"type": "grayscale"}])",
                                FloatBox(Shape{2, 2, 3})->with_batch_rank());
  Tensor x = Tensor::filled(DType::kFloat32, Shape{1, 2, 2, 3}, 0.0);
  x.set_flat(0, 0.3);
  x.set_flat(1, 0.6);
  x.set_flat(2, 0.9);
  Tensor y = test.test("preprocess", {x})[0];
  EXPECT_EQ(y.shape(), (Shape{1, 2, 2, 1}));
  EXPECT_NEAR(y.at_flat(0), 0.6, 1e-6);
}

TEST(PreprocessorTest, RescaleAndClip) {
  auto test = make_preproc_test(
      R"([{"type": "rescale", "scale": 2.0, "offset": 1.0},
          {"type": "clip", "lo": 0.0, "hi": 4.0}])",
      FloatBox(Shape{2})->with_batch_rank());
  Tensor x = Tensor::from_floats(Shape{1, 2}, {-3.0f, 1.0f});
  Tensor y = test.test("preprocess", {x})[0];
  EXPECT_EQ(y.to_floats(), (std::vector<float>{0.0f, 3.0f}));
}

TEST(PreprocessorTest, FrameStackAccumulatesHistory) {
  auto test = make_preproc_test(
      R"([{"type": "frame_stack", "num_frames": 3}])",
      FloatBox(Shape{1, 1, 1})->with_batch_rank());
  auto frame = [](float v) {
    return Tensor::filled(DType::kFloat32, Shape{2, 1, 1, 1}, v);
  };
  Tensor y1 = test.test("preprocess", {frame(1)})[0];
  EXPECT_EQ(y1.shape(), (Shape{2, 1, 1, 3}));
  // First frame left-padded with itself.
  EXPECT_EQ(kernels::slice_rows(y1, 0, 1).to_floats(),
            (std::vector<float>{1, 1, 1}));
  test.test("preprocess", {frame(2)});
  Tensor y3 = test.test("preprocess", {frame(3)})[0];
  EXPECT_EQ(kernels::slice_rows(y3, 0, 1).to_floats(),
            (std::vector<float>{1, 2, 3}));
  // Reset clears history.
  test.test("reset", {});
  Tensor y4 = test.test("preprocess", {frame(9)})[0];
  EXPECT_EQ(kernels::slice_rows(y4, 0, 1).to_floats(),
            (std::vector<float>{9, 9, 9}));
}

TEST(PreprocessorTest, StagesComposeInOrder) {
  auto test = make_preproc_test(
      R"([{"type": "grayscale"},
          {"type": "rescale", "scale": 10.0}])",
      FloatBox(Shape{1, 1, 2})->with_batch_rank());
  Tensor x = Tensor::from_floats(Shape{1, 1, 1, 2}, {0.2f, 0.4f});
  Tensor y = test.test("preprocess", {x})[0];
  EXPECT_NEAR(y.scalar_value(), 3.0, 1e-5);
}

// --- Exploration -----------------------------------------------------------------

TEST(ExplorationTest, EpsilonDecaysTowardGreedy) {
  auto root = std::make_shared<Component>("root");
  auto* expl = root->add_component(std::make_shared<EpsilonGreedy>(
      "expl", 4, /*eps_start=*/1.0, /*eps_end=*/0.0, /*decay_steps=*/50));
  root->register_api("act", [expl](BuildContext& ctx, const OpRecs& in) {
    return expl->call_api(ctx, "get_action", in);
  });
  ComponentTest test(root,
                     {{"act", {FloatBox(Shape{4})->with_batch_rank()}}});
  // Q-values strongly favour action 2.
  Tensor q = Tensor::from_floats(Shape{1, 4}, {0, 0, 100, 0});
  int greedy_early = 0, greedy_late = 0;
  for (int i = 0; i < 50; ++i) {
    if (test.test("act", {q})[0].to_ints()[0] == 2) ++greedy_early;
  }
  for (int i = 0; i < 50; ++i) {
    if (test.test("act", {q})[0].to_ints()[0] == 2) ++greedy_late;
  }
  // Early: mostly random (~25% hit rate on 4 actions); late: all greedy.
  EXPECT_LT(greedy_early, 35);
  EXPECT_GE(greedy_late, 48);
}

}  // namespace
}  // namespace rlgraph
