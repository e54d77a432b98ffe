// Tests for the A2C agent: API contract, rollout/return machinery, learning
// on Catch, the device-map executor option and the per-API trace spans it
// shares with every agent.
#include <gtest/gtest.h>

#include "agents/actor_critic_agent.h"
#include "env/catch_env.h"
#include "env/grid_world.h"
#include "env/vector_env.h"
#include "tensor/kernels.h"
#include "util/trace.h"

namespace rlgraph {
namespace {

Json a2c_config() {
  return Json::parse(R"({
    "type": "a2c",
    "network": [{"type": "dense", "units": 64, "activation": "relu"},
                {"type": "dense", "units": 64, "activation": "relu"}],
    "optimizer": {"type": "adam", "learning_rate": 0.002},
    "rollout_length": 8, "discount": 0.97,
    "value_coef": 0.5, "entropy_coef": 0.01
  })");
}

TEST(ActorCriticTest, ApiAndShapes) {
  GridWorld env(GridWorld::Config{});
  ActorCriticAgent agent(a2c_config(), env.state_space(),
                         env.action_space());
  agent.build();
  Tensor s = Tensor::zeros(DType::kFloat32, Shape{3, 16});
  Tensor a = agent.get_actions(s);
  EXPECT_EQ(a.shape(), (Shape{3}));
  Tensor v = agent.get_values(s);
  EXPECT_EQ(v.shape(), (Shape{3}));
}

TEST(ActorCriticTest, UpdateWaitsForFullRollout) {
  GridWorld env(GridWorld::Config{});
  ActorCriticAgent agent(a2c_config(), env.state_space(),
                         env.action_space());
  agent.build();
  Tensor s = Tensor::zeros(DType::kFloat32, Shape{2, 16});
  Tensor a = Tensor::from_ints(Shape{2}, {0, 1});
  Tensor r = Tensor::zeros(DType::kFloat32, Shape{2});
  Tensor t = Tensor::from_bools(Shape{2}, {false, false});
  for (int i = 0; i < 7; ++i) {
    agent.observe(s, a, r, s, t);
    EXPECT_DOUBLE_EQ(agent.update(), 0.0);  // buffer not full
  }
  agent.observe(s, a, r, s, t);
  EXPECT_EQ(agent.buffered_steps(), 8);
  double loss = agent.update();
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_EQ(agent.buffered_steps(), 0);  // consumed
}

TEST(ActorCriticTest, UpdateMovesWeights) {
  GridWorld env(GridWorld::Config{});
  ActorCriticAgent agent(a2c_config(), env.state_space(),
                         env.action_space());
  agent.build();
  auto before = agent.get_weights("agent/policy");
  Rng rng(1);
  Tensor a = Tensor::from_ints(Shape{2}, {0, 1});
  Tensor t = Tensor::from_bools(Shape{2}, {false, false});
  for (int i = 0; i < 8; ++i) {
    Tensor s = kernels::random_uniform(Shape{2, 16}, 0, 1, rng);
    Tensor r = kernels::random_uniform(Shape{2}, -1, 1, rng);
    agent.observe(s, a, r, s, t);
  }
  agent.update();
  auto after = agent.get_weights("agent/policy");
  bool changed = false;
  for (auto& [name, value] : before) {
    if (!value.all_close(after.at(name), 1e-9)) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(ActorCriticTest, LearnsCatch) {
  Json env_spec = Json::parse(
      R"({"type": "catch", "height": 8, "width": 6,
          "rounds_per_episode": 21})");
  VectorEnv env(env_spec, 8, 3);
  ActorCriticAgent agent(a2c_config(), env.state_space(),
                         env.action_space());
  agent.build();

  Tensor obs = env.reset();
  for (int step = 0; step < 2500; ++step) {
    Tensor actions = agent.get_actions(obs);
    VectorStepResult r = env.step(actions);
    agent.observe(obs, actions, r.rewards, r.observations, r.terminals);
    agent.update();
    obs = r.observations;
  }
  // Mean of recent episodes should be clearly positive (random play is
  // around -14 on this grid; perfect play is +21).
  std::vector<double> returns = env.drain_episode_returns();
  ASSERT_GE(returns.size(), 8u);
  double recent = 0;
  size_t n = std::min<size_t>(returns.size(), 20);
  for (size_t i = returns.size() - n; i < returns.size(); ++i) {
    recent += returns[i];
  }
  recent /= static_cast<double>(n);
  EXPECT_GT(recent, 5.0) << "A2C failed to learn Catch";
}

TEST(ActorCriticTest, FactoryCreatesA2C) {
  GridWorld env(GridWorld::Config{});
  auto agent = make_agent(a2c_config(), env.state_space(),
                          env.action_space());
  EXPECT_NE(dynamic_cast<ActorCriticAgent*>(agent.get()), nullptr);
}

TEST(ActorCriticTest, DeviceMapAssignsComponents) {
  GridWorld env(GridWorld::Config{});
  Json cfg = a2c_config();
  cfg["device_map"]["agent/policy"] = Json("/gpu:0");
  cfg["optimize_graph"] = Json(false);
  ActorCriticAgent agent(cfg, env.state_space(), env.action_space());
  agent.build();
  std::string dump = agent.executor().graph_dump();
  EXPECT_NE(dump.find("@/gpu:0"), std::string::npos);
  // The optimizer stays on the default device.
  EXPECT_NE(dump.find("@/cpu:0"), std::string::npos);
}

// The executor's profiling hooks are its "execute/<api>" trace spans: one
// per call while tracing is on, none while it is off.
TEST(ActorCriticTest, ExecutorSpansCountEveryApiCall) {
  GridWorld env(GridWorld::Config{});
  ActorCriticAgent agent(a2c_config(), env.state_space(), env.action_space());
  agent.build();
  Tensor s = Tensor::zeros(DType::kFloat32, Shape{1, 16});

  trace::reset();
  agent.get_actions(s);
  EXPECT_TRUE(trace::aggregates().empty());
  EXPECT_EQ(trace::event_count(), 0);

  trace::start();
  agent.get_actions(s);
  agent.get_actions(s);
  agent.get_values(s);
  trace::stop();
  const std::map<std::string, HistogramSnapshot> spans = trace::aggregates();
  trace::reset();
  ASSERT_TRUE(spans.count("execute/act"));
  ASSERT_TRUE(spans.count("execute/get_values"));
  EXPECT_EQ(spans.at("execute/act").count, 2);
  EXPECT_EQ(spans.at("execute/get_values").count, 1);
  EXPECT_GT(spans.at("execute/act").sum, 0.0);
}

}  // namespace
}  // namespace rlgraph
