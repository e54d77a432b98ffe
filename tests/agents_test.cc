// Agent-level tests: the Listing-2 API contract, backend equivalence, model
// checkpointing, learning on GridWorld, and the IMPALA actor/learner pair.
#include <gtest/gtest.h>

#include <cstdio>

#include "agents/dqn_agent.h"
#include "agents/impala_agent.h"
#include "env/catch_env.h"
#include "env/grid_world.h"
#include "env/vector_env.h"
#include "tensor/kernels.h"
#include "util/random.h"

namespace rlgraph {
namespace {

Json dqn_config(const std::string& backend = "static") {
  Json cfg = Json::parse(R"({
    "type": "dqn",
    "network": [{"type": "dense", "units": 32, "activation": "relu"},
                {"type": "dense", "units": 32, "activation": "relu"}],
    "memory": {"type": "prioritized", "capacity": 1024},
    "optimizer": {"type": "adam", "learning_rate": 0.002},
    "exploration": {"eps_start": 1.0, "eps_end": 0.05, "decay_steps": 1200},
    "update": {"batch_size": 32, "sync_interval": 25, "min_records": 64},
    "discount": 0.95, "double_q": true, "dueling_q": true, "n_step": 1
  })");
  cfg["backend"] = Json(backend);
  return cfg;
}

TEST(DQNAgentTest, BuildExposesFullApi) {
  GridWorld env(GridWorld::Config{});
  DQNAgent agent(dqn_config(), env.state_space(), env.action_space());
  agent.build();
  const auto& registry = agent.executor().api_registry();
  for (const char* api :
       {"act", "act_greedy", "observe", "update", "update_batch",
        "sample_batch", "update_priorities", "compute_priorities",
        "sync_target", "memory_size"}) {
    EXPECT_EQ(registry.count(api), 1u) << api;
  }
  // A full DQN architecture has tens of components (paper: 43 for the
  // Atari-scale config).
  EXPECT_GE(agent.executor().stats().num_components, 15);
}

TEST(DQNAgentTest, ActReturnsValidActions) {
  GridWorld env(GridWorld::Config{});
  DQNAgent agent(dqn_config(), env.state_space(), env.action_space());
  agent.build();
  Tensor obs = env.reset();
  Tensor batch = obs.reshaped(obs.shape().prepend(1));
  for (int i = 0; i < 10; ++i) {
    Tensor a = agent.get_actions(batch);
    EXPECT_EQ(a.shape(), (Shape{1}));
    EXPECT_GE(a.to_ints()[0], 0);
    EXPECT_LT(a.to_ints()[0], 4);
  }
  EXPECT_EQ(agent.last_preprocessed().shape(), (Shape{1, 16}));
}

TEST(DQNAgentTest, UpdateWaitsForWarmup) {
  GridWorld env(GridWorld::Config{});
  DQNAgent agent(dqn_config(), env.state_space(), env.action_space());
  agent.build();
  EXPECT_EQ(agent.memory_size(), 0);
  EXPECT_DOUBLE_EQ(agent.update(), 0.0);  // not warm: no-op
}

TEST(DQNAgentTest, ObserveGrowsMemory) {
  GridWorld env(GridWorld::Config{});
  DQNAgent agent(dqn_config(), env.state_space(), env.action_space());
  agent.build();
  Tensor s = Tensor::zeros(DType::kFloat32, Shape{4, 16});
  Tensor a = Tensor::from_ints(Shape{4}, {0, 1, 2, 3});
  Tensor r = Tensor::zeros(DType::kFloat32, Shape{4});
  Tensor t = Tensor::from_bools(Shape{4}, {false, false, false, true});
  agent.observe(s, a, r, s, t);
  EXPECT_EQ(agent.memory_size(), 4);
}

TEST(DQNAgentTest, UpdateChangesPolicyWeights) {
  GridWorld env(GridWorld::Config{});
  DQNAgent agent(dqn_config(), env.state_space(), env.action_space());
  agent.build();
  Rng rng(1);
  Tensor s = kernels::random_uniform(Shape{128, 16}, 0, 1, rng);
  Tensor a = kernels::random_int(Shape{128}, 4, rng);
  Tensor r = kernels::random_uniform(Shape{128}, -1, 1, rng);
  agent.observe(s, a, r, s,
                Tensor::from_bools(Shape{128},
                                   std::vector<bool>(128, false)));
  auto before = agent.get_weights("agent/policy");
  double loss = agent.update();
  EXPECT_GT(loss, 0.0);
  auto after = agent.get_weights("agent/policy");
  bool any_changed = false;
  for (auto& [name, value] : before) {
    if (!value.all_close(after.at(name), 1e-9)) any_changed = true;
  }
  EXPECT_TRUE(any_changed);
}

TEST(DQNAgentTest, SyncTargetCopiesWeights) {
  GridWorld env(GridWorld::Config{});
  DQNAgent agent(dqn_config(), env.state_space(), env.action_space());
  agent.build();
  auto policy = agent.get_weights("agent/policy/");
  auto target_before = agent.get_weights("agent/target-policy/");
  // Different inits: some weight must differ.
  bool differ = false;
  for (auto& [name, value] : policy) {
    std::string tname = "agent/target-policy/" + name.substr(13);
    if (!value.all_close(target_before.at(tname), 1e-9)) differ = true;
  }
  EXPECT_TRUE(differ);
  agent.sync_target();
  auto target_after = agent.get_weights("agent/target-policy/");
  for (auto& [name, value] : policy) {
    std::string tname = "agent/target-policy/" + name.substr(13);
    EXPECT_TRUE(value.all_close(target_after.at(tname), 1e-9)) << name;
  }
}

TEST(DQNAgentTest, ComputePrioritiesShape) {
  GridWorld env(GridWorld::Config{});
  DQNAgent agent(dqn_config(), env.state_space(), env.action_space());
  agent.build();
  Tensor s = Tensor::zeros(DType::kFloat32, Shape{6, 16});
  Tensor a = Tensor::from_ints(Shape{6}, {0, 1, 2, 3, 0, 1});
  Tensor r = Tensor::zeros(DType::kFloat32, Shape{6});
  Tensor t = Tensor::from_bools(Shape{6}, std::vector<bool>(6, false));
  Tensor p = agent.compute_priorities(s, a, r, s, t);
  EXPECT_EQ(p.shape(), (Shape{6}));
  for (int i = 0; i < 6; ++i) EXPECT_GE(p.at_flat(i), 0.0);
}

TEST(DQNAgentTest, ModelExportImportRoundTrip) {
  GridWorld env(GridWorld::Config{});
  DQNAgent a(dqn_config(), env.state_space(), env.action_space());
  a.build();
  std::string path = ::testing::TempDir() + "/rlgraph_ckpt.bin";
  a.export_model(path);

  Json cfg = dqn_config();
  cfg["seed"] = Json(987);  // different init
  DQNAgent b(cfg, env.state_space(), env.action_space());
  b.build();
  b.import_model(path);
  Tensor s = Tensor::zeros(DType::kFloat32, Shape{1, 16});
  s.set_flat(3, 1.0);
  EXPECT_TRUE(a.get_actions(s, /*explore=*/false)
                  .equals(b.get_actions(s, /*explore=*/false)));
  std::remove(path.c_str());
}

TEST(DQNAgentTest, BackendsAgreeUnderSameSeed) {
  GridWorld env(GridWorld::Config{});
  DQNAgent s_agent(dqn_config("static"), env.state_space(),
                   env.action_space());
  DQNAgent i_agent(dqn_config("define_by_run"), env.state_space(),
                   env.action_space());
  s_agent.build();
  i_agent.build();
  Rng rng(2);
  Tensor obs = kernels::random_uniform(Shape{3, 16}, 0, 1, rng);
  EXPECT_TRUE(s_agent.get_actions(obs, false)
                  .equals(i_agent.get_actions(obs, false)));
}

// The headline integration test: DQN learns GridWorld to goal-reaching
// greedy behaviour.
TEST(DQNAgentTest, LearnsGridWorld) {
  GridWorld env(GridWorld::Config{4, 0.01, 40, /*with_holes=*/false});
  DQNAgent agent(dqn_config(), env.state_space(), env.action_space());
  agent.build();

  Tensor obs = env.reset();
  for (int step = 0; step < 3000; ++step) {
    Tensor batch = obs.reshaped(obs.shape().prepend(1));
    Tensor action = agent.get_actions(batch);
    StepResult r = env.step(action.to_ints()[0]);
    Tensor next = r.observation.reshaped(r.observation.shape().prepend(1));
    agent.observe(agent.last_preprocessed(), action,
                  Tensor::from_floats(Shape{1}, {(float)r.reward}), next,
                  Tensor::from_bools(Shape{1}, {r.terminal}));
    agent.update();
    obs = r.terminal ? env.reset() : r.observation;
  }

  // Greedy rollout must reach the goal (+1 terminal reward) quickly.
  obs = env.reset();
  double total = 0;
  for (int step = 0; step < 12; ++step) {
    Tensor batch = obs.reshaped(obs.shape().prepend(1));
    Tensor action = agent.get_actions(batch, /*explore=*/false);
    StepResult r = env.step(action.to_ints()[0]);
    total += r.reward;
    if (r.terminal) break;
    obs = r.observation;
  }
  EXPECT_GT(total, 0.5) << "greedy policy failed to reach the goal";
}

// --- IMPALA ----------------------------------------------------------------------

TEST(IMPALAAgentTest, ActorLearnerRoundTrip) {
  Json cfg = Json::parse(R"({
    "type": "impala_actor",
    "network": [{"type": "conv2d", "filters": 4, "kernel": 3, "stride": 2,
                 "activation": "relu"},
                {"type": "dense", "units": 16, "activation": "relu"}],
    "rollout_length": 6, "discount": 0.95,
    "optimizer": {"type": "adam", "learning_rate": 0.001}
  })");
  Json env_spec;
  env_spec["type"] = Json("catch");
  VectorEnv env(env_spec, 3, 7);
  auto queue = std::make_shared<SharedTensorQueue>(4);

  IMPALAAgent actor(cfg, env.state_space(), env.action_space(),
                    IMPALAAgent::Mode::kActor);
  actor.set_queue(queue);
  actor.build();
  actor.attach_environment(&env);

  Json lcfg = cfg;
  lcfg["type"] = Json("impala_learner");
  lcfg["use_staging"] = Json(false);  // direct consumption for this test
  IMPALAAgent learner(lcfg, env.state_space(), env.action_space(),
                      IMPALAAgent::Mode::kLearner);
  learner.set_queue(queue);
  learner.build();

  int64_t frames = actor.act_and_enqueue();
  EXPECT_EQ(frames, 3 * 6);  // 3 envs x rollout 6 (frame_skip 1 for catch)
  EXPECT_EQ(queue->size(), 1u);
  auto before = learner.get_weights("agent/policy");
  double loss = learner.update();
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_EQ(queue->size(), 0u);
  auto after = learner.get_weights("agent/policy");
  bool changed = false;
  for (auto& [name, value] : before) {
    if (!value.all_close(after.at(name), 1e-9)) changed = true;
  }
  EXPECT_TRUE(changed);
  // Weight sync learner -> actor by name.
  actor.set_weights(after);
}

TEST(IMPALAAgentTest, ObserveIsRejected) {
  Json cfg = Json::parse(R"({
    "type": "impala_actor",
    "network": [{"type": "dense", "units": 8}],
    "rollout_length": 4
  })");
  Json env_spec;
  env_spec["type"] = Json("grid_world");
  GridWorld env(GridWorld::Config{});
  IMPALAAgent actor(cfg, env.state_space(), env.action_space(),
                    IMPALAAgent::Mode::kActor);
  actor.set_queue(std::make_shared<SharedTensorQueue>(2));
  actor.build();
  Tensor dummy;
  EXPECT_THROW(actor.observe(dummy, dummy, dummy, dummy, dummy), ValueError);
}

TEST(AgentFactoryTest, MakesAgentsByType) {
  GridWorld env(GridWorld::Config{});
  auto dqn = make_agent(dqn_config(), env.state_space(), env.action_space());
  EXPECT_NE(dynamic_cast<DQNAgent*>(dqn.get()), nullptr);
  EXPECT_THROW(make_agent(Json::parse(R"({"type": "sarsa"})"),
                          env.state_space(), env.action_space()),
               ConfigError);
}

}  // namespace
}  // namespace rlgraph
