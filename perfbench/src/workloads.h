// Workload rigs shared by the end-to-end runs and the per-layer suite.
#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "agents/dqn_agent.h"
#include "agents/impala_agent.h"
#include "common.h"
#include "env/vector_env.h"
#include "execution/apex_executor.h"
#include "execution/param_server.h"
#include "open_loop.h"
#include "serve/policy_server.h"

namespace perfbench {

// --- act_pong ----------------------------------------------------------------

struct ActRig {
  std::unique_ptr<rlgraph::VectorEnv> env;
  std::unique_ptr<rlgraph::DQNAgent> agent;
  rlgraph::Tensor obs;
};

// Env + agent built and the act plan compiled by one first call.
std::unique_ptr<ActRig> make_act_rig(uint64_t seed);
// One closed-loop step: get_actions (explore on) then env step.
void act_step(ActRig& rig, int64_t* frames);

// --- apex_pong ------------------------------------------------------------------

struct ApexWindow {
  bool steady = false;
  double setup_s = 0.0;  // construction until the first post-update push
  double env_fps = 0.0;
  double updates_per_s = 0.0;
  std::vector<double> update_ms;  // per-update time, averaged per push
  bool weights_finite = false;
  rlgraph::ApexResult result;
};

// One ApexExecutor run observed from outside: set-up, then a steady window
// of `window_s` (plus whatever set-up left of its budget).
ApexWindow run_apex_window(uint64_t seed, double window_s);

// --- impala_dmlab ----------------------------------------------------------------

// The Fig. 9 IMPALA net and dmlab env, copied from the figure benchmark for
// the same reason as pong_agent_config().
rlgraph::Json impala_agent_config();
rlgraph::Json dmlab_env_spec();

// Learner (driven by the caller) plus actor threads feeding it through the
// shared rollout queue; every agent is built by the constructor.
class ImpalaRig {
 public:
  static constexpr int kActors = 2;
  static constexpr int kEnvsPerActor = 4;
  static constexpr size_t kQueueCapacity = 8;
  static constexpr int kPullEvery = 5;  // rollouts between weight pulls
  static constexpr int kPushEvery = 5;  // updates between weight pushes

  explicit ImpalaRig(uint64_t seed);
  ~ImpalaRig();
  ImpalaRig(const ImpalaRig&) = delete;
  ImpalaRig& operator=(const ImpalaRig&) = delete;

  // One timed learner update; returns its loss.
  double update();
  // Stops and joins the actors (idempotent).
  void stop();

  int64_t frames() const { return frames_.load(); }
  int64_t updates() const { return updates_; }
  int64_t actor_errors() const { return actor_errors_.load(); }
  const std::vector<double>& update_ms() const { return update_ms_; }
  // Per-rollout act_and_enqueue times of all actors; valid after stop().
  std::vector<double> rollout_ms() const;

 private:
  struct Actor {
    std::unique_ptr<rlgraph::IMPALAAgent> agent;
    std::unique_ptr<rlgraph::VectorEnv> env;
    std::vector<double> rollout_ms;  // written by the actor thread only
    std::thread thread;
  };
  void actor_loop(Actor& actor);

  std::shared_ptr<rlgraph::SharedTensorQueue> queue_;
  rlgraph::ParameterServer params_;
  std::unique_ptr<rlgraph::IMPALAAgent> learner_;
  std::vector<double> update_ms_;
  int64_t updates_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> frames_{0};
  std::atomic<int64_t> actor_errors_{0};
  Actor actors_[kActors];
};

struct ImpalaWindow {
  bool finite = true;
  double env_fps = 0.0;
  double updates_per_s = 0.0;
  int64_t updates = 0, rollouts = 0, actor_errors = 0;
  std::vector<double> update_ms, rollout_ms;
};

// Builds the rig (set-up timed into `setups`, several times), warms up,
// then runs the learner for a steady window of `window_s`.
ImpalaWindow run_impala_window(uint64_t seed, double window_s,
                               std::vector<double>* setups);

// --- serve_low / serve_high ------------------------------------------------------

inline constexpr int64_t kServeObsDim = 16;
inline constexpr int64_t kServeActions = 4;
inline constexpr double kServeLowQps = 2000.0;
inline constexpr double kServeHighQps = 10000.0;

// The serving benchmarks' dense-32 DQN policy (copied, as above).
rlgraph::Json serve_agent_config();

// Per-phase records of a timing engine (phase 0 = low, 1 = high). Written
// only by the server's shard thread; read after the server shut down.
struct EngineRecords {
  std::atomic<int> phase{0};
  std::vector<double> forward_us[2];
  std::vector<double> rows[2];
  std::vector<double> load_us[2];
};

struct ServeRun {
  std::vector<double> setup_s;
  OpenLoopReport phase[2];
  int64_t padded_rows[2] = {0, 0};
  double queue_delay_p50_ms[2] = {0.0, 0.0};
};

// Runs the low then the high fixed-rate phase (a phase of 0 s is skipped)
// against a default-config PolicyServer while a publisher pushes fresh
// weights, and records correctness violations in `out`. With `records`, the
// server's engines are timing wrappers.
ServeRun run_serve_phases(uint64_t seed, double low_s, double high_s,
                          EngineRecords* records, Result* out);

}  // namespace perfbench
