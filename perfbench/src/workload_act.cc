// act_pong: one caller in a closed loop of DQNAgent::get_actions (explore
// on, static backend, Pong conv net) plus VectorEnv::step on one synthetic
// Pong env — Fig. 5b at batch 1, where per-call framework cost dominates.
#include <memory>

#include "workloads.h"

namespace perfbench {

using namespace rlgraph;

namespace {

constexpr int kSetupRepeats = 9;
constexpr int kWarmupSteps = 200;
constexpr int64_t kProbeRows = 8;

}  // namespace

std::unique_ptr<ActRig> make_act_rig(uint64_t seed) {
  auto rig = std::make_unique<ActRig>();
  rig->env = std::make_unique<VectorEnv>(pong_env_spec(), 1, seed);
  Json cfg = pong_agent_config();
  cfg["backend"] = Json("static");
  cfg["seed"] = Json(static_cast<int64_t>(seed));
  rig->agent = std::make_unique<DQNAgent>(cfg, rig->env->state_space(),
                                          rig->env->action_space());
  rig->agent->build();
  rig->obs = rig->env->reset();
  rig->agent->get_actions(rig->obs);  // first call compiles the plan
  return rig;
}

void act_step(ActRig& rig, int64_t* frames) {
  Tensor actions = rig.agent->get_actions(rig.obs);
  VectorStepResult r = rig.env->step(actions);
  *frames += r.env_frames;
  rig.obs = std::move(r.observations);
}

void run_act(const Options& opt, Result* out) {
  std::vector<double> setups;
  std::unique_ptr<ActRig> rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig.reset();
    const auto t0 = Clock::now();
    rig = make_act_rig(opt.seed);
    setups.push_back(seconds_since(t0));
  }
  ActRig& r = *rig;
  const int64_t num_actions = r.env->num_actions();

  // Fixed probe batch: observations from an independently seeded env.
  VectorEnv probe_env(pong_env_spec(), kProbeRows, opt.seed + 17);
  Tensor probe = probe_env.reset();
  for (int i = 0; i < 5; ++i) {
    Tensor a = Tensor::from_ints(Shape{kProbeRows},
                                 std::vector<int32_t>(kProbeRows, 1));
    probe = probe_env.step(a).observations;
  }
  const Tensor greedy_before = r.agent->get_actions(probe, /*explore=*/false);

  int64_t frames = 0;
  for (int i = 0; i < kWarmupSteps; ++i) act_step(r, &frames);

  std::vector<double> step_us;
  step_us.reserve(static_cast<size_t>(opt.seconds * 40000));
  int64_t out_of_range = 0;
  frames = 0;
  WindowedRate rate;
  rate.start(frames);
  const auto start = Clock::now();
  while (seconds_since(start) < opt.seconds) {
    const auto t0 = Clock::now();
    Tensor actions = r.agent->get_actions(r.obs);
    VectorStepResult sr = r.env->step(actions);
    step_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    frames += sr.env_frames;
    rate.sample(frames);
    r.obs = std::move(sr.observations);
    const double a = actions.at_flat(0);
    if (a < 0 || a >= num_actions) ++out_of_range;
  }

  const Tensor greedy_after = r.agent->get_actions(probe, /*explore=*/false);
  out->check(out_of_range == 0, "act_pong: action out of range");
  out->check(greedy_before.equals(greedy_after),
             "act_pong: greedy probe actions changed across the timed loop");

  out->attempted = static_cast<int64_t>(step_us.size());
  out->failed = out_of_range;
  out->set("setup_s", median(setups), "s");
  out->set("throughput_per_s", rate.median_rate(), "1/s");
  out->set("latency_p50_ms", median(step_us) / 1000.0, "ms");
}

}  // namespace perfbench
