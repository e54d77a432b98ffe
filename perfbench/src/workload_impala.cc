// impala_dmlab: the IMPALA actor/learner loop of ImpalaPipeline (2 actors x
// 4 dmlab 24x32 envs with render_cost 4000, the Fig. 9 conv net, 8-deep
// rollout queue, weights through a ParameterServer every 5 updates/rollouts)
// with every agent built before the timed window.
//
// ImpalaPipeline::run builds its learner and actors inside its own timed
// window and exposes only whole-run totals, so this file drives the same
// public agent API itself: set-up (builds through the first learner update)
// is timed on its own, and env_fps / updates cover a steady window only.
#include <cmath>

#include "workloads.h"

namespace perfbench {

using namespace rlgraph;

namespace {

constexpr int kSetupRepeats = 9;
constexpr int kWarmupUpdates = 20;

}  // namespace

Json impala_agent_config() {
  return Json::parse(R"({
    "network": [
      {"type": "conv2d", "filters": 8, "kernel": 4, "stride": 2,
       "activation": "relu"},
      {"type": "conv2d", "filters": 16, "kernel": 3, "stride": 2,
       "activation": "relu"},
      {"type": "dense", "units": 64, "activation": "relu"}
    ],
    "rollout_length": 20, "discount": 0.99,
    "value_coef": 0.5, "entropy_coef": 0.01,
    "optimizer": {"type": "adam", "learning_rate": 0.0005}
  })");
}

Json dmlab_env_spec() {
  return Json::parse(R"({"type": "dmlab", "height": 24, "width": 32,
                         "render_cost": 4000, "episode_length": 300,
                         "frame_skip": 4})");
}

ImpalaRig::ImpalaRig(uint64_t seed)
    : queue_(std::make_shared<SharedTensorQueue>(kQueueCapacity)) {
  auto probe = make_environment(dmlab_env_spec());
  SpacePtr state = probe->state_space();
  SpacePtr action = probe->action_space();

  Json lcfg = impala_agent_config();
  lcfg["type"] = Json("impala_learner");
  lcfg["seed"] = Json(static_cast<int64_t>(seed + 7));
  learner_ = std::make_unique<IMPALAAgent>(lcfg, state, action,
                                           IMPALAAgent::Mode::kLearner);
  learner_->set_queue(queue_);
  learner_->build();
  params_.push(learner_->get_weights("agent/policy"));

  for (int a = 0; a < kActors; ++a) {
    Actor& actor = actors_[a];
    Json acfg = impala_agent_config();
    acfg["type"] = Json("impala_actor");
    acfg["seed"] = Json(static_cast<int64_t>(seed + 100 + a));
    actor.agent = std::make_unique<IMPALAAgent>(acfg, state, action,
                                                IMPALAAgent::Mode::kActor);
    actor.agent->set_queue(queue_);
    actor.agent->build();
    actor.env = std::make_unique<VectorEnv>(
        dmlab_env_spec(), kEnvsPerActor, seed * 13 + static_cast<uint64_t>(a));
    actor.agent->attach_environment(actor.env.get());
  }
  for (int a = 0; a < kActors; ++a) {
    actors_[a].thread = std::thread([this, a] { actor_loop(actors_[a]); });
  }
}

ImpalaRig::~ImpalaRig() { stop(); }

void ImpalaRig::actor_loop(Actor& actor) {
  int64_t version = 0;
  try {
    for (int64_t k = 0; !stop_.load(std::memory_order_relaxed); ++k) {
      if (k % kPullEvery == 0) {
        ParameterServer::WeightMap weights;
        if (params_.pull_if_newer(version, &weights, &version)) {
          actor.agent->set_weights(weights);
        }
      }
      const auto t0 = Clock::now();
      const int64_t frames = actor.agent->act_and_enqueue();
      actor.rollout_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count());
      frames_.fetch_add(frames, std::memory_order_relaxed);
    }
  } catch (const std::exception&) {
    // The queue closed under a blocked enqueue is expected at stop().
    // Anything else fails the run: closing the queue makes the learner's
    // next dequeue throw instead of waiting for rollouts forever.
    if (!stop_.load()) {
      actor_errors_.fetch_add(1);
      queue_->close();
    }
  }
}

double ImpalaRig::update() {
  const auto t0 = Clock::now();
  const double loss = learner_->update();
  update_ms_.push_back(
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  if (++updates_ % kPushEvery == 0) {
    params_.push(learner_->get_weights("agent/policy"));
  }
  return loss;
}

void ImpalaRig::stop() {
  stop_.store(true);
  queue_->close();
  for (Actor& a : actors_) {
    if (a.thread.joinable()) a.thread.join();
  }
}

std::vector<double> ImpalaRig::rollout_ms() const {
  std::vector<double> all;
  for (const Actor& a : actors_) {
    all.insert(all.end(), a.rollout_ms.begin(), a.rollout_ms.end());
  }
  return all;
}

ImpalaWindow run_impala_window(uint64_t seed, double window_s,
                               std::vector<double>* setups) {
  std::unique_ptr<ImpalaRig> rig;
  double loss = 0.0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig.reset();
    const auto t0 = Clock::now();
    rig = std::make_unique<ImpalaRig>(seed);
    loss = rig->update();
    if (setups != nullptr) setups->push_back(seconds_since(t0));
  }
  ImpalaWindow w;
  w.finite = std::isfinite(loss);
  for (int i = 0; i < kWarmupUpdates; ++i) {
    w.finite = w.finite && std::isfinite(rig->update());
  }
  const int64_t frames0 = rig->frames();
  const int64_t updates0 = rig->updates();
  const size_t first_update = rig->update_ms().size();
  WindowedRate rate;
  rate.start(frames0);
  const auto start = Clock::now();
  while (seconds_since(start) < window_s) {
    w.finite = w.finite && std::isfinite(rig->update());
    rate.sample(rig->frames());
  }
  const double window = seconds_since(start);
  w.env_fps = rate.median_rate();
  w.updates = rig->updates() - updates0;
  w.updates_per_s = static_cast<double>(w.updates) / window;
  w.update_ms.assign(rig->update_ms().begin() + first_update,
                     rig->update_ms().end());
  rig->stop();
  w.rollout_ms = rig->rollout_ms();
  w.rollouts = static_cast<int64_t>(w.rollout_ms.size());
  w.actor_errors = rig->actor_errors();
  return w;
}

void run_impala(const Options& opt, Result* out) {
  std::vector<double> setups;
  ImpalaWindow w = run_impala_window(opt.seed, opt.seconds, &setups);
  out->check(w.finite, "impala_dmlab: non-finite learner loss");
  out->check(w.updates > 0 && w.rollouts > 0,
             "impala_dmlab: no learner updates or rollouts");
  out->check(w.actor_errors == 0, "impala_dmlab: an actor failed");
  out->attempted = w.rollouts;
  out->failed = w.actor_errors;
  out->set("setup_s", median(setups), "s");
  out->set("throughput_per_s", w.env_fps, "1/s");
  out->set("latency_p50_ms", median(w.update_ms), "ms");
}

}  // namespace perfbench
