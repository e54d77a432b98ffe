// apex_pong: ApexExecutor with the learner on — 2 sampler workers x 4
// synthetic Pong envs and 2 prioritized replay shards sharing the host's
// cores with the learner thread.
//
// ApexExecutor::run(seconds) only reports totals over its whole window,
// set-up and warm-up included, so the workload observes the run from
// outside instead: env frames through a counting env wrapper, learner
// updates through the parameter server's version (the learner pushes every
// learner_weight_push_interval updates). The steady window starts once the
// learner has published its first post-update weights.
#include <cmath>
#include <exception>
#include <thread>

#include "workloads.h"

namespace perfbench {

using namespace rlgraph;

namespace {

constexpr int kSetupRepeats = 5;
// Upper bound on set-up (construction through the first learner weight
// push); a run that has not reached steady state by then fails.
constexpr double kSetupBudgetS = 1.0;
// Tail left unmeasured while ApexExecutor::run winds down.
constexpr double kTailS = 0.05;

ApexConfig apex_config(uint64_t seed) {
  ApexConfig cfg;
  cfg.agent_config = pong_agent_config();
  cfg.env_spec = counted_env_spec(pong_env_spec());
  cfg.num_workers = 2;
  cfg.envs_per_worker = 4;
  cfg.num_replay_shards = 2;
  cfg.learner_updates = true;
  cfg.seed = seed;
  return cfg;
}

bool weights_finite(const ParameterServer::WeightMap& weights) {
  for (const auto& [name, t] : weights) {
    if (t.dtype() != DType::kFloat32) continue;
    const float* p = t.data<float>();
    for (int64_t i = 0; i < t.num_elements(); ++i) {
      if (!std::isfinite(p[i])) return false;
    }
  }
  return true;
}

}  // namespace

ApexWindow run_apex_window(uint64_t seed, double window_s) {
  ApexConfig cfg = apex_config(seed);
  const int push_every = cfg.learner_weight_push_interval;
  ApexWindow w;
  const auto t0 = Clock::now();
  ApexExecutor exec(cfg);
  const double run_s = kSetupBudgetS + window_s;
  ApexResult result;
  std::exception_ptr run_error;
  const auto run_start = Clock::now();
  std::thread runner([&] {
    try {
      result = exec.run(run_s);
    } catch (...) {
      run_error = std::current_exception();
    }
  });

  // Version 1 is the learner's initial push; version 2 follows its first
  // push_every updates.
  bool steady = false;
  int64_t version0 = 0, last_version = 0;
  WindowedRate rate;
  Clock::time_point steady_at, last_change;
  const auto window_end =
      run_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(run_s - kTailS));
  while (Clock::now() < window_end) {
    const int64_t v = exec.parameter_server().version();
    const auto now = Clock::now();
    if (!steady && v >= 2) {
      steady = true;
      steady_at = now;
      rate.start(counted_env_frames());
      version0 = last_version = v;
      last_change = now;
      w.setup_s = std::chrono::duration<double>(now - t0).count();
    } else if (steady && v != last_version) {
      w.update_ms.push_back(
          std::chrono::duration<double, std::milli>(now - last_change)
              .count() /
          static_cast<double>((v - last_version) * push_every));
      last_version = v;
      last_change = now;
    }
    if (steady) rate.sample(counted_env_frames());
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  const int64_t version1 = exec.parameter_server().version();
  const double window = seconds_since(steady_at);
  runner.join();
  if (run_error) std::rethrow_exception(run_error);

  w.steady = steady;
  if (steady) {
    w.env_fps = rate.median_rate();
    w.updates_per_s =
        static_cast<double>((version1 - version0) * push_every) / window;
  }
  w.result = result;
  auto snap = exec.parameter_server().snapshot();
  w.weights_finite = snap != nullptr && weights_finite(*snap);
  return w;
}

void run_apex(const Options& opt, Result* out) {
  std::vector<double> setups;
  ApexWindow w;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const bool last = i + 1 == kSetupRepeats;
    w = run_apex_window(opt.seed, last ? opt.seconds : 0.0);
    out->check(w.steady, "apex_pong: learner never reached steady state");
    setups.push_back(w.setup_s);
  }
  const ApexResult& r = w.result;
  out->check(w.weights_finite, "apex_pong: published weights not finite");
  out->check(r.learner_updates > 0 && r.sample_tasks > 0,
             "apex_pong: no learner updates or sample tasks");
  out->attempted = r.sample_tasks + r.task_failures + r.task_timeouts;
  out->failed = r.task_failures + r.task_timeouts;
  out->set("setup_s", median(setups), "s");
  out->set("throughput_per_s", w.env_fps, "1/s");
  out->set("latency_p50_ms", median(w.update_ms), "ms");
}

}  // namespace perfbench
