#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>

#include "env/environment.h"

namespace perfbench {

using rlgraph::Json;

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

std::string Result::to_json_line() const {
  Json doc;
  doc["correct"] = Json(correct);
  doc["attempted"] = Json(attempted);
  doc["failed"] = Json(failed);
  Json m{rlgraph::JsonObject{}};
  for (const auto& [name, vu] : metrics) {
    Json entry;
    entry["value"] = Json(vu.first);
    entry["unit"] = Json(vu.second);
    m[name] = std::move(entry);
  }
  doc["metrics"] = std::move(m);
  return doc.dump();
}

Json pong_agent_config() {
  return Json::parse(R"({
    "type": "apex",
    "network": [
      {"type": "conv2d", "filters": 4, "kernel": 4, "stride": 2,
       "activation": "relu"},
      {"type": "conv2d", "filters": 8, "kernel": 3, "stride": 2,
       "activation": "relu"},
      {"type": "dense", "units": 32, "activation": "relu"}
    ],
    "preprocessor": [{"type": "rescale", "scale": 1.0}],
    "memory": {"type": "prioritized", "capacity": 20000,
               "alpha": 0.6, "beta": 0.4},
    "optimizer": {"type": "adam", "learning_rate": 0.0005},
    "exploration": {"eps_start": 1.0, "eps_end": 0.05, "decay_steps": 20000},
    "update": {"batch_size": 32, "sync_interval": 100, "min_records": 200},
    "discount": 0.99, "double_q": true, "dueling_q": true, "n_step": 3
  })");
}

Json pong_env_spec() {
  return Json::parse(
      R"({"type": "pong", "height": 16, "width": 16, "frame_skip": 4})");
}

namespace {

std::atomic<int64_t> g_counted_frames{0};

class CountedEnv : public rlgraph::Environment {
 public:
  explicit CountedEnv(std::unique_ptr<rlgraph::Environment> inner)
      : inner_(std::move(inner)), frames_(inner_->frames_per_step()) {}

  rlgraph::SpacePtr state_space() const override {
    return inner_->state_space();
  }
  rlgraph::SpacePtr action_space() const override {
    return inner_->action_space();
  }
  int64_t num_actions() const override { return inner_->num_actions(); }
  rlgraph::Tensor reset() override { return inner_->reset(); }
  rlgraph::StepResult step(int64_t action) override {
    rlgraph::StepResult r = inner_->step(action);
    g_counted_frames.fetch_add(frames_, std::memory_order_relaxed);
    return r;
  }
  void seed(uint64_t seed) override { inner_->seed(seed); }
  int frames_per_step() const override { return frames_; }

 private:
  std::unique_ptr<rlgraph::Environment> inner_;
  int frames_;
};

}  // namespace

Json counted_env_spec(const Json& inner) {
  static std::once_flag once;
  std::call_once(once, [] {
    rlgraph::register_environment("perfbench_counted", [](const Json& spec) {
      return std::unique_ptr<rlgraph::Environment>(std::make_unique<CountedEnv>(
          rlgraph::make_environment(spec.at("inner"))));
    });
  });
  Json spec;
  spec["type"] = Json("perfbench_counted");
  spec["inner"] = inner;
  return spec;
}

int64_t counted_env_frames() {
  return g_counted_frames.load(std::memory_order_relaxed);
}

}  // namespace perfbench
