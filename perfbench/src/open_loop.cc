#include "open_loop.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common.h"
#include "util/errors.h"
#include "util/random.h"

namespace perfbench {

using namespace rlgraph;
using serve::ActResult;

namespace {

// Zipf-like skew of the tenant mix (one hot tenant), as in the serving
// benchmarks' heavy-tail streams.
constexpr double kSkew = 1.2;

struct InFlight {
  std::future<ActResult> fut;
  Clock::time_point due;
  Clock::time_point submitted;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Harvests answers as they arrive. Each pass polls every in-flight future
// and stamps the ready ones, so completion order, not submission order,
// decides the stamp. Versions are checked against completion order with a
// one-pass guard: everything ready in pass s completed after everything
// collected in pass s-2, so its version may not be older than theirs.
class Collector {
 public:
  Collector(OpenLoopReport* report, int64_t num_actions)
      : report_(report), num_actions_(num_actions),
        thread_([this] { loop(); }) {}

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  ~Collector() { finish(); }

  void add(InFlight item) {
    std::lock_guard<std::mutex> lock(mu_);
    incoming_.push_back(std::move(item));
  }

  // Blocks until every added request resolved.
  void finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    if (thread_.joinable()) thread_.join();
  }

  // Requests that resolved with an error other than a timeout; read after
  // finish().
  int64_t failed() const { return failed_; }

 private:
  void loop() {
    std::vector<InFlight> live;
    int64_t floor_version = 0, prev_pass_max = 0;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (InFlight& f : incoming_) live.push_back(std::move(f));
        incoming_.clear();
        if (done_ && live.empty()) return;
      }
      bool any = false;
      int64_t pass_max = 0;
      for (size_t i = 0; i < live.size();) {
        if (live[i].fut.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        const auto now = Clock::now();
        try {
          ActResult r = live[i].fut.get();
          report_->latency_ms.push_back(ms_between(live[i].due, now));
          report_->submit_latency_ms.push_back(
              ms_between(live[i].submitted, now));
          ++report_->completed;
          const double a = r.action.at_flat(0);
          if (r.action.num_elements() != 1 || a < 0 || a >= num_actions_) {
            ++report_->bad_actions;
          }
          if (r.policy_version < floor_version) ++report_->version_regressions;
          pass_max = std::max(pass_max, r.policy_version);
        } catch (const TimeoutError&) {
          ++report_->timeout;
        } catch (...) {
          ++failed_;
        }
        live[i] = std::move(live.back());
        live.pop_back();
        any = true;
      }
      floor_version = std::max(floor_version, prev_pass_max);
      prev_pass_max = pass_max;
      if (!any) std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }

  OpenLoopReport* report_;
  const int64_t num_actions_;
  int64_t failed_ = 0;  // collector thread only until finish()
  std::mutex mu_;
  std::vector<InFlight> incoming_;  // guarded by mu_
  bool done_ = false;               // guarded by mu_
  std::thread thread_;
};

}  // namespace

OpenLoopReport run_open_loop(serve::PolicyServer& server,
                             const OpenLoopConfig& config,
                             int64_t num_actions) {
  RLG_REQUIRE(config.rate_qps > 0.0 && config.duration_s > 0.0,
              "open loop needs a positive rate and duration");
  RLG_REQUIRE(!config.observations.empty(),
              "open loop needs an observation pool");
  std::vector<double> shares;
  for (size_t i = 0; i < config.tenants.size(); ++i) {
    shares.push_back(1.0 / std::pow(static_cast<double>(i + 1), kSkew));
  }

  OpenLoopReport report;
  const size_t expected =
      static_cast<size_t>(config.rate_qps * config.duration_s * 1.1) + 16;
  report.gen_lag_ms.reserve(expected);
  report.submit_us.reserve(expected);
  report.latency_ms.reserve(expected);
  report.submit_latency_ms.reserve(expected);

  Rng rng(config.seed);
  const auto start = Clock::now();
  {
    Collector collector(&report, num_actions);
    double next = 0.0;  // seconds after start
    for (int64_t k = 0;; ++k) {
      next += -std::log(1.0 - rng.uniform()) / config.rate_qps;
      if (next >= config.duration_s) break;
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(next));
      if (due > Clock::now()) std::this_thread::sleep_until(due);
      if (k == config.stall_at) std::this_thread::sleep_for(config.stall);

      serve::ActOptions options;
      if (!shares.empty()) {
        options.tenant = config.tenants[static_cast<size_t>(
            rng.categorical(shares))];
      }
      const Tensor& obs =
          config.observations[static_cast<size_t>(k) %
                              config.observations.size()];
      ++report.offered;
      const auto submitted = Clock::now();
      report.gen_lag_ms.push_back(ms_between(due, submitted));
      try {
        std::future<ActResult> fut = server.act_async(obs, options);
        report.submit_us.push_back(
            ms_between(submitted, Clock::now()) * 1000.0);
        collector.add(InFlight{std::move(fut), due, submitted});
      } catch (const OverloadedError&) {
        ++report.shed;
      } catch (...) {
        ++report.failed;
      }
    }
    collector.finish();
    report.failed += collector.failed();
  }
  report.elapsed_s = seconds_since(start);
  return report;
}

namespace {

// Fixed-delay engine: every forward takes `delay` and answers action 0.
class FixedDelayEngine : public serve::ServingEngine {
 public:
  explicit FixedDelayEngine(std::chrono::microseconds delay) : delay_(delay) {}
  void load(const serve::PolicySnapshot&) override {}
  Tensor forward(const Tensor& obs_batch) override {
    std::this_thread::sleep_for(delay_);
    return Tensor::zeros(DType::kInt32, Shape{obs_batch.shape()[0]});
  }

 private:
  std::chrono::microseconds delay_;
};

}  // namespace

bool run_open_loop_selftest() {
  constexpr double kStallMs = 100.0;
  serve::PolicyServer server(
      [](int) {
        return std::make_unique<FixedDelayEngine>(
            std::chrono::microseconds(1000));
      },
      serve::PolicyServerConfig{});
  server.start();
  OpenLoopConfig cfg;
  cfg.rate_qps = 1000.0;
  cfg.duration_s = 1.0;
  cfg.seed = 3;
  cfg.observations = {Tensor::zeros(DType::kFloat32, Shape{4})};
  cfg.stall_at = 300;
  cfg.stall = std::chrono::microseconds(static_cast<int64_t>(kStallMs * 1000));
  OpenLoopReport r = run_open_loop(server, cfg, /*num_actions=*/1);
  server.shutdown();

  // The stall delays ~rate x stall arrivals; about half of them wait more
  // than half the stall. Both predicates are evaluated on both stamps.
  auto shows_stall = [&](const std::vector<double>& latency_ms) {
    const double max_ms =
        latency_ms.empty()
            ? 0.0
            : *std::max_element(latency_ms.begin(), latency_ms.end());
    const auto slow = std::count_if(
        latency_ms.begin(), latency_ms.end(),
        [&](double v) { return v >= kStallMs / 2.0; });
    return max_ms >= 0.8 * kStallMs && slow >= 20;
  };
  const double max_lag =
      *std::max_element(r.gen_lag_ms.begin(), r.gen_lag_ms.end());
  const bool due_ok = shows_stall(r.latency_ms);
  const bool submit_hides = !shows_stall(r.submit_latency_ms);
  const bool ok = r.conserved() && r.completed > 0 && due_ok &&
                  submit_hides && max_lag >= 0.8 * kStallMs;
  std::fprintf(stderr,
               "open-loop self-test: %s (due-time p99 %.1f ms, max %.1f ms; "
               "submit-time p99 %.1f ms; max generator lag %.1f ms; "
               "offered %lld completed %lld)\n",
               ok ? "pass" : "FAIL", quantile(r.latency_ms, 0.99),
               quantile(r.latency_ms, 1.0), quantile(r.submit_latency_ms, 0.99),
               max_lag, static_cast<long long>(r.offered),
               static_cast<long long>(r.completed));
  return ok;
}

}  // namespace perfbench
