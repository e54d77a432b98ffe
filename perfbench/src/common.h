// Shared plumbing for the perfbench binary: command-line options, exact
// statistics over raw samples, the result record every workload fills, and
// per-call timing records for the traced (per-layer) runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "util/json.h"
#include "util/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Exact quantile of raw samples (linear interpolation between order
// statistics, q in [0, 1]). Empty input gives 0.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

// Rate of a monotone counter as the median over consecutive sub-windows of
// at least `sub_s` seconds, so a transient host stall in one sub-window
// does not move the reported rate.
class WindowedRate {
 public:
  explicit WindowedRate(double sub_s = 1.0) : sub_s_(sub_s) {}

  void start(int64_t count) {
    first_t_ = seen_t_ = last_t_ = Clock::now();
    first_count_ = seen_count_ = last_count_ = count;
  }
  void sample(int64_t count) {
    const auto now = Clock::now();
    seen_t_ = now;
    seen_count_ = count;
    const double dt = std::chrono::duration<double>(now - last_t_).count();
    if (dt < sub_s_) return;
    rates_.push_back(static_cast<double>(count - last_count_) / dt);
    last_t_ = now;
    last_count_ = count;
  }
  // Falls back to the whole-window rate when the window was shorter than
  // one sub-window.
  double median_rate() const {
    if (!rates_.empty()) return median(rates_);
    const double dt = std::chrono::duration<double>(seen_t_ - first_t_).count();
    return dt > 0.0 ? static_cast<double>(seen_count_ - first_count_) / dt
                    : 0.0;
  }

 private:
  double sub_s_;
  Clock::time_point first_t_, seen_t_, last_t_;
  int64_t first_count_ = 0, seen_count_ = 0, last_count_ = 0;
  std::vector<double> rates_;
};

// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// What one run reports. `metrics` maps name -> (value, unit); a failed
// check() flips `correct` and is printed to stderr.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void check(bool ok, const std::string& what);
  // The one-line result JSON (the last line of stdout).
  std::string to_json_line() const;
};

// Per-call timing records for one layer function. Each timed call is also
// wrapped in a trace::TraceSpan (category "perfbench") so a Chrome export
// of the run shows it, but the numbers come from these exact records, not
// from the trace ring summary.
class CallTimer {
 public:
  explicit CallTimer(const char* span_name) : name_(span_name) {}

  template <typename F>
  auto time(F&& f) {
    rlgraph::trace::TraceSpan span("perfbench", name_);
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      record(t0);
    } else {
      auto out = f();
      record(t0);
      return out;
    }
  }

  double median_us() const { return median(us_); }
  double quantile_us(double q) const { return quantile(us_, q); }

 private:
  void record(Clock::time_point t0) {
    us_.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0)
                      .count());
  }

  const char* name_;
  std::vector<double> us_;
};

// Calls `f` until `budget_s` seconds pass (at least `min_calls` times).
template <typename F>
void repeat_for(double budget_s, int min_calls, F&& f) {
  const auto start = Clock::now();
  for (int i = 0; i < min_calls || seconds_since(start) < budget_s; ++i) f();
}

// The Pong DQN/Ape-X agent config and env spec shared by act and Ape-X:
// the figure benchmarks' conv net, copied rather than included from bench/
// so that the benchmark's inputs change only with perfbench/ itself.
rlgraph::Json pong_agent_config();
rlgraph::Json pong_env_spec();

// Env spec wrapping `inner` in a frame-counting environment: every step()
// adds frames_per_step() to counted_env_frames(). Lets a workload measure
// frames stepped inside a library loop it cannot instrument.
rlgraph::Json counted_env_spec(const rlgraph::Json& inner);
int64_t counted_env_frames();

bool is_workload(const std::string& name);

// Workload entry points. Untraced runs fill the end-to-end metrics; the
// traced run fills per-layer metrics (layers.cc).
void run_act(const Options& opt, Result* out);
void run_apex(const Options& opt, Result* out);
void run_impala(const Options& opt, Result* out);
void run_serve(const Options& opt, bool high, Result* out);
void run_layers(const Options& opt, Result* out);

}  // namespace perfbench
