// Open-loop Poisson load for the serving workload, timed from each
// request's scheduled due time.
//
// Arrivals follow a seeded exponential-gap schedule at a fixed absolute
// rate and are submitted on schedule whatever the server does. Latency is
// measured from the arrival's *due* time, not from when the generator got
// round to submitting it, so a generator stall shows up as latency of the
// requests it delayed (and as generator lag). Completions are stamped by a
// collector that polls every in-flight future, so a request answered out of
// submission order (DRR serves tenants out of order) is stamped when it is
// answered, not when an older request ahead of it completes.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/policy_server.h"

namespace perfbench {

struct OpenLoopConfig {
  double rate_qps = 1000.0;
  double duration_s = 1.0;
  uint64_t seed = 1;
  // Tenants with heavy-tailed shares 1/(i+1)^1.2; empty = default tenant.
  std::vector<std::string> tenants;
  // Observation pool cycled by arrival index (must be non-empty).
  std::vector<rlgraph::Tensor> observations;
  // Self-test hook: before submitting arrival `stall_at` the generator
  // sleeps `stall`, as a descheduled load generator would.
  int64_t stall_at = -1;
  std::chrono::microseconds stall{0};
};

struct OpenLoopReport {
  int64_t offered = 0, completed = 0, shed = 0, timeout = 0, failed = 0;
  double elapsed_s = 0.0;
  // Per completed request: due -> answered, and submitted -> answered (the
  // latter only to show what submit-time stamping would hide).
  std::vector<double> latency_ms;
  std::vector<double> submit_latency_ms;
  // Per arrival: how late the generator submitted it, and how long
  // act_async took.
  std::vector<double> gen_lag_ms;
  std::vector<double> submit_us;
  // Response checks: actions outside [0, num_actions) and policy versions
  // that went backwards in completion order.
  int64_t bad_actions = 0;
  int64_t version_regressions = 0;

  bool conserved() const {
    return offered == completed + shed + timeout + failed;
  }
};

// Drive `server` (started) and block until every request resolved.
OpenLoopReport run_open_loop(rlgraph::serve::PolicyServer& server,
                             const OpenLoopConfig& config,
                             int64_t num_actions);

// Self-test: a fake engine with a fixed forward delay plus one forced
// generator stall. Passes when the due-time latency shows the stall and
// the submit-time latency of the same run would not have.
bool run_open_loop_selftest();

}  // namespace perfbench
