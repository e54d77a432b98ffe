// Open-loop load harness for the serving control plane.
//
// Closed-loop clients (bench_serve_throughput's pipeline-window threads)
// self-throttle: when the server slows down, the clients slow down with it,
// so measured latency near saturation is a polite fiction. The open-loop
// harness instead generates a Poisson arrival process at a configured
// OFFERED rate — exponential inter-arrival gaps from a seeded Rng — and
// submits on schedule whether or not the server has answered anything. Past
// the saturation knee, offered and attained QPS diverge and the shed/
// timeout counters show where admission control put the excess. That is the
// operating regime admission quotas and fair queueing exist for, and the
// regime a closed loop can never reach.
//
// Traffic is a weighted mix of streams (tenant + request class + deadline).
// Everything stochastic — arrival gaps, stream picks — comes from one
// seeded Rng, and request ids are assigned sequentially from
// LoadConfig::first_request_id, so a run is fully deterministic in its
// submission schedule: replaying a seed replays the exact request-id
// sequence the canary router hashed.
//
// Conservation: every generated arrival ends in exactly one of completed /
// shed / timeout / failed (LoadReport::conserved()); the load-smoke ctest
// asserts this, so a lost or double-answered request fails CI.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/policy_server.h"
#include "util/json.h"

namespace rlgraph {
namespace bench {

// One stream in the offered-traffic mix.
struct LoadStreamSpec {
  // Reporting key; defaults to the tenant id (or "default") when empty.
  std::string name;
  // Tenant submitted with each request ("" = default tenant).
  std::string tenant;
  // Named request class ("" = none).
  std::string request_class;
  // Relative share of offered arrivals (normalized across streams).
  double share = 1.0;
  // Per-request deadline (0 inherits class/server default).
  std::chrono::microseconds deadline{0};
};

struct LoadConfig {
  // Total offered arrival rate across all streams (Poisson).
  double offered_qps = 1000.0;
  // Generation window; completions are drained past its end.
  double duration_seconds = 2.0;
  uint64_t seed = 42;
  // Empty = one default-tenant stream with share 1.
  std::vector<LoadStreamSpec> streams;
  // Observation pool cycled by arrival index (must be non-empty).
  std::vector<Tensor> observations;
  // Threads harvesting futures; generation itself is single-threaded.
  int collector_threads = 2;
  // First request id; arrivals take first_request_id, +1, +2, ...
  uint64_t first_request_id = 1;
};

// Per-stream outcome accounting. offered == completed + shed + timeout +
// failed for every stream of a finished run.
struct StreamStats {
  std::string name;
  std::string tenant;
  int64_t offered = 0;    // arrivals generated for this stream
  int64_t completed = 0;  // answered with an action
  int64_t shed = 0;       // OverloadedError at submit (admission control)
  int64_t timeout = 0;    // TimeoutError through the future (queue deadline)
  int64_t failed = 0;     // any other error
  double offered_qps = 0.0;
  double attained_qps = 0.0;
  // Completion latency (scheduled arrival -> answer), successes only: a
  // generator running late counts its lag against the request.
  double p50 = 0.0, p99 = 0.0;
};

struct LoadReport {
  double duration_seconds = 0.0;  // actual wall clock of the run
  double offered_qps = 0.0;       // configured target rate
  double generated_qps = 0.0;     // arrivals actually generated per second
  double attained_qps = 0.0;      // completions per second
  // p99 of each arrival's submit time minus its due time (seconds). Near
  // zero while the generator keeps up; when generated_qps falls short of
  // offered_qps it grows, and completion latency carries it.
  double gen_lag_p99 = 0.0;
  int64_t offered = 0, completed = 0, shed = 0, timeout = 0, failed = 0;
  std::vector<StreamStats> streams;

  // Stats for one stream by reporting name (null when unknown).
  const StreamStats* stream(const std::string& name) const;
  // Every arrival accounted for exactly once?
  bool conserved() const {
    return offered == completed + shed + timeout + failed;
  }
  // Human table: one row per stream plus a totals row.
  std::string table() const;
  // Machine-readable form for bench --json output.
  Json to_json() const;
};

// Drive `server` with the configured open-loop mix and block until every
// submitted future has resolved. The server must be start()ed.
LoadReport run_open_loop(serve::PolicyServer& server, const LoadConfig& config);

// A heavy-tailed (zipf-like, share_i = 1/(i+1)^skew) stream mix over the
// given tenants — the canonical multi-tenant traffic shape where one hot
// tenant dominates the offered load.
std::vector<LoadStreamSpec> heavy_tail_streams(
    const std::vector<std::string>& tenants, double skew = 1.2);

}  // namespace bench
}  // namespace rlgraph
