// Serving-path benchmark: closed-loop batching speedup + open-loop
// saturation sweep.
//
// Part 1 (reference points): direct in-process get_actions() (no serving
// tier) and the closed-loop batching speedup
// — the same PolicyServer at max_batch_size=1 (every request pays its own
// dispatch round-trip) vs 64 (dispatch and forward-pass overhead amortize
// across the batch).
//
// Part 2 (the saturation sweep): closed-loop clients self-throttle, so
// they can never show what overload looks like. The open-loop harness
// (load_harness.h) offers Poisson arrivals at fixed rates spanning the
// measured closed-loop capacity — below the knee, at it, and past it —
// and reports offered vs attained QPS, per-tenant p50/p99, and shed/
// timeout counts per point. Steady-state serving must run the build-time
// plan at every batch size: the sweep asserts the serving replica compiles
// NO new plans after warmup.
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "agents/dqn_agent.h"
#include "bench_common.h"
#include "load_harness.h"
#include "serve/policy_server.h"

namespace rlgraph {
namespace {

using namespace std::chrono_literals;

// Serving-shaped workload: a small dense policy, the regime where
// per-call framework overhead (plan dispatch, greedy head, bookkeeping)
// rivals the network compute itself — exactly what request batching
// amortizes. CPU matmul compute scales linearly with batch, so the win
// comes from paying the per-forward fixed cost once per batch, not once
// per request.
Json serve_agent_config() {
  return Json::parse(R"({
    "type": "dqn",
    "backend": "static",
    "network": [{"type": "dense", "units": 32, "activation": "relu"}],
    "memory": {"type": "replay", "capacity": 256},
    "optimizer": {"type": "adam", "learning_rate": 0.001},
    "exploration": {"eps_start": 0.1, "eps_end": 0.1, "decay_steps": 100},
    "update": {"batch_size": 16, "sync_interval": 50, "min_records": 32},
    "discount": 0.99
  })");
}

constexpr int64_t kObsDim = 16;
constexpr int64_t kNumActions = 4;

std::vector<Tensor> make_observations(int n) {
  Rng rng(7);
  std::vector<Tensor> obs;
  obs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::vector<float> v(kObsDim);
    for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    obs.push_back(Tensor::from_floats(Shape{kObsDim}, v));
  }
  return obs;
}

// One-request-at-a-time baseline: batch-1 greedy act in a closed loop on
// the build-time plan. The greedy act plan is
// fetch-only, so pattern fusion engages on it; `fused_dispatches`
// (out-param) counts the composite-kernel steps it dispatched instead of
// unfused op chains.
double single_request_qps(double seconds, int64_t* fused_dispatches) {
  SpacePtr obs_space = FloatBox(Shape{kObsDim});
  DQNAgent agent(serve_agent_config(), obs_space, IntBox(kNumActions));
  agent.build();
  std::vector<Tensor> obs = make_observations(64);
  for (int i = 0; i < 32; ++i) {  // warmup: pool buffers reach steady state
    (void)agent.get_actions(obs[0].reshaped(Shape{1, kObsDim}), false);
  }
  int64_t requests = 0;
  Stopwatch watch;
  while (watch.elapsed_seconds() < seconds) {
    const Tensor& o = obs[static_cast<size_t>(requests % 64)];
    (void)agent.get_actions(o.reshaped(Shape{1, kObsDim}), false);
    ++requests;
  }
  *fused_dispatches = agent.executor().fused_dispatches();
  return static_cast<double>(requests) / watch.elapsed_seconds();
}

serve::PolicyServerConfig server_config(int64_t max_batch) {
  serve::PolicyServerConfig cfg;
  cfg.num_shards = 1;
  cfg.batcher.max_batch_size = max_batch;
  // The window only has to cover the clients' resubmission burst after a
  // batch completes; anything longer is idle time.
  cfg.batcher.max_queue_delay = 100us;
  cfg.batcher.queue_capacity = 4096;
  return cfg;
}

struct ServedResult {
  double qps = 0;
  double mean_batch = 0;
  double p99 = 0;
};

// Closed-loop reference: `clients` pipeline-window threads keep 8 requests
// outstanding each; measures the server's sustainable capacity (and the
// batching speedup at max_batch 1 vs 64).
ServedResult served_qps(int clients, int64_t max_batch, double seconds) {
  SpacePtr obs_space = FloatBox(Shape{kObsDim});
  serve::PolicyServerConfig cfg = server_config(max_batch);
  serve::PolicyServer server(serve_agent_config(), obs_space,
                             IntBox(kNumActions), cfg);
  server.start();

  std::vector<Tensor> obs = make_observations(64);
  for (int i = 0; i < 8; ++i) (void)server.act(obs[0]);  // warmup

  constexpr size_t kWindow = 8;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> completed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      int64_t i = 0;
      std::deque<std::future<serve::ActResult>> inflight;
      while (!stop.load(std::memory_order_relaxed)) {
        while (inflight.size() < kWindow &&
               !stop.load(std::memory_order_relaxed)) {
          try {
            inflight.push_back(
                server.act_async(obs[static_cast<size_t>((c + i++) % 64)]));
          } catch (const OverloadedError&) {
            std::this_thread::sleep_for(100us);  // back off, retry
          }
        }
        if (inflight.empty()) continue;
        (void)inflight.front().get();
        inflight.pop_front();
        completed.fetch_add(1, std::memory_order_relaxed);
      }
      for (auto& f : inflight) {  // drain what we still owe the server
        try {
          (void)f.get();
        } catch (const Error&) {
        }
      }
    });
  }
  Stopwatch watch;
  while (watch.elapsed_seconds() < seconds) std::this_thread::sleep_for(5ms);
  stop = true;
  for (auto& t : threads) t.join();
  const double elapsed = watch.elapsed_seconds();
  server.shutdown();

  MetricRegistry& m = server.metrics();
  ServedResult r;
  r.qps = static_cast<double>(completed.load()) / elapsed;
  const int64_t batches = m.counter("serve/batches");
  r.mean_batch =
      batches > 0 ? static_cast<double>(m.counter("serve/requests")) /
                        static_cast<double>(batches)
                  : 0.0;
  r.p99 = m.histogram("serve/latency_seconds").p99();
  return r;
}

}  // namespace
}  // namespace rlgraph

int main(int argc, char** argv) {
  using namespace rlgraph;
  bench::Reporter reporter("serve_throughput", argc, argv);
  bench::TraceFlag trace_flag(argc, argv);
  bench::Scale scale = bench::bench_scale();
  const double seconds =
      scale == bench::Scale::kQuick
          ? 1.0
          : (scale == bench::Scale::kFull ? 8.0 : 3.0);

  bench::print_header("serving throughput: batching speedup (closed loop)");
  int64_t fused_dispatches = 0;
  const double direct = single_request_qps(seconds, &fused_dispatches);
  std::printf("%-28s %10.0f req/s  fused %lld  (no serving tier)\n",
              "direct get_actions()", direct,
              static_cast<long long>(fused_dispatches));
  reporter.record("direct_call_qps", direct, "req/s");
  reporter.record("direct_fused_dispatches",
                  static_cast<double>(fused_dispatches), "dispatches");

  const int clients = 16;
  ServedResult base = served_qps(clients, /*max_batch=*/1, seconds);
  ServedResult batched = served_qps(clients, /*max_batch=*/64, seconds);
  const double speedup = batched.qps / base.qps;
  std::printf(
      "clients %4d  one-at-a-time %8.0f req/s | batched %8.0f req/s  "
      "%5.2fx  batch %5.1f  p99 %5.2fms\n",
      clients, base.qps, batched.qps, speedup, batched.mean_batch,
      batched.p99 * 1e3);
  reporter.record("one_at_a_time_qps", base.qps, "req/s");
  reporter.record("served_qps", batched.qps, "req/s");
  reporter.record("served_speedup", speedup, "x");
  reporter.record("served_mean_batch", batched.mean_batch, "req");
  reporter.record("served_p99_latency", batched.p99, "s");

  // --- open-loop saturation sweep -------------------------------------------
  // Offered rates are anchored to the measured closed-loop capacity so the
  // sweep straddles the knee on any host: comfortably below, near, at, and
  // 1.5x past saturation. One server instance serves the whole sweep (the
  // steady-state plan-cache check below needs the warm replica).
  bench::print_header("serving saturation: open-loop Poisson sweep");
  const double capacity = batched.qps;
  const std::vector<double> load_factors =
      scale == bench::Scale::kQuick ? std::vector<double>{0.5, 1.5}
                                    : std::vector<double>{0.25, 0.5, 0.75,
                                                          1.0, 1.5};
  const double sweep_seconds = scale == bench::Scale::kQuick ? 0.5 : 2.0;

  SpacePtr obs_space = FloatBox(Shape{kObsDim});
  // Factory-built engines, pointers retained: after the sweep we read the
  // serving replica's plan-compile counter to confirm the steady state runs
  // the build-time plan at every batch size.
  std::vector<serve::AgentServingEngine*> engines;
  std::mutex engines_mu;
  Json agent_cfg = serve_agent_config();
  serve::PolicyServerConfig sweep_cfg =
      server_config(/*max_batch=*/64);
  // Bound queue wait so past-saturation requests time out instead of
  // queueing into the next sweep point (exercises both shed and timeout).
  sweep_cfg.default_deadline = std::chrono::microseconds(50000);
  sweep_cfg.batcher.queue_capacity = 1024;
  serve::PolicyServer server(
      [&](int) {
        auto engine = std::make_unique<serve::AgentServingEngine>(
            agent_cfg, obs_space, IntBox(kNumActions));
        std::lock_guard<std::mutex> lock(engines_mu);
        engines.push_back(engine.get());
        return engine;
      },
      sweep_cfg);
  server.start();

  bench::LoadConfig load;
  load.observations = make_observations(64);
  load.duration_seconds = sweep_seconds;
  load.streams = bench::heavy_tail_streams({"alpha", "beta", "gamma"});
  load.collector_threads = 2;

  // Warmup point: builds the serving replica.
  load.offered_qps = std::max(100.0, 0.1 * capacity);
  load.seed = 1;
  (void)bench::run_open_loop(server, load);

  // Plan-cache baseline after warmup: steady state must add NO compiles.
  int64_t compiles_before = 0;
  {
    std::lock_guard<std::mutex> lock(engines_mu);
    for (serve::AgentServingEngine* e : engines) {
      if (Session* session = e->agent().executor().session()) {
        compiles_before += session->plan_compiles();
      }
    }
  }

  std::printf("closed-loop capacity %0.0f req/s; sweeping offered load\n",
              capacity);
  uint64_t seed = 42;
  for (double factor : load_factors) {
    load.offered_qps = factor * capacity;
    load.seed = seed++;
    bench::LoadReport report = bench::run_open_loop(server, load);
    std::printf("offered %8.0f req/s (%4.2fx)  attained %8.0f req/s  "
                "shed %6lld  timeout %6lld\n",
                report.generated_qps, factor, report.attained_qps,
                static_cast<long long>(report.shed),
                static_cast<long long>(report.timeout));
    std::printf("%s", report.table().c_str());
    Json params;
    params["load_factor"] = Json(factor);
    reporter.record("sweep_offered_qps", report.generated_qps, "req/s",
                    params);
    reporter.record("sweep_attained_qps", report.attained_qps, "req/s",
                    params);
    reporter.record("sweep_shed", static_cast<double>(report.shed), "req",
                    params);
    reporter.record("sweep_timeout", static_cast<double>(report.timeout),
                    "req", params);
    for (const bench::StreamStats& s : report.streams) {
      Json sp = params;
      sp["tenant"] = Json(s.name);
      reporter.record("sweep_tenant_attained_qps", s.attained_qps, "req/s",
                      sp);
      reporter.record("sweep_tenant_p50", s.p50, "s", sp);
      reporter.record("sweep_tenant_p99", s.p99, "s", sp);
      reporter.record("sweep_tenant_shed", static_cast<double>(s.shed),
                      "req", sp);
      reporter.record("sweep_tenant_timeout", static_cast<double>(s.timeout),
                      "req", sp);
    }
  }

  int64_t compiles_after = 0;
  {
    std::lock_guard<std::mutex> lock(engines_mu);
    for (serve::AgentServingEngine* e : engines) {
      if (Session* session = e->agent().executor().session()) {
        compiles_after += session->plan_compiles();
      }
    }
  }
  server.shutdown();
  const int64_t steady_compiles = compiles_after - compiles_before;
  std::printf("steady-state plan cache: %lld new compiles (want 0)\n",
              static_cast<long long>(steady_compiles));
  reporter.record("steady_state_plan_compiles",
                  static_cast<double>(steady_compiles), "compiles");
  if (steady_compiles != 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state serving compiled %lld new plans — calls "
                 "no longer run the build-time plan\n",
                 static_cast<long long>(steady_compiles));
    return 1;
  }
  return 0;
}
