// serve_low / serve_high: a default-config PolicyServer serving the dense-32
// policy (obs 16, 4 actions) under open-loop Poisson load from one generator
// thread, a heavy-tailed mix over three quota-free tenants, at a fixed
// absolute rate: low = 2k req/s (latency set by the batching window) or
// high = 10k req/s (about 20 rows per batch, padded to the 32-row bucket;
// the default 1024-deep queue absorbs about 100 ms of host stall). A
// publisher pushes fresh weights through the PolicyStore every 20 ms while
// load runs.
#include <thread>

#include "spaces/space.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

using namespace rlgraph;

namespace {

constexpr int kSetupRepeats = 25;
constexpr int kObsPool = 256;
constexpr int64_t kProbeRows = 16;
constexpr auto kPublishEvery = std::chrono::milliseconds(20);

std::vector<Tensor> make_observations(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Tensor> obs;
  obs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::vector<float> v(kServeObsDim);
    for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    obs.push_back(Tensor::from_floats(Shape{kServeObsDim}, std::move(v)));
  }
  return obs;
}

// Times forward passes and snapshot loads of the real agent engine.
class TimingEngine : public serve::ServingEngine {
 public:
  TimingEngine(EngineRecords* records, SpacePtr state, SpacePtr action)
      : records_(records),
        inner_(serve_agent_config(), std::move(state), std::move(action)) {}

  void load(const serve::PolicySnapshot& snapshot) override {
    const auto t0 = Clock::now();
    inner_.load(snapshot);
    records_->load_us[phase()].push_back(micros_since(t0));
  }

  Tensor forward(const Tensor& obs_batch) override {
    const auto t0 = Clock::now();
    Tensor out = inner_.forward(obs_batch);
    records_->forward_us[phase()].push_back(micros_since(t0));
    records_->rows[phase()].push_back(
        static_cast<double>(obs_batch.shape()[0]));
    return out;
  }

 private:
  int phase() const { return records_->phase.load(std::memory_order_relaxed); }
  static double micros_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  }

  EngineRecords* records_;
  serve::AgentServingEngine inner_;
};

std::unique_ptr<serve::PolicyServer> make_server(EngineRecords* records) {
  SpacePtr state = FloatBox(Shape{kServeObsDim});
  SpacePtr action = IntBox(kServeActions);
  if (records == nullptr) {
    return std::make_unique<serve::PolicyServer>(serve_agent_config(), state,
                                                 action);
  }
  return std::make_unique<serve::PolicyServer>(
      [records, state, action](int) {
        return std::make_unique<TimingEngine>(records, state, action);
      },
      serve::PolicyServerConfig{});
}

// Publishes the two weight sets alternately until stopped.
class Publisher {
 public:
  Publisher(serve::PolicyStore* store, const ParameterServer::WeightMap* a,
            const ParameterServer::WeightMap* b)
      : thread_([this, store, a, b] {
          for (int64_t i = 0; !stop_.load(); ++i) {
            store->publish(i % 2 == 0 ? *a : *b);
            std::this_thread::sleep_for(kPublishEvery);
          }
        }) {}
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;
  ~Publisher() {
    stop_.store(true);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace

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

ServeRun run_serve_phases(uint64_t seed, double low_s, double high_s,
                          EngineRecords* records, Result* out) {
  SpacePtr state = FloatBox(Shape{kServeObsDim});
  SpacePtr action = IntBox(kServeActions);
  // Two trainer agents give two distinct published weight sets.
  std::unique_ptr<DQNAgent> trainers[2];
  ParameterServer::WeightMap weights[2];
  for (int i = 0; i < 2; ++i) {
    Json cfg = serve_agent_config();
    cfg["seed"] = Json(static_cast<int64_t>(seed * 2 + static_cast<uint64_t>(i)));
    trainers[i] = std::make_unique<DQNAgent>(cfg, state, action);
    trainers[i]->build();
    weights[i] = trainers[i]->get_weights();
  }
  const std::vector<Tensor> pool = make_observations(seed, kObsPool);

  ServeRun run;
  std::unique_ptr<serve::PolicyServer> server;
  for (int i = 0; i < kSetupRepeats; ++i) {
    server.reset();
    const auto t0 = Clock::now();
    server = make_server(records);
    server->store().publish(weights[0]);
    server->start();
    server->act(pool[0]);  // first answer: engine built, plan compiled
    run.setup_s.push_back(seconds_since(t0));
  }
  if (records != nullptr) {
    // Set-up loads and first forwards are not phase traffic. The shard
    // recorded them before answering, so it is idle now.
    for (int p = 0; p < 2; ++p) {
      records->forward_us[p].clear();
      records->rows[p].clear();
      records->load_us[p].clear();
    }
  }

  const double rates[2] = {kServeLowQps, kServeHighQps};
  const double durations[2] = {low_s, high_s};
  const char* names[2] = {"low", "high"};
  {
    Publisher publisher(&server->store(), &weights[0], &weights[1]);
    for (int p = 0; p < 2; ++p) {
      if (durations[p] <= 0.0) continue;
      if (records != nullptr) records->phase.store(p);
      const int64_t padded_before =
          server->metrics().counter("serve/padded_rows");
      server->metrics().histogram("serve/queue_delay_seconds")
          .snapshot_window();
      OpenLoopConfig cfg;
      cfg.rate_qps = rates[p];
      cfg.duration_s = durations[p];
      cfg.seed = seed * 1000 + static_cast<uint64_t>(p);
      cfg.tenants = {"t0", "t1", "t2"};
      cfg.observations = pool;
      run.phase[p] = run_open_loop(*server, cfg, kServeActions);
      run.padded_rows[p] =
          server->metrics().counter("serve/padded_rows") - padded_before;
      run.queue_delay_p50_ms[p] =
          server->metrics().histogram("serve/queue_delay_seconds")
              .snapshot_window().p50() * 1000.0;
      const OpenLoopReport& r = run.phase[p];
      const std::string tag = std::string("serve_") + names[p] + ": ";
      out->check(r.conserved(), tag + "offered != completed + shed + "
                                      "timeout + failed");
      out->check(r.completed > 0, tag + "no request completed");
      out->check(r.bad_actions == 0, tag + "action out of range");
      out->check(r.version_regressions == 0,
                 tag + "policy_version went backwards");
      out->attempted += r.offered;
      out->failed += r.shed + r.timeout + r.failed;
    }
  }

  // Parity probe: after publishing trainer 1's weights, served greedy
  // actions equal the trainer's own greedy actions on the same rows.
  const int64_t version = server->store().publish(weights[1]);
  std::vector<Tensor> rows(pool.begin(), pool.begin() + kProbeRows);
  const Tensor expected =
      trainers[1]->get_actions(stack_leading(rows), /*explore=*/false);
  int64_t mismatches = 0;
  for (int64_t i = 0; i < kProbeRows; ++i) {
    serve::ActResult r = server->act(rows[static_cast<size_t>(i)]);
    if (r.policy_version != version ||
        r.action.at_flat(0) != expected.at_flat(i)) {
      ++mismatches;
    }
  }
  out->check(mismatches == 0,
             "serve: served greedy actions differ from the trainer's "
             "on the same published weights");
  server->shutdown();
  return run;
}

void run_serve(const Options& opt, bool high, Result* out) {
  out->check(run_open_loop_selftest(),
             "serve: open-loop self-test did not see the stall");
  ServeRun run = run_serve_phases(opt.seed, high ? 0.0 : opt.seconds,
                                  high ? opt.seconds : 0.0, nullptr, out);
  const OpenLoopReport& r = run.phase[high ? 1 : 0];
  out->set("setup_s", median(run.setup_s), "s");
  out->set("throughput_per_s",
           static_cast<double>(r.completed) / r.elapsed_s, "1/s");
  out->set("latency_p50_ms", median(r.latency_ms), "ms");
}

}  // namespace perfbench
