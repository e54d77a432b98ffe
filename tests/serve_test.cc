// Policy-serving subsystem tests: dynamic batcher flush/shed policy,
// versioned policy store, hot-swap consistency under concurrent load,
// admission control, graceful drain, and agent weight snapshot round-trips.
// Runs under the `concurrency` + `serve` ctest labels (TSAN-clean).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "agents/dqn_agent.h"
#include "agents/sac_agent.h"
#include "serve/batcher.h"
#include "serve/policy_server.h"
#include "serve/policy_store.h"

namespace rlgraph {
namespace {

using namespace std::chrono_literals;
using serve::ActRequest;
using serve::ActResult;
using serve::BatcherConfig;
using serve::DynamicBatcher;
using serve::PolicyServer;
using serve::PolicyServerConfig;
using serve::PolicySnapshot;
using serve::PolicyStore;
using serve::ServeClock;

Tensor obs1(float v) { return Tensor::from_floats(Shape{1}, {v}); }

// --- DynamicBatcher ----------------------------------------------------------

TEST(DynamicBatcherTest, FlushOnTimeoutWithSingleRequest) {
  BatcherConfig cfg;
  cfg.max_batch_size = 8;
  cfg.max_queue_delay = 50ms;
  DynamicBatcher batcher(cfg);

  const auto t0 = ServeClock::now();
  std::future<ActResult> fut = batcher.submit(obs1(1.0f));
  std::vector<ActRequest> batch = batcher.next_batch();
  const double waited = std::chrono::duration<double>(
      ServeClock::now() - t0).count();

  ASSERT_EQ(batch.size(), 1u);
  // The lone request flushes once its max_queue_delay elapses — not sooner
  // (it waits for potential peers), not unboundedly later.
  EXPECT_GE(waited, 0.040);
  EXPECT_LT(waited, 5.0);
  batch[0].promise.set_value(ActResult{obs1(0.0f), 1});
  EXPECT_EQ(fut.get().policy_version, 1);
}

TEST(DynamicBatcherTest, FullBatchFlushesWithoutWaiting) {
  BatcherConfig cfg;
  cfg.max_batch_size = 4;
  cfg.max_queue_delay = 10s;  // must not matter
  DynamicBatcher batcher(cfg);
  for (int i = 0; i < 4; ++i) (void)batcher.submit(obs1(float(i)));

  const auto t0 = ServeClock::now();
  std::vector<ActRequest> batch = batcher.next_batch();
  const double waited = std::chrono::duration<double>(
      ServeClock::now() - t0).count();
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_LT(waited, 1.0);
  for (ActRequest& r : batch) r.promise.set_value(ActResult{});
}

TEST(DynamicBatcherTest, MaxBatchOverflowSplitting) {
  BatcherConfig cfg;
  cfg.max_batch_size = 4;
  cfg.max_queue_delay = 10s;
  DynamicBatcher batcher(cfg);
  std::vector<std::future<ActResult>> futures;
  for (int i = 0; i < 11; ++i) futures.push_back(batcher.submit(obs1(1.0f)));
  batcher.close();  // drain mode: flushes are immediate

  std::vector<size_t> sizes;
  for (;;) {
    std::vector<ActRequest> batch = batcher.next_batch();
    if (batch.empty()) break;
    sizes.push_back(batch.size());
    for (ActRequest& r : batch) r.promise.set_value(ActResult{});
  }
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 4u);
  EXPECT_EQ(sizes[1], 4u);
  EXPECT_EQ(sizes[2], 3u);
  for (auto& f : futures) f.get();  // all served despite the overflow
}

TEST(DynamicBatcherTest, DeadlineExpiredRequestsShedBeforeDispatch) {
  MetricRegistry metrics;
  BatcherConfig cfg;
  cfg.max_batch_size = 8;
  cfg.max_queue_delay = 5ms;
  DynamicBatcher batcher(cfg, &metrics);

  std::future<ActResult> doomed =
      batcher.submit(obs1(1.0f), ServeClock::now() + 1ms);
  std::future<ActResult> live = batcher.submit(obs1(2.0f));
  std::this_thread::sleep_for(20ms);

  std::vector<ActRequest> batch = batcher.next_batch();
  ASSERT_EQ(batch.size(), 1u);  // the expired request never reaches a shard
  EXPECT_FLOAT_EQ(batch[0].obs.to_floats()[0], 2.0f);
  batch[0].promise.set_value(ActResult{});
  live.get();

  EXPECT_THROW(doomed.get(), TimeoutError);
  EXPECT_EQ(metrics.counter("serve/shed_deadline"), 1);
}

TEST(DynamicBatcherTest, OverloadShedsWithTypedError) {
  MetricRegistry metrics;
  BatcherConfig cfg;
  cfg.queue_capacity = 2;
  DynamicBatcher batcher(cfg, &metrics);
  auto f1 = batcher.submit(obs1(1.0f));
  auto f2 = batcher.submit(obs1(2.0f));
  EXPECT_THROW(batcher.submit(obs1(3.0f)), OverloadedError);
  EXPECT_EQ(metrics.counter("serve/shed_overload"), 1);
  EXPECT_EQ(batcher.pending(), 2u);
  batcher.close();
  batcher.shed_all("test over");
  EXPECT_THROW(f1.get(), OverloadedError);
  EXPECT_THROW(f2.get(), OverloadedError);
}

TEST(DynamicBatcherTest, SubmitAfterCloseRejected) {
  DynamicBatcher batcher(BatcherConfig{});
  batcher.close();
  EXPECT_THROW(batcher.submit(obs1(1.0f)), OverloadedError);
  EXPECT_TRUE(batcher.next_batch().empty());
}

// --- PolicyStore -------------------------------------------------------------

TEST(PolicyStoreTest, VersionsAdvanceAndSnapshotsAreImmutable) {
  PolicyStore store;
  EXPECT_EQ(store.version(), 0);
  EXPECT_FALSE(store.snapshot().valid());

  serve::WeightMap w1;
  w1["w"] = Tensor::scalar(1.0f);
  EXPECT_EQ(store.publish(std::move(w1)), 1);
  PolicySnapshot s1 = store.snapshot();
  ASSERT_TRUE(s1.valid());
  EXPECT_EQ(s1.version, 1);

  serve::WeightMap w2;
  w2["w"] = Tensor::scalar(2.0f);
  EXPECT_EQ(store.publish(std::move(w2)), 2);

  // The old snapshot held by a reader is untouched by the publication.
  EXPECT_FLOAT_EQ(s1.weights->at("w").scalar_value(), 1.0f);
  EXPECT_EQ(store.snapshot().version, 2);
}

TEST(PolicyStoreTest, PublishSerializedRoundTrips) {
  std::map<std::string, Tensor> weights;
  weights["layer/w"] = Tensor::from_floats(Shape{2, 2}, {1, 2, 3, 4});
  weights["layer/b"] = Tensor::from_floats(Shape{2}, {5, 6});
  std::vector<uint8_t> bytes = serialize_weights(weights);

  PolicyStore store;
  EXPECT_EQ(store.publish_serialized(bytes), 1);
  PolicySnapshot snap = store.snapshot();
  ASSERT_TRUE(snap.valid());
  EXPECT_TRUE(snap.weights->at("layer/w").equals(weights["layer/w"]));
  EXPECT_TRUE(snap.weights->at("layer/b").equals(weights["layer/b"]));
}

// --- PolicyServer with a fake engine -----------------------------------------

// Engine whose outputs encode the snapshot it is running: forward() maps
// every observation to `version` when the snapshot's two tensors agree, and
// to -1 when it ever observes a torn (a != b) pair. Members are only
// touched from the owning shard thread, per the ServingEngine contract.
class SnapshotEchoEngine : public serve::ServingEngine {
 public:
  void load(const PolicySnapshot& snapshot) override {
    a_ = snapshot.weights->at("a").scalar_value();
    b_ = snapshot.weights->at("b").scalar_value();
  }
  Tensor forward(const Tensor& obs_batch) override {
    const int64_t n = obs_batch.shape().dim(0);
    const float v = (a_ == b_) ? static_cast<float>(a_) : -1.0f;
    std::vector<float> out(static_cast<size_t>(n), v);
    return Tensor::from_floats(Shape{n}, out);
  }

 private:
  double a_ = 0.0;
  double b_ = 0.0;
};

serve::WeightMap version_weights(int64_t v) {
  serve::WeightMap w;
  w["a"] = Tensor::scalar(static_cast<float>(v));
  w["b"] = Tensor::scalar(static_cast<float>(v));
  return w;
}

PolicyServerConfig quick_server_config() {
  PolicyServerConfig cfg;
  cfg.num_shards = 2;
  cfg.batcher.max_batch_size = 8;
  cfg.batcher.max_queue_delay = 1ms;
  return cfg;
}

TEST(PolicyServerTest, ServesAndReportsPublishedVersion) {
  PolicyServer server([](int) { return std::make_unique<SnapshotEchoEngine>(); },
                      quick_server_config());
  server.store().publish(version_weights(1));
  server.start();

  ActResult r = server.act(obs1(0.5f));
  EXPECT_EQ(r.policy_version, 1);
  EXPECT_FLOAT_EQ(r.action.scalar_value(), 1.0f);

  server.store().publish(version_weights(2));
  // The swap is picked up between batches; drain until it lands.
  for (int i = 0; i < 1000 && r.policy_version != 2; ++i) {
    r = server.act(obs1(0.5f));
  }
  EXPECT_EQ(r.policy_version, 2);
  EXPECT_FLOAT_EQ(r.action.scalar_value(), 2.0f);
  server.shutdown();
  EXPECT_GE(server.metrics().counter("serve/requests"), 2);
}

// The acceptance-criterion test: hot-swapping under concurrent load never
// yields a torn snapshot, and every response's action is consistent with
// the version it claims was used.
TEST(PolicyServerTest, HotSwapUnderLoadIsVersionConsistent) {
  PolicyServer server([](int) { return std::make_unique<SnapshotEchoEngine>(); },
                      quick_server_config());
  server.store().publish(version_weights(1));
  server.start();

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (int64_t v = 2; !stop.load(); ++v) {
      server.store().publish(version_weights(v));
      std::this_thread::sleep_for(200us);
    }
  });

  constexpr int kClients = 4;
  constexpr int kRequests = 200;
  std::atomic<int> inconsistent{0};
  std::atomic<int> torn{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kRequests; ++i) {
        ActResult r = server.act(obs1(1.0f));
        const double value = r.action.scalar_value();
        if (value < 0) torn.fetch_add(1);
        if (value != static_cast<double>(r.policy_version)) {
          inconsistent.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  stop = true;
  publisher.join();
  server.shutdown();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(inconsistent.load(), 0);
  EXPECT_GE(server.metrics().counter("serve/requests"), kClients * kRequests);
}

TEST(PolicyServerTest, GracefulDrainServesQueuedRequests) {
  PolicyServerConfig cfg = quick_server_config();
  cfg.num_shards = 1;
  cfg.batcher.max_queue_delay = 20ms;
  PolicyServer server([](int) { return std::make_unique<SnapshotEchoEngine>(); },
                      cfg);
  const int64_t version = server.store().publish(version_weights(7));
  server.start();

  std::vector<std::future<ActResult>> futures;
  for (int i = 0; i < 40; ++i) futures.push_back(server.act_async(obs1(1.0f)));
  server.shutdown();  // drain: everything already admitted still gets served
  for (auto& f : futures) {
    ActResult r = f.get();
    EXPECT_EQ(r.policy_version, version);
    EXPECT_FLOAT_EQ(r.action.scalar_value(), 7.0f);  // served the published weights
  }
  EXPECT_THROW(server.act(obs1(1.0f)), Error);  // no longer accepting
}

class ThrowingEngine : public serve::ServingEngine {
 public:
  void load(const PolicySnapshot&) override {}
  Tensor forward(const Tensor&) override { throw Error("engine exploded"); }
};

TEST(PolicyServerTest, EngineErrorsPropagateToEveryRequestOfTheBatch) {
  PolicyServerConfig cfg = quick_server_config();
  cfg.num_shards = 1;
  PolicyServer server([](int) { return std::make_unique<ThrowingEngine>(); },
                      cfg);
  server.start();
  std::vector<std::future<ActResult>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(server.act_async(obs1(1.0f)));
  for (auto& f : futures) EXPECT_THROW(f.get(), Error);
  server.shutdown();
  EXPECT_GE(server.metrics().counter("serve/batch_failures"), 1);
}

// --- agent integration -------------------------------------------------------

Json serve_dqn_config() {
  return Json::parse(R"({
    "type": "dqn",
    "network": [{"type": "dense", "units": 16, "activation": "relu"},
                {"type": "dense", "units": 16, "activation": "relu"}],
    "memory": {"type": "replay", "capacity": 256},
    "optimizer": {"type": "adam", "learning_rate": 0.001},
    "exploration": {"eps_start": 1.0, "eps_end": 0.05, "decay_steps": 100},
    "update": {"batch_size": 16, "sync_interval": 25, "min_records": 32},
    "discount": 0.95
  })");
}

TEST(AgentWeightsTest, ExportImportRoundTripsAcrossAgents) {
  SpacePtr obs_space = FloatBox(Shape{4});
  SpacePtr act_space = IntBox(3);
  DQNAgent source(serve_dqn_config(), obs_space, act_space);
  source.build();
  std::vector<uint8_t> bytes = source.export_weights();

  Json cfg = serve_dqn_config();
  cfg["seed"] = Json(static_cast<int64_t>(999));  // different init
  DQNAgent restored(cfg, obs_space, act_space);
  restored.build();
  restored.import_weights(bytes);

  auto want = source.get_weights();
  auto got = restored.get_weights();
  ASSERT_EQ(want.size(), got.size());
  for (const auto& [name, tensor] : want) {
    ASSERT_TRUE(got.count(name)) << name;
    EXPECT_TRUE(got[name].equals(tensor)) << name;
  }
}

TEST(AgentWeightsTest, DeserializeRejectsGarbage) {
  std::vector<uint8_t> junk{1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_THROW(deserialize_weights(junk), Error);
}

TEST(PolicyServerTest, AgentEngineMatchesDirectGreedyActions) {
  SpacePtr obs_space = FloatBox(Shape{4});
  SpacePtr act_space = IntBox(3);

  // "Trainer" agent: the weights we publish.
  DQNAgent trainer(serve_dqn_config(), obs_space, act_space);
  trainer.build();

  PolicyServerConfig cfg;
  cfg.num_shards = 1;
  cfg.batcher.max_batch_size = 8;
  cfg.batcher.max_queue_delay = 1ms;
  PolicyServer server(serve_dqn_config(), obs_space, act_space, cfg);
  server.store().publish(trainer.get_weights());
  server.start();

  Rng rng(42);
  std::vector<Tensor> observations;
  for (int i = 0; i < 16; ++i) {
    std::vector<float> v(4);
    for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    observations.push_back(Tensor::from_floats(Shape{4}, v));
  }

  Tensor want = trainer.get_actions(stack_leading(observations),
                                    /*explore=*/false);
  for (int i = 0; i < 16; ++i) {
    ActResult r = server.act(observations[static_cast<size_t>(i)]);
    EXPECT_EQ(r.policy_version, 1);
    EXPECT_EQ(static_cast<int32_t>(r.action.scalar_value()),
              want.to_ints()[static_cast<size_t>(i)])
        << "obs " << i;
  }
  server.shutdown();
}

// Records every batch size the engine is handed and answers each row with
// a function of its own observation.
class RowEchoEngine : public serve::ServingEngine {
 public:
  // Engines die with their shard thread at shutdown, so observed batch
  // sizes are recorded into test-owned storage, not engine members.
  RowEchoEngine(std::mutex* mu, std::vector<int64_t>* sizes)
      : mu_(mu), sizes_(sizes) {}
  void load(const PolicySnapshot&) override {}
  Tensor forward(const Tensor& obs_batch) override {
    const int64_t n = obs_batch.shape().dim(0);
    {
      std::lock_guard<std::mutex> lock(*mu_);
      sizes_->push_back(n);
    }
    std::vector<float> out(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      out[static_cast<size_t>(i)] =
          obs_batch.data<float>()[i] * 10.0f;  // action = f(own obs)
    }
    return Tensor::from_floats(Shape{n}, out);
  }

 private:
  std::mutex* mu_;
  std::vector<int64_t>* sizes_;
};

TEST(PolicyServerTest, EngineReceivesExactlyTheRealBatchSizes) {
  // A flush of 22 requests is computed as 22 rows: no padding rows reach
  // the engine. The engine factory is held until all 54 requests are
  // queued, so the batcher deterministically flushes one full batch of 32
  // and then the remaining 22.
  std::mutex mu;
  std::vector<int64_t> seen_sizes;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  PolicyServerConfig cfg;
  cfg.num_shards = 1;
  cfg.batcher.max_batch_size = 32;
  cfg.batcher.max_queue_delay = 1ms;
  PolicyServer server(
      [&, released](int) {
        released.wait();
        return std::make_unique<RowEchoEngine>(&mu, &seen_sizes);
      },
      cfg);
  server.start();

  constexpr int kRequests = 54;
  std::vector<std::future<ActResult>> futs;
  for (int i = 0; i < kRequests; ++i) {
    futs.push_back(server.act_async(obs1(static_cast<float>(i))));
  }
  release.set_value();
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_FLOAT_EQ(futs[static_cast<size_t>(i)].get().action.scalar_value(),
                    10.0f * i)
        << "request " << i;
  }
  server.shutdown();
  EXPECT_EQ(seen_sizes, (std::vector<int64_t>{32, 22}));
}

// --- named request classes ---------------------------------------------------

TEST(RequestClassConfigTest, ParsesDeadlineAndTenant) {
  serve::RequestClassConfig rc = serve::RequestClassConfig::from_json(
      Json::parse(R"({"deadline_us": 5000, "tenant": "rt"})"));
  EXPECT_EQ(rc.deadline.count(), 5000);
  EXPECT_EQ(rc.tenant, "rt");
  serve::RequestClassConfig defaults =
      serve::RequestClassConfig::from_json(Json::parse(R"({})"));
  EXPECT_EQ(defaults.deadline.count(), 0);  // inherit the server default
  EXPECT_EQ(defaults.tenant, serve::kDefaultTenant);
}

TEST(PolicyServerTest, RoutesRequestClassesByName) {
  SpacePtr obs_space = FloatBox(Shape{4});
  SpacePtr act_space = IntBox(3);
  DQNAgent trainer(serve_dqn_config(), obs_space, act_space);
  trainer.build();

  PolicyServerConfig cfg;
  cfg.num_shards = 1;
  cfg.batcher.max_batch_size = 8;
  cfg.batcher.max_queue_delay = 1ms;
  serve::RequestClassConfig realtime;
  realtime.deadline = 60s;  // generous: sanitizer builds run slowly
  realtime.tenant = "rt";
  cfg.request_classes["realtime"] = realtime;
  PolicyServer server(serve_dqn_config(), obs_space, act_space, cfg);
  server.store().publish(trainer.get_weights());
  server.start();

  Rng rng(3);
  std::vector<float> v(4);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  Tensor obs = Tensor::from_floats(Shape{4}, v);
  ActResult rt = server.act_async(obs, "realtime").get();
  EXPECT_EQ(rt.policy_version, 1);
  Tensor want = trainer.get_actions(obs.reshaped(Shape{1, 4}), false);
  EXPECT_EQ(static_cast<int32_t>(rt.action.scalar_value()), want.to_ints()[0]);

  EXPECT_THROW(server.act_async(obs, "no-such-class"), NotFoundError);
  server.shutdown();
}

TEST(PolicyServerTest, RejectsMalformedObservationsAtAdmission) {
  SpacePtr obs_space = FloatBox(Shape{4});
  SpacePtr act_space = IntBox(3);
  PolicyServerConfig cfg;
  cfg.num_shards = 1;
  PolicyServer server(serve_dqn_config(), obs_space, act_space, cfg);
  server.start();
  EXPECT_THROW(server.act(Tensor::from_floats(Shape{5}, {1, 2, 3, 4, 5})),
               ValueError);
  EXPECT_THROW(server.act(Tensor::from_floats(Shape{1, 4}, {1, 2, 3, 4})),
               ValueError);
  server.shutdown();
}

// --- tensor batching primitives ----------------------------------------------

TEST(BatchingPrimitivesTest, StackUnstackRoundTrip) {
  std::vector<Tensor> parts;
  for (int i = 0; i < 3; ++i) {
    parts.push_back(Tensor::from_floats(
        Shape{2}, {static_cast<float>(i), static_cast<float>(10 * i)}));
  }
  Tensor stacked = stack_leading(parts);
  EXPECT_EQ(stacked.shape(), (Shape{3, 2}));
  std::vector<Tensor> back = unstack_leading(stacked);
  ASSERT_EQ(back.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_TRUE(back[i].equals(parts[i]));
}

TEST(BatchingPrimitivesTest, StackRejectsMismatchedParts) {
  std::vector<Tensor> parts;
  parts.push_back(Tensor::from_floats(Shape{2}, {1, 2}));
  parts.push_back(Tensor::from_floats(Shape{3}, {1, 2, 3}));
  EXPECT_THROW(stack_leading(parts), ValueError);
  EXPECT_THROW(stack_leading({}), ValueError);
}

// --- continuous-control serving ----------------------------------------------
//
// The SAC serve path: a trainer publishes weights, the server answers with
// deterministic squashed-mean actions. Dense forward passes are row-wise
// independent, so a served action must be BITWISE identical to the trainer's
// greedy action for the same observation regardless of how requests coalesce
// — exercised here at concurrencies 1, 4 and 16 against the one build-time
// plan.

Json serve_sac_config() {
  return Json::parse(R"({
    "type": "sac",
    "network": [{"type": "dense", "units": 16, "activation": "relu"},
                {"type": "dense", "units": 16, "activation": "relu"}],
    "memory": {"capacity": 256},
    "optimizer": {"type": "adam", "learning_rate": 0.001},
    "update": {"batch_size": 16, "min_records": 32},
    "seed": 21
  })");
}

TEST(PolicyServerTest, SacMeanActionsMatchTrainerGreedyAcrossBatchSizes) {
  SpacePtr obs_space = FloatBox(Shape{3});
  SpacePtr act_space = FloatBox(Shape{1}, {-2.0}, {2.0});

  SacAgent trainer(serve_sac_config(), obs_space, act_space);
  trainer.build();

  PolicyServerConfig cfg;
  cfg.num_shards = 1;
  cfg.batcher.max_batch_size = 16;
  cfg.batcher.max_queue_delay = 10ms;  // lets concurrent requests coalesce
  PolicyServer server(serve_sac_config(), obs_space, act_space, cfg);
  server.store().publish(trainer.get_weights());
  server.start();

  Rng rng(77);
  std::vector<Tensor> observations;
  for (int i = 0; i < 16; ++i) {
    std::vector<float> v(3);
    for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    observations.push_back(Tensor::from_floats(Shape{3}, v));
  }
  // Reference: greedy actions for the full stacked batch in one plan run.
  Tensor want = trainer.get_actions(stack_leading(observations),
                                    /*explore=*/false);
  ASSERT_EQ(want.shape(), (Shape{16, 1}));

  for (int concurrency : {1, 4, 16}) {
    std::vector<Tensor> got(16);
    for (int base = 0; base < 16; base += concurrency) {
      std::vector<std::thread> threads;
      for (int k = 0; k < concurrency; ++k) {
        threads.emplace_back([&, base, k] {
          got[static_cast<size_t>(base + k)] =
              server.act(observations[static_cast<size_t>(base + k)]).action;
        });
      }
      for (auto& t : threads) t.join();
    }
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(got[static_cast<size_t>(i)].shape(), (Shape{1}))
          << "concurrency " << concurrency << " obs " << i;
      // Bitwise: float equality, no tolerance.
      EXPECT_EQ(got[static_cast<size_t>(i)].to_floats()[0],
                want.data<float>()[i])
          << "concurrency " << concurrency << " obs " << i;
    }
  }
  server.shutdown();
}

}  // namespace
}  // namespace rlgraph
