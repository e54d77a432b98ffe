// Serving control plane: tenant admission quotas, DRR fair queueing,
// canary rollout with automatic rollback, and the open-loop load harness.
//
// Unit layers (token bucket, batcher DRR, canary state machine, routing
// hash) are tested deterministically — synthetic timestamps, explicit
// request ids, no RNG. The end-to-end scenarios (hot tenant at 10x quota,
// canary auto-rollback with zero collateral failures) drive a real
// PolicyServer through the bench/ open-loop harness.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "load_harness.h"
#include "serve/batcher.h"
#include "serve/canary.h"
#include "serve/policy_server.h"
#include "serve/tenant.h"

namespace rlgraph {
namespace {

using namespace std::chrono_literals;
using serve::ActOptions;
using serve::ActRequest;
using serve::ActResult;
using serve::BatcherConfig;
using serve::CanaryConfig;
using serve::CanaryController;
using serve::CanaryState;
using serve::DynamicBatcher;
using serve::PolicyServer;
using serve::PolicyServerConfig;
using serve::PolicySnapshot;
using serve::RouteKind;
using serve::ServeClock;
using serve::TenantConfig;
using serve::TenantRegistry;

Tensor obs1(float v) { return Tensor::from_floats(Shape{1}, {v}); }

// --- TenantRegistry token buckets --------------------------------------------

TEST(TenantRegistryTest, TokenBucketAdmitsBurstThenRefillsAtQuota) {
  TenantRegistry reg;
  TenantConfig cfg;
  cfg.quota_qps = 10.0;
  cfg.burst = 5.0;
  reg.register_tenant("t", cfg);

  const ServeClock::time_point t0 = ServeClock::now();
  // The bucket starts full: exactly `burst` admissions at one instant.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(reg.try_admit("t", t0)) << "burst admission " << i;
  }
  EXPECT_FALSE(reg.try_admit("t", t0)) << "6th admission at t0 over burst";

  // 100ms at 10 qps = exactly one token back.
  EXPECT_TRUE(reg.try_admit("t", t0 + 100ms));
  EXPECT_FALSE(reg.try_admit("t", t0 + 100ms));

  // A long idle period refills to burst, never beyond.
  const ServeClock::time_point later = t0 + 10s;
  EXPECT_DOUBLE_EQ(reg.tokens("t", later), 5.0);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(reg.try_admit("t", later));
  EXPECT_FALSE(reg.try_admit("t", later));
}

TEST(TenantRegistryTest, UnlimitedAndDefaultTenantsAlwaysAdmit) {
  TenantRegistry reg;
  const ServeClock::time_point t0 = ServeClock::now();
  // Unregistered tenants inherit the default (unlimited) config.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(reg.try_admit("unknown", t0));
  }
  // An explicit default config applies to every unregistered tenant.
  TenantConfig limited;
  limited.quota_qps = 1.0;
  limited.burst = 2.0;
  reg.set_default_config(limited);
  EXPECT_TRUE(reg.try_admit("fresh", t0));
  EXPECT_TRUE(reg.try_admit("fresh", t0));
  EXPECT_FALSE(reg.try_admit("fresh", t0));
}

// --- DynamicBatcher: layered admission + DRR ---------------------------------

TEST(BatcherControlPlaneTest, TenantQuotaShedsAreTenantScoped) {
  MetricRegistry metrics;
  TenantRegistry tenants;
  TenantConfig cfg;
  cfg.quota_qps = 1.0;
  cfg.burst = 2.0;
  tenants.register_tenant("limited", cfg);

  BatcherConfig bcfg;
  bcfg.max_batch_size = 8;
  DynamicBatcher batcher(bcfg, &metrics, &tenants);

  auto f1 = batcher.submit(obs1(1), serve::kNoDeadline, "limited", 1);
  auto f2 = batcher.submit(obs1(2), serve::kNoDeadline, "limited", 2);
  try {
    (void)batcher.submit(obs1(3), serve::kNoDeadline, "limited", 3);
    FAIL() << "3rd submit at one instant should exceed burst 2";
  } catch (const OverloadedError& e) {
    EXPECT_EQ(e.scope(), OverloadedError::Scope::kTenant);
    EXPECT_EQ(e.tenant(), "limited");
    EXPECT_NE(std::string(e.what()).find("quota"), std::string::npos);
  }
  // The shed is split by reason and by tenant; other tenants are untouched.
  EXPECT_EQ(metrics.counter("serve/shed_total{reason=tenant_quota}"), 1);
  EXPECT_EQ(metrics.counter("serve/tenant_shed{tenant=limited}"), 1);
  auto f3 = batcher.submit(obs1(4), serve::kNoDeadline, "other", 4);
  EXPECT_EQ(batcher.pending(), 3u);
  batcher.close();
  batcher.shed_all("test over");
  (void)f1;
  (void)f2;
  (void)f3;
}

TEST(BatcherControlPlaneTest, TenantQueueBoundCarriesDepthAndCapacity) {
  MetricRegistry metrics;
  BatcherConfig bcfg;
  bcfg.max_batch_size = 64;
  bcfg.queue_capacity = 100;
  bcfg.tenant_queue_capacity = 3;  // per-tenant backlog allowance
  DynamicBatcher batcher(bcfg, &metrics, nullptr);

  std::vector<std::future<ActResult>> futs;
  for (int i = 0; i < 3; ++i) {
    futs.push_back(batcher.submit(obs1(float(i)), serve::kNoDeadline,
                                  "spammer", 0));
  }
  try {
    (void)batcher.submit(obs1(9), serve::kNoDeadline, "spammer", 0);
    FAIL() << "4th queued request should exceed the per-tenant bound";
  } catch (const OverloadedError& e) {
    EXPECT_EQ(e.scope(), OverloadedError::Scope::kTenant);
    EXPECT_EQ(e.tenant(), "spammer");
    // The message names the observed depth and the configured capacity.
    EXPECT_NE(std::string(e.what()).find("3/3"), std::string::npos);
  }
  EXPECT_EQ(metrics.counter("serve/shed_total{reason=tenant_queue}"), 1);
  // Another tenant still has the global queue to itself.
  futs.push_back(batcher.submit(obs1(5), serve::kNoDeadline, "quiet", 0));
  batcher.close();
  batcher.shed_all("test over");
}

TEST(BatcherControlPlaneTest, GlobalBoundIsGlobalScopedWithDepth) {
  MetricRegistry metrics;
  BatcherConfig bcfg;
  bcfg.max_batch_size = 64;
  bcfg.queue_capacity = 2;
  DynamicBatcher batcher(bcfg, &metrics, nullptr);
  auto f1 = batcher.submit(obs1(1));
  auto f2 = batcher.submit(obs1(2));
  try {
    (void)batcher.submit(obs1(3));
    FAIL() << "global capacity 2 should shed the 3rd";
  } catch (const OverloadedError& e) {
    EXPECT_EQ(e.scope(), OverloadedError::Scope::kGlobal);
    EXPECT_NE(std::string(e.what()).find("2/2"), std::string::npos);
  }
  EXPECT_EQ(metrics.counter("serve/shed_total{reason=overload}"), 1);
  EXPECT_EQ(metrics.counter("serve/shed_overload"), 1);  // legacy counter
  batcher.close();
  batcher.shed_all("test over");
}

// A flooding tenant cannot crowd an assembled batch: DRR visits every
// tenant with queued work per round, so the two quiet tenants' requests
// ride in the very first batch despite 10x as many hog requests ahead of
// them in arrival order.
TEST(BatcherControlPlaneTest, DeficitRoundRobinSharesBatchUnderFlood) {
  BatcherConfig bcfg;
  bcfg.max_batch_size = 8;
  bcfg.max_queue_delay = 1ms;
  DynamicBatcher batcher(bcfg, nullptr, nullptr);

  std::vector<std::future<ActResult>> futs;
  for (int i = 0; i < 30; ++i) {
    futs.push_back(batcher.submit(obs1(float(i)), serve::kNoDeadline,
                                  "hog", 0));
  }
  for (int i = 0; i < 3; ++i) {
    futs.push_back(batcher.submit(obs1(100.0f + i), serve::kNoDeadline,
                                  "a", 0));
    futs.push_back(batcher.submit(obs1(200.0f + i), serve::kNoDeadline,
                                  "b", 0));
  }

  std::vector<ActRequest> batch = batcher.next_batch();
  ASSERT_EQ(batch.size(), 8u);
  std::map<std::string, int> per_tenant;
  for (const ActRequest& r : batch) per_tenant[r.tenant]++;
  // Rotation hog,a,b with weight 1 each: hog 3, a 3, b 2 — NOT hog 8.
  EXPECT_GE(per_tenant["a"], 2);
  EXPECT_GE(per_tenant["b"], 2);
  EXPECT_LE(per_tenant["hog"], 4);
  batcher.close();
  batcher.shed_all("test over");
}

TEST(BatcherControlPlaneTest, DrrWeightBuysProportionalBatchShare) {
  TenantRegistry tenants;
  TenantConfig heavy;
  heavy.weight = 3;
  tenants.register_tenant("heavy", heavy);

  BatcherConfig bcfg;
  bcfg.max_batch_size = 8;
  DynamicBatcher batcher(bcfg, nullptr, &tenants);
  std::vector<std::future<ActResult>> futs;
  for (int i = 0; i < 20; ++i) {
    futs.push_back(batcher.submit(obs1(float(i)), serve::kNoDeadline,
                                  "heavy", 0));
    futs.push_back(batcher.submit(obs1(float(i)), serve::kNoDeadline,
                                  "light", 0));
  }
  std::vector<ActRequest> batch = batcher.next_batch();
  ASSERT_EQ(batch.size(), 8u);
  std::map<std::string, int> per_tenant;
  for (const ActRequest& r : batch) per_tenant[r.tenant]++;
  // weight 3 vs 1: heavy places 3 per round to light's 1 -> 6/2 in a batch
  // of 8.
  EXPECT_EQ(per_tenant["heavy"], 6);
  EXPECT_EQ(per_tenant["light"], 2);
  batcher.close();
  batcher.shed_all("test over");
}

TEST(BatcherControlPlaneTest, DeadlineShedsCountUnderDeadlineReason) {
  MetricRegistry metrics;
  BatcherConfig bcfg;
  bcfg.max_batch_size = 4;
  bcfg.max_queue_delay = 1ms;
  DynamicBatcher batcher(bcfg, &metrics, nullptr);
  // Already-expired deadline: shed at dispatch with TimeoutError.
  auto expired = batcher.submit(obs1(1), ServeClock::now() - 1ms);
  auto alive = batcher.submit(obs1(2));
  std::vector<ActRequest> batch = batcher.next_batch();
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_THROW(expired.get(), TimeoutError);
  EXPECT_EQ(metrics.counter("serve/shed_total{reason=deadline}"), 1);
  EXPECT_EQ(metrics.counter("serve/shed_deadline"), 1);
  for (ActRequest& r : batch) {
    r.promise.set_value(ActResult{});
  }
  (void)alive;
  batcher.close();
  batcher.shed_all("test over");
}

// --- Canary routing determinism ----------------------------------------------

TEST(CanaryRoutingTest, HashMatchesSplitmix64GoldenVector) {
  // hash_request_id IS splitmix64's output function; its first outputs for
  // state 0 are published test vectors. Pinning one here makes the routing
  // split reproducible across platforms and releases, not merely within a
  // process.
  EXPECT_EQ(CanaryController::hash_request_id(0), 0xE220A8397B1DCDAFULL);
}

TEST(CanaryRoutingTest, RoutingIsAPureFunctionOfRequestId) {
  CanaryConfig cfg;
  cfg.weight = 0.25;
  CanaryController a(cfg), b(cfg);
  a.start(1, 2);
  b.start(1, 2);
  int canary = 0;
  for (uint64_t id = 0; id < 4096; ++id) {
    RouteKind ra = a.route(id);
    // Two independent controllers and repeated calls agree bitwise.
    ASSERT_EQ(ra, b.route(id)) << "id " << id;
    ASSERT_EQ(ra, a.route(id)) << "id " << id;
    if (ra == RouteKind::kCanary) ++canary;
  }
  // The hash split realizes the configured weight closely.
  EXPECT_NEAR(canary / 4096.0, 0.25, 0.03);
  EXPECT_EQ(a.routed_version(7), b.routed_version(7));
}

// --- CanaryController state machine ------------------------------------------

CanaryConfig quick_canary_config() {
  CanaryConfig cfg;
  cfg.weight = 0.5;
  cfg.min_samples = 10;
  cfg.p99_ratio_guardband = 1.5;
  cfg.p99_slack_seconds = 500e-6;
  cfg.error_rate_guardband = 0.02;
  return cfg;
}

void record_n(CanaryController& c, RouteKind side, int n, double latency,
              int errors = 0) {
  for (int i = 0; i < n; ++i) {
    c.record(side, latency, /*error=*/i < errors);
  }
}

TEST(CanaryControllerTest, NoDecisionUntilBothSidesReachMinSamples) {
  CanaryController c(quick_canary_config());
  c.start(1, 2);
  // A terrible canary, but only 9 canary samples: no decision yet.
  record_n(c, RouteKind::kBaseline, 50, 1e-4);
  record_n(c, RouteKind::kCanary, 9, 1.0);
  EXPECT_EQ(c.evaluate(), CanaryState::kCanarying);
  // The 10th canary sample fills the epoch: rollback.
  record_n(c, RouteKind::kCanary, 1, 1.0);
  EXPECT_EQ(c.evaluate(), CanaryState::kRolledBack);
}

TEST(CanaryControllerTest, RollsBackOnP99Regression) {
  MetricRegistry metrics;
  CanaryController c(quick_canary_config(), &metrics);
  c.start(3, 4);
  record_n(c, RouteKind::kBaseline, 40, 1e-4);
  record_n(c, RouteKind::kCanary, 40, 5e-3);  // 50x the baseline p99
  EXPECT_EQ(c.evaluate(), CanaryState::kRolledBack);
  EXPECT_EQ(metrics.counter("serve/canary_rollbacks"), 1);
  EXPECT_EQ(metrics.counter("serve/canary_rollbacks_p99"), 1);
  EXPECT_EQ(metrics.counter("serve/canary_rollbacks_error_rate"), 0);
  EXPECT_DOUBLE_EQ(metrics.gauge("serve/canary_rolled_back"), 1.0);
  // Post-rollback, every request routes to the pinned baseline version.
  for (uint64_t id = 0; id < 64; ++id) {
    EXPECT_EQ(c.route(id), RouteKind::kBaseline);
    EXPECT_EQ(c.routed_version(id), 3);
  }
  EXPECT_EQ(c.serving_version(/*newest=*/4), 3);
}

TEST(CanaryControllerTest, RollsBackOnErrorRateRegression) {
  MetricRegistry metrics;
  CanaryController c(quick_canary_config(), &metrics);
  c.start(1, 2);
  // Same latency both sides; canary errors 30% vs baseline 0%.
  record_n(c, RouteKind::kBaseline, 40, 1e-4);
  record_n(c, RouteKind::kCanary, 40, 1e-4, /*errors=*/12);
  EXPECT_EQ(c.evaluate(), CanaryState::kRolledBack);
  EXPECT_EQ(metrics.counter("serve/canary_rollbacks_error_rate"), 1);
  CanaryController::EpochStats epoch = c.last_epoch();
  EXPECT_EQ(epoch.canary_count, 40);
  EXPECT_NEAR(epoch.canary_error_rate, 0.3, 1e-9);
  EXPECT_DOUBLE_EQ(epoch.baseline_error_rate, 0.0);
}

TEST(CanaryControllerTest, RollbackLatchesAndDoesNotFlap) {
  CanaryController c(quick_canary_config());
  c.start(1, 2);
  record_n(c, RouteKind::kBaseline, 20, 1e-4);
  record_n(c, RouteKind::kCanary, 20, 1.0);
  ASSERT_EQ(c.evaluate(), CanaryState::kRolledBack);
  // A flood of perfectly healthy traffic cannot un-latch the rollback.
  for (int round = 0; round < 5; ++round) {
    record_n(c, RouteKind::kBaseline, 100, 1e-4);
    record_n(c, RouteKind::kCanary, 100, 1e-4);
    EXPECT_EQ(c.evaluate(), CanaryState::kRolledBack);
    EXPECT_EQ(c.route(uint64_t(round)), RouteKind::kBaseline);
  }
  // Only an explicit new rollout moves the state again.
  c.start(2, 5);
  EXPECT_EQ(c.state(), CanaryState::kCanarying);
}

TEST(CanaryControllerTest, HealthyCanaryPromotesAfterConfiguredSamples) {
  MetricRegistry metrics;
  CanaryConfig cfg = quick_canary_config();
  cfg.promote_after_samples = 30;
  CanaryController c(cfg, &metrics);
  c.start(1, 2);
  for (int round = 0; round < 3; ++round) {
    record_n(c, RouteKind::kBaseline, 15, 1e-4);
    record_n(c, RouteKind::kCanary, 15, 1e-4);
    c.evaluate();
  }
  EXPECT_EQ(c.state(), CanaryState::kPromoted);
  EXPECT_EQ(metrics.counter("serve/canary_promotions"), 1);
  // Promoted: all traffic routes to the candidate; the serving version is
  // the candidate even while newer versions exist.
  EXPECT_EQ(c.route(123), RouteKind::kCanary);
  EXPECT_EQ(c.serving_version(/*newest=*/9), 2);
  c.end();
  EXPECT_EQ(c.state(), CanaryState::kIdle);
  EXPECT_EQ(c.serving_version(/*newest=*/9), 9);
}

TEST(CanaryControllerTest, StaleOutcomesFromPreviousRolloutDoNotLeak) {
  CanaryController c(quick_canary_config());
  c.start(1, 2);
  // A disastrous first rollout...
  record_n(c, RouteKind::kBaseline, 20, 1e-4);
  record_n(c, RouteKind::kCanary, 20, 1.0);
  ASSERT_EQ(c.evaluate(), CanaryState::kRolledBack);
  // ...plus un-consumed garbage recorded after the decision...
  record_n(c, RouteKind::kCanary, 15, 1.0);
  // ...must not poison a NEW candidate's first epoch.
  c.start(1, 3);
  record_n(c, RouteKind::kBaseline, 20, 1e-4);
  record_n(c, RouteKind::kCanary, 20, 1e-4);
  EXPECT_EQ(c.evaluate(), CanaryState::kCanarying);
}

// --- PolicyStore version history ---------------------------------------------

serve::WeightMap weights_v(int64_t v) {
  serve::WeightMap w;
  w["v"] = Tensor::scalar(static_cast<float>(v));
  return w;
}

TEST(PolicyStoreHistoryTest, PinnedVersionsSurviveNewerPublishes) {
  serve::PolicyStore store;
  const int64_t v1 = store.publish(weights_v(1));
  const int64_t v2 = store.publish(weights_v(2));
  EXPECT_EQ(store.version(), v2);

  PolicySnapshot pinned = store.snapshot_version(v1);
  ASSERT_TRUE(pinned.valid());
  EXPECT_EQ(pinned.version, v1);
  EXPECT_FLOAT_EQ(pinned.weights->at("v").scalar_value(), 1.0f);
  EXPECT_EQ(store.history_versions().size(), 2u);

  // Unknown versions are invalid, not fatal.
  EXPECT_FALSE(store.snapshot_version(99).valid());
}

TEST(PolicyStoreHistoryTest, HistoryIsBoundedAndEvictsOldest) {
  serve::PolicyStore store;
  store.set_history_capacity(2);
  const int64_t v1 = store.publish(weights_v(1));
  const int64_t v2 = store.publish(weights_v(2));
  const int64_t v3 = store.publish(weights_v(3));
  EXPECT_FALSE(store.snapshot_version(v1).valid()) << "oldest evicted";
  EXPECT_TRUE(store.snapshot_version(v2).valid());
  EXPECT_TRUE(store.snapshot_version(v3).valid());
}

// --- End to end: fairness under a flooding tenant ----------------------------

// Trivial engine (no agent) so the fairness signal is pure control plane,
// fast enough for the TSAN/ASAN sweeps.
class VersionEchoEngine : public serve::ServingEngine {
 public:
  void load(const PolicySnapshot& snapshot) override {
    version_ = static_cast<int64_t>(snapshot.weights->at("v").scalar_value());
  }
  Tensor forward(const Tensor& obs_batch) override {
    const int64_t n = obs_batch.shape().dim(0);
    std::vector<float> out(static_cast<size_t>(n),
                           static_cast<float>(version_));
    return Tensor::from_floats(Shape{n}, out);
  }

 protected:
  int64_t version_ = 0;
};

// ISSUE acceptance: one tenant offered ~10x its quota, two tenants within
// quota, under the open-loop harness. The hot tenant is shed tenant-scoped
// while the in-quota tenants' attained QPS is unaffected.
TEST(ControlPlaneEndToEndTest, HotTenantIsShedWithoutHarmingOthers) {
  PolicyServerConfig cfg;
  cfg.num_shards = 1;
  cfg.batcher.max_batch_size = 16;
  cfg.batcher.max_queue_delay = 500us;
  cfg.batcher.queue_capacity = 4096;
  TenantConfig hot;
  hot.quota_qps = 50.0;
  hot.burst = 50.0;
  cfg.tenants["hot"] = hot;

  PolicyServer server([](int) { return std::make_unique<VersionEchoEngine>(); },
                      cfg);
  server.store().publish(weights_v(1));
  server.start();

  bench::LoadConfig load;
  load.observations = {obs1(0.5f)};
  load.duration_seconds = 1.0;
  load.seed = 99;
  load.offered_qps = 700.0;  // hot ~500 (10x quota), a/b ~100 each
  bench::LoadStreamSpec hot_s, a_s, b_s;
  hot_s.name = "hot";
  hot_s.tenant = "hot";
  hot_s.share = 5.0;
  a_s.name = "a";
  a_s.tenant = "a";
  a_s.share = 1.0;
  b_s.name = "b";
  b_s.tenant = "b";
  b_s.share = 1.0;
  load.streams = {hot_s, a_s, b_s};

  bench::LoadReport report = bench::run_open_loop(server, load);

  // Conservation: every arrival resolved exactly once.
  EXPECT_TRUE(report.conserved())
      << "offered " << report.offered << " != " << report.completed << "+"
      << report.shed << "+" << report.timeout << "+" << report.failed;

  const bench::StreamStats* hot_stats = report.stream("hot");
  const bench::StreamStats* a_stats = report.stream("a");
  const bench::StreamStats* b_stats = report.stream("b");
  ASSERT_NE(hot_stats, nullptr);
  ASSERT_NE(a_stats, nullptr);
  ASSERT_NE(b_stats, nullptr);

  // The hot tenant was shed at its own bucket...
  EXPECT_GT(hot_stats->shed, 0);
  // ...and admitted at most quota * time + burst.
  EXPECT_LE(hot_stats->completed,
            static_cast<int64_t>(50.0 * report.duration_seconds + 50.0 + 1));
  // In-quota tenants: zero sheds, essentially everything answered.
  EXPECT_EQ(a_stats->shed, 0);
  EXPECT_EQ(b_stats->shed, 0);
  EXPECT_EQ(a_stats->completed + a_stats->timeout + a_stats->failed,
            a_stats->offered);
  EXPECT_GE(a_stats->completed, (a_stats->offered * 9) / 10);
  EXPECT_GE(b_stats->completed, (b_stats->offered * 9) / 10);
  EXPECT_GT(a_stats->p99, 0.0);

  // Shed accounting is tenant-scoped: quota reason, hot's counter only.
  MetricRegistry& m = server.metrics();
  EXPECT_EQ(m.counter("serve/shed_total{reason=tenant_quota}"),
            hot_stats->shed);
  EXPECT_EQ(m.counter("serve/tenant_shed{tenant=hot}"), hot_stats->shed);
  EXPECT_EQ(m.counter("serve/tenant_shed{tenant=a}"), 0);
  EXPECT_EQ(m.counter("serve/shed_total{reason=overload}"), 0);
  server.shutdown();
}

// --- End to end: canary auto-rollback ----------------------------------------

// Engine whose forward pass stalls when it is running the configured slow
// version — a candidate with a latency regression.
class SlowVersionEngine : public VersionEchoEngine {
 public:
  SlowVersionEngine(int64_t slow_version, std::chrono::microseconds delay)
      : slow_version_(slow_version), delay_(delay) {}
  Tensor forward(const Tensor& obs_batch) override {
    if (version_ == slow_version_) std::this_thread::sleep_for(delay_);
    return VersionEchoEngine::forward(obs_batch);
  }

 private:
  int64_t slow_version_;
  std::chrono::microseconds delay_;
};

TEST(ControlPlaneEndToEndTest, CanaryLatencyRegressionRollsBackWithoutFailures) {
  PolicyServerConfig cfg;
  cfg.num_shards = 1;
  cfg.batcher.max_batch_size = 8;
  cfg.batcher.max_queue_delay = 200us;
  cfg.canary.weight = 0.5;
  cfg.canary.min_samples = 12;

  PolicyServer server(
      [](int) { return std::make_unique<SlowVersionEngine>(2, 5ms); }, cfg);
  const int64_t v1 = server.store().publish(weights_v(1));
  server.start();

  // Warm the baseline before the rollout starts.
  ActResult warm = server.act(obs1(0.1f));
  EXPECT_EQ(warm.policy_version, v1);

  const int64_t v2 = server.store().publish(weights_v(2));
  server.start_canary(v2);
  EXPECT_EQ(server.canary().state(), CanaryState::kCanarying);
  EXPECT_EQ(server.canary().baseline_version(), v1);

  // Drive explicit sequential request ids until the guardband trips. Every
  // future must resolve with an action — rollback only flips routing for
  // requests not yet routed, it fails nothing.
  int64_t failures = 0;
  int64_t canary_served = 0;
  uint64_t next_id = 1;
  for (int wave = 0; wave < 60 && server.canary().active(); ++wave) {
    std::vector<std::future<ActResult>> futs;
    for (int i = 0; i < 12; ++i) {
      ActOptions opts;
      opts.request_id = next_id++;
      futs.push_back(server.act_async(obs1(0.5f), opts));
    }
    for (auto& f : futs) {
      try {
        ActResult r = f.get();
        if (r.policy_version == v2) ++canary_served;
      } catch (const Error&) {
        ++failures;
      }
    }
  }

  EXPECT_EQ(server.canary().state(), CanaryState::kRolledBack);
  EXPECT_EQ(failures, 0) << "rollback must not fail in-flight requests";
  EXPECT_GT(canary_served, 0) << "the candidate served before rolling back";
  EXPECT_DOUBLE_EQ(server.metrics().gauge("serve/canary_rolled_back"), 1.0);
  EXPECT_GE(server.metrics().counter("serve/canary_rollbacks"), 1);

  // Rolled back: the baseline version answers everything, although the
  // candidate is the newest published version.
  for (int i = 0; i < 30; ++i) {
    ActResult r = server.act(obs1(0.3f));
    EXPECT_EQ(r.policy_version, v1);
  }

  // Ending the rollout returns to newest-wins serving (v2 — deliberately:
  // acting on the rollback is the operator's call).
  server.end_canary();
  ActResult after;
  for (int i = 0; i < 1000 && after.policy_version != v2; ++i) {
    after = server.act(obs1(0.3f));
  }
  EXPECT_EQ(after.policy_version, v2);
  server.shutdown();
}

TEST(ControlPlaneEndToEndTest, StartCanaryValidatesCandidateAndBaseline) {
  PolicyServerConfig cfg;
  cfg.num_shards = 1;
  PolicyServer server([](int) { return std::make_unique<VersionEchoEngine>(); },
                      cfg);
  const int64_t v1 = server.store().publish(weights_v(1));
  server.start();
  // Unknown candidate: NotFoundError.
  EXPECT_THROW(server.start_canary(42), NotFoundError);
  // Candidate == only published version: no distinct baseline exists.
  EXPECT_THROW(server.start_canary(v1), Error);
  server.shutdown();
}

}  // namespace
}  // namespace rlgraph
