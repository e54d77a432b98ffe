// PolicyServer: a trained agent as a high-throughput inference service.
//
// Clients call act()/act_async() from any number of threads; the dynamic
// batcher (serve/batcher.h) coalesces their observations and serving shards
// run one batched greedy forward pass per flush through the agent's cached
// CompiledPlan — per-call framework overhead is paid once per batch, not
// once per request. Weights come from the versioned PolicyStore: each shard
// checks the store between batches and hot-swaps to the newest snapshot, so
// every response is computed by exactly one published version (reported in
// ActResult::policy_version) and a batch never observes a torn snapshot.
//
// Threading: each shard is a dedicated thread owning a private ServingEngine
// replica — serve loops block on the batcher's condition variable, which a
// task on the shared work-stealing pool must never do (the pool may have
// zero workers under RLGRAPH_NUM_THREADS=1). The batched forward pass
// itself still shards onto the global pool through the intra-op parallel
// kernels, exactly like any other compiled-plan run.
//
// Shutdown is a graceful drain: new submits are rejected with
// OverloadedError, queued requests are served, then shards exit.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agents/agent.h"
#include "serve/batcher.h"
#include "serve/canary.h"
#include "serve/policy_store.h"
#include "serve/tenant.h"

namespace rlgraph {
namespace serve {

// One shard's exclusive model replica. load() and forward() are only ever
// called from the owning shard thread, strictly between batches, so
// implementations need no internal locking.
class ServingEngine {
 public:
  virtual ~ServingEngine() = default;
  // Install a published snapshot (called when the store has a newer
  // version than the one this engine is running).
  virtual void load(const PolicySnapshot& snapshot) = 0;
  // Greedy actions for a stacked observation batch [B, ...] -> [B, ...].
  virtual Tensor forward(const Tensor& obs_batch) = 0;
};

// The standard engine: a replica agent built from the trainer's declarative
// config. forward() is get_actions(batch, explore=false); load() is
// set_weights(), so published snapshots must use the same variable scoping
// as the replica (publishing trainer.get_weights() of an identically
// configured agent does).
class AgentServingEngine : public ServingEngine {
 public:
  AgentServingEngine(const Json& config, SpacePtr state_space,
                     SpacePtr action_space);

  void load(const PolicySnapshot& snapshot) override;
  Tensor forward(const Tensor& obs_batch) override;

  Agent& agent() { return *agent_; }

 private:
  std::unique_ptr<Agent> agent_;
};

// One named request class: clients tag act_async calls with the class name
// and inherit its deadline and tenant. Parsed from JSON of the form
// {"deadline_us": 2500, "tenant": "rt"}.
struct RequestClassConfig {
  // Zero inherits the server's default_deadline.
  std::chrono::microseconds deadline{0};
  // Tenant the class's requests are admitted under ("" = default tenant).
  std::string tenant = kDefaultTenant;

  static RequestClassConfig from_json(const Json& config);
};

// Per-call routing options for act_async. Every field is optional; unset
// fields inherit from the request class (when named) and then the server
// defaults. This is the one submission surface the load harness and
// multi-tenant clients use — the positional act_async overloads are
// conveniences over it.
struct ActOptions {
  // Tenant for admission control and fair queueing; "" = the request
  // class's tenant, falling back to the default tenant.
  std::string tenant;
  // Named request class from PolicyServerConfig::request_classes ("" =
  // none; unknown names throw NotFoundError).
  std::string request_class;
  // Overrides the class/server deadline when > 0.
  std::chrono::microseconds deadline{0};
  // Deterministic canary-routing key; 0 auto-assigns from the server's
  // monotonic counter. Pass explicit ids to replay a routing schedule.
  uint64_t request_id = 0;
};

struct PolicyServerConfig {
  // Serving shards (threads × engine replicas) pulling from one batcher.
  int num_shards = 1;
  BatcherConfig batcher;
  // Applied to act()/act_async() calls that pass no explicit deadline;
  // zero means requests wait for as long as the queue holds them.
  std::chrono::microseconds default_deadline{0};
  // Round each flushed batch up to a bucket size by repeating the last
  // observation (padding rows are computed and discarded, never answered).
  // A handful of distinct batch sizes means a handful of shape-specialized
  // plans: every forward pass hits a cached batch-N plan with a static
  // memory layout instead of compiling — or dynamically allocating — per
  // ragged flush size.
  bool pad_batches = true;
  // Ascending bucket sizes; empty = powers of two up to
  // batcher.max_batch_size. A batch larger than every bucket is served
  // unpadded at its natural size. Explicitly configured buckets also become
  // the batcher's flush buckets (a queue sitting exactly on a bucket
  // dispatches immediately, padding-free) unless batcher.flush_buckets is
  // set; the implicit power-of-two default does not (its bucket 1 would
  // flush every request as a singleton).
  std::vector<int64_t> batch_buckets;
  // Named request classes for act_async(obs, class_name).
  std::map<std::string, RequestClassConfig> request_classes;
  // --- control plane ---------------------------------------------------------
  // Per-tenant admission quotas / queue bounds / DRR weights; tenants not
  // named here run under default_tenant (unlimited quota unless set).
  std::map<std::string, TenantConfig> tenants;
  TenantConfig default_tenant;
  // Guardbands for canary rollouts started via start_canary().
  CanaryConfig canary;
};

class PolicyServer {
 public:
  // `factory(shard)` runs on the shard's own thread (engines are built
  // where they are used, like raylite actors).
  using EngineFactory = std::function<std::unique_ptr<ServingEngine>(int)>;

  PolicyServer(EngineFactory factory, PolicyServerConfig config = {});
  // Convenience: one AgentServingEngine replica per shard from a
  // declarative agent config. Observations submitted to act() are validated
  // against the state space's leaf signature at admission.
  PolicyServer(Json agent_config, SpacePtr state_space, SpacePtr action_space,
               PolicyServerConfig config = {});

  ~PolicyServer();

  PolicyServer(const PolicyServer&) = delete;
  PolicyServer& operator=(const PolicyServer&) = delete;

  // Spawn the serving shards (idempotent).
  void start();
  // Graceful drain: reject new requests, serve what is queued, join shards.
  void shutdown();
  bool running() const { return running_; }

  // Publish here (directly or via store().publish*) to hot-swap weights.
  PolicyStore& store() { return store_; }

  // Per-tenant admission state (register tenants / inspect quotas).
  TenantRegistry& tenants() { return tenants_; }

  // --- canary rollout --------------------------------------------------------
  // Route config.canary.weight of traffic to `candidate_version` (a
  // version published to the store; it may be newer than the serving
  // version — the baseline stays pinned while the rollout is in flight).
  // The controller auto-rolls-back on guardband breach; check
  // canary().state() or the serve/canary_* metrics. Throws NotFoundError
  // when the candidate is not in the store's version history.
  void start_canary(int64_t candidate_version);
  // Finish the rollout: back to newest-version-wins serving. Call after a
  // promote (publish nothing — the candidate is already newest), after
  // acting on a rollback (republish a fixed candidate), or to abort.
  void end_canary();
  CanaryController& canary() { return canary_; }

  // Submit one observation (no batch rank). Throws OverloadedError when
  // admission control sheds the request; the future carries TimeoutError if
  // the deadline expires in the queue, or the engine's error if the batched
  // forward pass fails.
  std::future<ActResult> act_async(Tensor obs);
  std::future<ActResult> act_async(Tensor obs,
                                   std::chrono::microseconds deadline);
  // Route through a named request class from config.request_classes
  // (deadline + tenant); throws NotFoundError for unknown
  // names.
  std::future<ActResult> act_async(Tensor obs,
                                   const std::string& request_class);
  // The full submission surface: tenant, request class, deadline, and an
  // explicit request id in one place.
  std::future<ActResult> act_async(Tensor obs, const ActOptions& options);
  // Blocking convenience around act_async.
  ActResult act(const Tensor& obs);

  // Counters: serve/requests, serve/batches, serve/shed_overload,
  // serve/shed_deadline, serve/shed_total{reason=...} (reason in deadline |
  // overload | tenant_quota | tenant_queue), serve/tenant_shed{tenant=...},
  // serve/batch_failures, serve/padded_rows, serve/bucket_flushes,
  // serve/canary_rollbacks (+ _p99 / _error_rate splits),
  // serve/canary_promotions.
  // Histograms: serve/latency_seconds, serve/queue_delay_seconds,
  // serve/batch_size. Gauges: serve/policy_version, serve/canary_state,
  // serve/canary_rolled_back, serve/canary_weight.
  MetricRegistry& metrics() { return metrics_; }

 private:
  void serve_loop(int shard);
  ServeClock::time_point deadline_from_now(std::chrono::microseconds d) const;
  // Smallest configured bucket >= n, or n itself when none fits.
  int64_t bucket_for(int64_t n) const;

  const PolicyServerConfig config_;
  std::vector<int64_t> buckets_;  // resolved ascending bucket sizes
  EngineFactory factory_;
  // Expected observation signature (agent-config construction only).
  bool check_obs_ = false;
  DType obs_dtype_ = DType::kFloat32;
  Shape obs_shape_;

  MetricRegistry metrics_;
  PolicyStore store_;
  TenantRegistry tenants_;  // before batcher_: the batcher holds a pointer
  CanaryController canary_;
  DynamicBatcher batcher_;
  std::atomic<uint64_t> next_request_id_{1};
  Histogram* latency_hist_;
  std::vector<std::thread> shards_;
  std::atomic<bool> running_{false};
};

}  // namespace serve
}  // namespace rlgraph
