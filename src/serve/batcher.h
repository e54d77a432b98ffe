// Dynamic request batching for policy serving (Clipper / TF-Serving style),
// with multi-tenant fair queueing.
//
// Many client threads submit single-observation act requests; serving shards
// pull coalesced batches. The flush policy is the classic two-knob one: a
// batch is dispatched as soon as max_batch_size requests are waiting, or as
// soon as the OLDEST waiting request has queued for max_queue_delay —
// arrivals never extend the deadline of requests already waiting, so the
// p99 latency is bounded by max_queue_delay plus one forward pass.
//
// Admission control is layered (checked in this order at submit()):
//   1. a closed batcher rejects everything (shutdown);
//   2. the tenant's token bucket (TenantRegistry) sheds requests over the
//      tenant's admission quota — tenant-scoped OverloadedError;
//   3. the tenant's bounded sub-queue sheds when that tenant alone has
//      filled its backlog allowance — tenant-scoped OverloadedError;
//   4. the global queue bound sheds when the box as a whole is saturated —
//      global-scoped OverloadedError.
// Every shed is counted under serve/shed_total{reason=...} so operators can
// tell deadline sheds from global overload from per-tenant quota sheds.
//
// Requests queue per tenant and batches are assembled by deficit round
// robin: each tenant with queued work is visited in rotation and may place
// `weight` requests (its quantum) into the assembling batch per round.
// A tenant that floods its sub-queue therefore cannot starve the others —
// they are visited just as often and their requests age no differently than
// if the hot tenant were idle. Single-tenant callers see the old FIFO
// behaviour exactly (one sub-queue, rotation of one).
//
// Requests whose per-request deadline expires while queued are shed before
// dispatch (TimeoutError) instead of wasting a batch slot.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "serve/tenant.h"
#include "tensor/tensor.h"
#include "util/errors.h"
#include "util/metrics.h"

namespace rlgraph {
namespace serve {

// What a client gets back: the action for its observation plus the policy
// version that computed it (all requests of one batch share a version).
struct ActResult {
  Tensor action;
  int64_t policy_version = 0;
  // Echo of the submitted request id (canary routing key).
  uint64_t request_id = 0;
};

struct ActRequest {
  Tensor obs;  // single observation, no batch rank
  ServeClock::time_point enqueued;
  ServeClock::time_point deadline = kNoDeadline;
  std::string tenant;       // kDefaultTenant when the caller named none
  uint64_t request_id = 0;  // deterministic canary-routing key
  std::promise<ActResult> promise;
};

struct BatcherConfig {
  int64_t max_batch_size = 32;
  std::chrono::microseconds max_queue_delay{2000};
  // Bounded request queue (admission control); submits beyond this shed.
  // This is the GLOBAL bound across all tenant sub-queues.
  size_t queue_capacity = 1024;
  // Default per-tenant sub-queue bound for tenants whose TenantConfig sets
  // none; 0 = no per-tenant bound (only the global bound applies).
  size_t tenant_queue_capacity = 0;
  // Bucket-aware flushing: when non-empty (ascending sizes), a batch is
  // dispatched the moment the queue reaches a bucket boundary instead of
  // waiting out max_queue_delay — the flush lands exactly on a padding
  // bucket, so bucketed servers pad nothing for it. Empty keeps the classic
  // two-knob policy (full batch or oldest-request delay).
  std::vector<int64_t> flush_buckets;
};

class DynamicBatcher {
 public:
  // `tenants` (optional, not owned, must outlive the batcher) supplies
  // per-tenant quotas/weights/bounds; without one, every tenant shares the
  // default config (unlimited quota, weight 1).
  explicit DynamicBatcher(BatcherConfig config,
                          MetricRegistry* metrics = nullptr,
                          TenantRegistry* tenants = nullptr);

  DynamicBatcher(const DynamicBatcher&) = delete;
  DynamicBatcher& operator=(const DynamicBatcher&) = delete;
  ~DynamicBatcher();

  // Enqueue one observation; the future resolves with the action (or the
  // shed/engine error). Throws OverloadedError when admission control sheds
  // the request (see the layering above; the error carries the tenant and
  // global-vs-tenant scope) or the batcher is closed.
  std::future<ActResult> submit(Tensor obs,
                                ServeClock::time_point deadline = kNoDeadline,
                                const std::string& tenant = kDefaultTenant,
                                uint64_t request_id = 0);

  // Worker side: block until a batch is ready per the flush policy and
  // return it (never empty while open). More waiting requests than
  // max_batch_size simply split across successive calls; the batch is
  // assembled by deficit round robin across tenant sub-queues. Deadline-
  // expired requests are shed here, before dispatch. Returns an empty
  // vector only once the batcher is closed AND drained — the worker's exit
  // signal.
  std::vector<ActRequest> next_batch();

  // Graceful shutdown: subsequent submits are rejected, queued requests are
  // still handed to workers via next_batch().
  void close();
  bool closed() const;

  // Fail every queued request with OverloadedError (used after workers have
  // exited, when nothing will drain the queue anymore).
  void shed_all(const char* reason);

  size_t pending() const;
  size_t pending(const std::string& tenant) const;

 private:
  // One tenant's bounded FIFO plus its deficit-round-robin state.
  struct SubQueue {
    std::deque<ActRequest> q;
    uint64_t weight = 1;   // DRR quantum, captured from the registry
    uint64_t deficit = 0;  // unspent quantum from the current round
    size_t capacity = 0;   // 0 = unbounded (global bound still applies)
    bool active = false;   // currently in the active_ rotation
  };

  // True when `n` pending requests sit exactly on a configured flush
  // bucket. Queue growth is +1 per submit, so every boundary crossing is
  // observed — no bucket can be jumped over.
  bool at_flush_bucket(size_t n) const;
  // Must hold mutex_. Sub-queue for `tenant`, created (and its weight/
  // capacity captured from the registry) on first sight.
  SubQueue& sub_queue_locked(const std::string& tenant);
  // Must hold mutex_ and total_pending_ > 0: earliest front-of-queue
  // enqueue time across tenants (the request anchoring the flush window).
  ServeClock::time_point oldest_enqueued_locked() const;
  void count_shed(const char* reason, int64_t n = 1);

  const BatcherConfig config_;
  std::vector<int64_t> flush_buckets_;  // validated ascending, deduplicated
  MetricRegistry* metrics_;             // may be null
  TenantRegistry* tenants_;             // may be null
  Histogram* batch_size_hist_ = nullptr;
  Histogram* queue_delay_hist_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::map<std::string, SubQueue> queues_;
  // DRR rotation: tenants with queued work, visited front-to-back. The
  // front tenant keeps its place while it still has unspent deficit (a
  // batch filled up mid-quantum); otherwise it rotates to the back.
  std::deque<std::string> active_;
  size_t total_pending_ = 0;
  bool closed_ = false;
};

}  // namespace serve
}  // namespace rlgraph
