#include "serve/batcher.h"

#include <algorithm>
#include <utility>

#include "util/trace.h"

namespace rlgraph {
namespace serve {

DynamicBatcher::DynamicBatcher(BatcherConfig config, MetricRegistry* metrics,
                               TenantRegistry* tenants)
    : config_(config), metrics_(metrics), tenants_(tenants) {
  RLG_REQUIRE(config_.max_batch_size >= 1,
              "batcher max_batch_size must be >= 1, got "
                  << config_.max_batch_size);
  RLG_REQUIRE(config_.queue_capacity >= 1,
              "batcher queue_capacity must be >= 1");
  if (metrics_ != nullptr) {
    batch_size_hist_ = &metrics_->histogram("serve/batch_size");
    queue_delay_hist_ = &metrics_->histogram("serve/queue_delay_seconds");
  }
}

DynamicBatcher::SubQueue& DynamicBatcher::sub_queue_locked(
    const std::string& tenant) {
  auto it = queues_.find(tenant);
  if (it == queues_.end()) {
    SubQueue sq;
    if (tenants_ != nullptr) {
      const TenantConfig tc = tenants_->config(tenant);
      sq.weight = std::max<uint64_t>(tc.weight, 1);
      sq.capacity = tc.queue_capacity != 0 ? tc.queue_capacity
                                           : config_.tenant_queue_capacity;
    } else {
      sq.capacity = config_.tenant_queue_capacity;
    }
    it = queues_.emplace(tenant, std::move(sq)).first;
  }
  return it->second;
}

ServeClock::time_point DynamicBatcher::oldest_enqueued_locked() const {
  // One front per tenant; the tenant count is small (it is a config-time
  // quantity), so a linear scan beats maintaining a cross-queue heap.
  ServeClock::time_point oldest = ServeClock::time_point::max();
  for (const auto& [tenant, sq] : queues_) {
    if (!sq.q.empty() && sq.q.front().enqueued < oldest) {
      oldest = sq.q.front().enqueued;
    }
  }
  return oldest;
}

void DynamicBatcher::count_shed(const char* reason, int64_t n) {
  if (metrics_ == nullptr) return;
  metrics_->increment(std::string("serve/shed_total{reason=") + reason + "}",
                      n);
}

DynamicBatcher::~DynamicBatcher() {
  close();
  shed_all("batcher destroyed");
}

std::future<ActResult> DynamicBatcher::submit(Tensor obs,
                                              ServeClock::time_point deadline,
                                              const std::string& tenant,
                                              uint64_t request_id) {
  trace::TraceSpan span("serve", "serve/admit");
  ActRequest req;
  req.obs = std::move(obs);
  req.enqueued = ServeClock::now();
  req.deadline = deadline;
  req.tenant = tenant;
  req.request_id = request_id;
  std::future<ActResult> fut = req.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      throw OverloadedError("policy server is shutting down",
                            OverloadedError::Scope::kGlobal, tenant);
    }
    // Tenant-scoped admission first: a tenant over its quota or sub-queue
    // bound is shed at its own gate with a tenant-scoped error, before it
    // can contribute to (or be blamed on) global pressure.
    if (tenants_ != nullptr && !tenants_->try_admit(tenant, req.enqueued)) {
      count_shed("tenant_quota");
      if (metrics_ != nullptr) {
        metrics_->increment("serve/tenant_shed{tenant=" + tenant + "}");
      }
      throw OverloadedError(
          "tenant '" + tenant + "' is over its admission quota (" +
              std::to_string(tenants_->config(tenant).quota_qps) +
              " req/s); back off and retry",
          OverloadedError::Scope::kTenant, tenant);
    }
    SubQueue& sq = sub_queue_locked(tenant);
    if (sq.capacity != 0 && sq.q.size() >= sq.capacity) {
      count_shed("tenant_queue");
      if (metrics_ != nullptr) {
        metrics_->increment("serve/tenant_shed{tenant=" + tenant + "}");
      }
      throw OverloadedError(
          "tenant '" + tenant + "' sub-queue at capacity (depth " +
              std::to_string(sq.q.size()) + "/" +
              std::to_string(sq.capacity) + "); back off and retry",
          OverloadedError::Scope::kTenant, tenant);
    }
    if (total_pending_ >= config_.queue_capacity) {
      if (metrics_ != nullptr) metrics_->increment("serve/shed_overload");
      count_shed("overload");
      throw OverloadedError(
          "serving queue at capacity (depth " +
              std::to_string(total_pending_) + "/" +
              std::to_string(config_.queue_capacity) +
              " requests waiting); back off and retry",
          OverloadedError::Scope::kGlobal, tenant);
    }
    sq.q.push_back(std::move(req));
    if (!sq.active) {
      active_.push_back(tenant);
      sq.active = true;
    }
    ++total_pending_;
    // A sleeping worker only needs waking when a flush condition changes:
    // the first request arriving (it anchors the flush deadline) or the
    // batch filling up. Intermediate arrivals just join the pending batch —
    // skipping their notify avoids a wakeup storm on the serving shard.
    if (total_pending_ != 1 &&
        total_pending_ < static_cast<size_t>(config_.max_batch_size)) {
      return fut;
    }
  }
  ready_cv_.notify_one();
  return fut;
}

std::vector<ActRequest> DynamicBatcher::next_batch() {
  const size_t max_batch = static_cast<size_t>(config_.max_batch_size);
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    ready_cv_.wait(lock, [&] { return closed_ || total_pending_ > 0; });
    if (total_pending_ == 0) return {};  // closed and drained
    // Wait out the flush window of the OLDEST request — later arrivals do
    // not extend it — unless a full batch accumulates (or close) first.
    ServeClock::time_point flush_at =
        oldest_enqueued_locked() + config_.max_queue_delay;
    while (!closed_ && total_pending_ < max_batch &&
           ServeClock::now() < flush_at) {
      ready_cv_.wait_until(lock, flush_at);
      // Another worker may have drained the queue while we slept (then the
      // window re-anchors on whatever request is oldest now).
      if (total_pending_ == 0) break;
      flush_at = oldest_enqueued_locked() + config_.max_queue_delay;
    }
    if (total_pending_ == 0) continue;

    const ServeClock::time_point now = ServeClock::now();
    trace::TraceSpan assembly_span("serve", "serve/batch_assembly");
    std::vector<ActRequest> batch;
    std::vector<ActRequest> expired;
    // Deficit round robin across tenant sub-queues: the front tenant of the
    // rotation earns its quantum (weight) and places up to that many
    // requests; exhausting the quantum rotates it to the back, emptying its
    // queue retires it from the rotation. Deadline-expired requests are
    // shed without spending deficit — a shed is not service.
    while (total_pending_ > 0 && batch.size() < max_batch) {
      const std::string tenant = active_.front();
      SubQueue& sq = queues_.at(tenant);
      if (sq.deficit < 1) sq.deficit += sq.weight;  // new round: earn quantum
      while (sq.deficit >= 1 && !sq.q.empty() && batch.size() < max_batch) {
        ActRequest req = std::move(sq.q.front());
        sq.q.pop_front();
        --total_pending_;
        if (req.deadline < now) {
          expired.push_back(std::move(req));
        } else {
          batch.push_back(std::move(req));
          --sq.deficit;
        }
      }
      if (sq.q.empty()) {
        sq.deficit = 0;
        sq.active = false;
        active_.pop_front();
      } else if (sq.deficit < 1) {
        active_.pop_front();
        active_.push_back(tenant);
      } else {
        // Batch filled mid-quantum: the tenant keeps its place and its
        // unspent deficit; the next assembly resumes here without earning
        // a fresh quantum on top.
        break;
      }
    }
    lock.unlock();

    for (ActRequest& req : expired) {
      req.promise.set_exception(std::make_exception_ptr(TimeoutError(
          "request deadline expired after " +
          std::to_string(std::chrono::duration<double>(now - req.enqueued)
                             .count()) +
          "s in the serving queue")));
    }
    if (metrics_ != nullptr && !expired.empty()) {
      metrics_->increment("serve/shed_deadline",
                          static_cast<int64_t>(expired.size()));
      count_shed("deadline", static_cast<int64_t>(expired.size()));
    }
    if (batch.empty()) {
      // Everything in the window had expired; go back to waiting.
      lock.lock();
      continue;
    }
    ServeClock::time_point batch_oldest = batch.front().enqueued;
    for (const ActRequest& req : batch) {
      if (req.enqueued < batch_oldest) batch_oldest = req.enqueued;
    }
    if (metrics_ != nullptr) {
      batch_size_hist_->record(static_cast<double>(batch.size()));
      for (const ActRequest& req : batch) {
        queue_delay_hist_->record(
            std::chrono::duration<double>(now - req.enqueued).count());
      }
    }
    // One queue-wait span per dispatched batch, anchored at the oldest
    // request's enqueue: the flush-policy wait made visible in the trace.
    trace::record_span("serve", "serve/queue_wait", batch_oldest, now,
                       "batch", static_cast<int64_t>(batch.size()));
    return batch;
  }
}

void DynamicBatcher::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_cv_.notify_all();
}

bool DynamicBatcher::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

void DynamicBatcher::shed_all(const char* reason) {
  std::vector<ActRequest> orphaned;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [tenant, sq] : queues_) {
      for (ActRequest& req : sq.q) orphaned.push_back(std::move(req));
      sq.q.clear();
      sq.deficit = 0;
      sq.active = false;
    }
    active_.clear();
    total_pending_ = 0;
  }
  for (ActRequest& req : orphaned) {
    req.promise.set_exception(std::make_exception_ptr(OverloadedError(
        reason, OverloadedError::Scope::kGlobal, req.tenant)));
  }
  if (metrics_ != nullptr && !orphaned.empty()) {
    metrics_->increment("serve/shed_overload",
                        static_cast<int64_t>(orphaned.size()));
    count_shed("overload", static_cast<int64_t>(orphaned.size()));
  }
}

size_t DynamicBatcher::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_pending_;
}

size_t DynamicBatcher::pending(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = queues_.find(tenant);
  return it == queues_.end() ? 0 : it->second.q.size();
}

}  // namespace serve
}  // namespace rlgraph
