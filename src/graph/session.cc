#include "graph/session.h"

#include <utility>

#include "util/errors.h"
#include "util/trace.h"

namespace rlgraph {

Session::Session(std::shared_ptr<const GraphDef> graph,
                 VariableStore* variables, Rng* rng)
    : graph_(std::move(graph)), variables_(variables), rng_(rng) {
  RLG_REQUIRE(graph_ != nullptr, "Session requires a graph");
}

std::vector<Tensor> Session::PreparedCall::run(
    const std::vector<Tensor>& feed_values) {
  trace::TraceSpan span("session", "session/execute");
  // Check an arena out of the free list; concurrent runs of the same plan
  // each get their own slot table.
  std::unique_ptr<RunArena> arena;
  {
    std::lock_guard<std::mutex> lock(arenas_mutex_);
    if (!free_arenas_.empty()) {
      arena = std::move(free_arenas_.back());
      free_arenas_.pop_back();
    }
  }
  if (arena == nullptr) {
    arena = std::make_unique<RunArena>();
    ++num_arenas_;
  }

  std::vector<Tensor> out;
  try {
    out = plan_->execute(*arena, feed_values, session_->variables_,
                         session_->rng_);
  } catch (...) {
    arena->end_run();
    {
      std::lock_guard<std::mutex> lock(arenas_mutex_);
      free_arenas_.push_back(std::move(arena));
    }
    throw;
  }
  last_peak_.store(arena->peak_live_slots(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(arenas_mutex_);
    free_arenas_.push_back(std::move(arena));
  }
  session_->record_run(*this);
  return out;
}

int64_t Session::PreparedCall::bytes_reused() const {
  std::lock_guard<std::mutex> lock(arenas_mutex_);
  int64_t total = 0;
  for (const auto& arena : free_arenas_) total += arena->pool().bytes_reused();
  return total;
}

int64_t Session::PreparedCall::bytes_allocated() const {
  std::lock_guard<std::mutex> lock(arenas_mutex_);
  int64_t total = 0;
  for (const auto& arena : free_arenas_) {
    total += arena->pool().bytes_allocated();
  }
  return total;
}

void Session::PreparedCall::set_check_kernel_purity(bool on) {
  std::lock_guard<std::mutex> lock(arenas_mutex_);
  for (auto& arena : free_arenas_) arena->set_check_kernel_purity(on);
  // Arenas created later inherit the build-type default; callers that need
  // the invariant everywhere run single-threaded (tests), where the free
  // list holds every arena between runs.
}

std::shared_ptr<Session::PreparedCall> Session::cache_lookup(
    const PlanKey& key) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = plan_cache_.find(key);
  if (it == plan_cache_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // touch: most recent
  trace::TraceSpan span("session", "session/cache_hit");
  plan_cache_hits_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_ != nullptr) metrics_->increment("session/plan_cache_hits");
  return it->second.call;
}

void Session::cache_insert(PlanKey key, std::shared_ptr<PreparedCall> call) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = plan_cache_.find(key);
  if (it != plan_cache_.end()) return;  // lost a compile race: keep the first
  lru_.push_front(key);
  plan_cache_.emplace(std::move(key), CacheEntry{std::move(call), lru_.begin()});
  while (plan_cache_.size() > plan_cache_capacity_ && !lru_.empty()) {
    plan_cache_.erase(lru_.back());  // callers holding the shared_ptr keep it
    lru_.pop_back();
    plan_cache_evictions_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) {
      metrics_->increment("session/plan_cache_evictions");
    }
  }
}

void Session::set_plan_cache_capacity(size_t cap) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  plan_cache_capacity_ = cap == 0 ? 1 : cap;
  while (plan_cache_.size() > plan_cache_capacity_ && !lru_.empty()) {
    plan_cache_.erase(lru_.back());
    lru_.pop_back();
    plan_cache_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

size_t Session::plan_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return plan_cache_.size();
}

std::shared_ptr<Session::PreparedCall> Session::prepare(
    const std::vector<Endpoint>& fetches, const std::vector<int>& feed_nodes) {
  PlanKey key{fetches, feed_nodes};
  if (std::shared_ptr<PreparedCall> hit = cache_lookup(key)) return hit;
  // Compile outside the lock (may be slow); first writer wins on a race.
  trace::TraceSpan compile_span("session", "session/compile");
  std::shared_ptr<CompiledPlan> plan =
      CompiledPlan::compile(graph_, fetches, feed_nodes, pattern_fusion_);
  auto call = std::make_shared<PreparedCall>();
  call->session_ = this;
  call->plan_ = std::move(plan);
  plan_compiles_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_ != nullptr) metrics_->increment("session/plan_compiles");
  cache_insert(std::move(key), call);
  return call;
}

std::vector<Tensor> Session::run(const std::vector<Endpoint>& fetches,
                                 const FeedMap& feeds) {
  trace::TraceSpan span("session", "session/run");
  std::vector<int> feed_nodes;
  std::vector<Tensor> feed_values;
  feed_nodes.reserve(feeds.size());
  feed_values.reserve(feeds.size());
  for (const auto& [node_id, value] : feeds) {
    feed_nodes.push_back(node_id);
    feed_values.push_back(value);
  }
  std::shared_ptr<PreparedCall> call = prepare(fetches, feed_nodes);
  // An explicit feed map naming placeholders the fetched subgraph never
  // reads was previously ignored silently; it is almost always a caller
  // bug, so name the offenders. (Positional API calls via prepare() keep
  // tolerating ignored arguments.)
  const std::vector<std::string>& unused = call->plan().unused_feed_names();
  if (!unused.empty()) {
    std::string names;
    for (const std::string& u : unused) {
      if (!names.empty()) names += ", ";
      names += "'" + u + "'";
    }
    throw ValueError(
        "feeds target placeholders not used by the fetched subgraph: " +
        names);
  }
  return call->run(feed_values);
}

void Session::record_run(const PreparedCall& call) {
  num_runs_.fetch_add(1, std::memory_order_relaxed);
  nodes_executed_.fetch_add(static_cast<int64_t>(call.plan().num_steps()),
                            std::memory_order_relaxed);
  int fused = call.plan().fused_kernel_steps();
  if (fused > 0) fused_dispatches_.fetch_add(fused, std::memory_order_relaxed);
  if (metrics_ != nullptr) {
    metrics_->increment("session/runs");
    metrics_->increment("session/nodes_executed",
                        static_cast<int64_t>(call.plan().num_steps()));
    if (fused > 0) metrics_->increment("session/fused_dispatches", fused);
    metrics_->set_gauge("session/bytes_reused",
                        static_cast<double>(bytes_reused()));
  }
}

int64_t Session::bytes_reused() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  int64_t total = 0;
  for (const auto& [key, entry] : plan_cache_) {
    total += entry.call->bytes_reused();
  }
  return total;
}

}  // namespace rlgraph
