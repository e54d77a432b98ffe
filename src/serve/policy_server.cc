#include "serve/policy_server.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/logging.h"
#include "util/trace.h"

namespace rlgraph {
namespace serve {

// --- AgentServingEngine ------------------------------------------------------

AgentServingEngine::AgentServingEngine(const Json& config,
                                       SpacePtr state_space,
                                       SpacePtr action_space) {
  agent_ = make_agent(config, std::move(state_space), std::move(action_space));
  agent_->build();
}

void AgentServingEngine::load(const PolicySnapshot& snapshot) {
  RLG_REQUIRE(snapshot.valid(), "cannot load an empty policy snapshot");
  agent_->set_weights(*snapshot.weights);
}

Tensor AgentServingEngine::forward(const Tensor& obs_batch) {
  return agent_->get_actions(obs_batch, /*explore=*/false);
}

// --- RequestClassConfig ------------------------------------------------------

RequestClassConfig RequestClassConfig::from_json(const Json& config) {
  RequestClassConfig rc;
  rc.deadline =
      std::chrono::microseconds(config.get_int("deadline_us", 0));
  rc.tenant = config.get_string("tenant", kDefaultTenant);
  return rc;
}

// --- PolicyServer ------------------------------------------------------------

namespace {

// Explicitly configured padding buckets double as the batcher's flush
// buckets (see PolicyServerConfig::batch_buckets); the implicit
// power-of-two default stays delay-driven.
BatcherConfig batcher_config_for(const PolicyServerConfig& config) {
  BatcherConfig b = config.batcher;
  if (b.flush_buckets.empty() && config.pad_batches &&
      !config.batch_buckets.empty()) {
    b.flush_buckets = config.batch_buckets;
  }
  return b;
}

}  // namespace

PolicyServer::PolicyServer(EngineFactory factory, PolicyServerConfig config)
    : config_(config), factory_(std::move(factory)),
      canary_(config.canary, &metrics_),
      batcher_(batcher_config_for(config), &metrics_, &tenants_),
      latency_hist_(&metrics_.histogram("serve/latency_seconds")) {
  RLG_REQUIRE(config_.num_shards >= 1,
              "PolicyServer needs at least one shard, got "
                  << config_.num_shards);
  RLG_REQUIRE(factory_ != nullptr, "PolicyServer needs an engine factory");
  tenants_.set_default_config(config_.default_tenant);
  for (const auto& entry : config_.tenants) {
    tenants_.register_tenant(entry.first, entry.second);
  }
  if (config_.pad_batches) {
    buckets_ = config_.batch_buckets;
    if (buckets_.empty()) {
      for (int64_t b = 1; b < config_.batcher.max_batch_size; b *= 2) {
        buckets_.push_back(b);
      }
      buckets_.push_back(config_.batcher.max_batch_size);
    }
    std::sort(buckets_.begin(), buckets_.end());
    for (int64_t b : buckets_) {
      RLG_REQUIRE(b >= 1, "batch bucket sizes must be >= 1, got " << b);
    }
  }
}

int64_t PolicyServer::bucket_for(int64_t n) const {
  auto it = std::lower_bound(buckets_.begin(), buckets_.end(), n);
  return it == buckets_.end() ? n : *it;
}

PolicyServer::PolicyServer(Json agent_config, SpacePtr state_space,
                           SpacePtr action_space, PolicyServerConfig config)
    : PolicyServer(
          [agent_config, state_space, action_space](int) {
            return std::make_unique<AgentServingEngine>(
                agent_config, state_space, action_space);
          },
          config) {
  // Single-box state spaces get per-request admission validation; bad
  // observations then fail their own submit instead of poisoning a batch.
  if (state_space->is_box()) {
    const auto& box = static_cast<const BoxSpace&>(*state_space);
    check_obs_ = true;
    obs_dtype_ = box.dtype();
    obs_shape_ = box.value_shape();
  }
}

PolicyServer::~PolicyServer() { shutdown(); }

void PolicyServer::start() {
  if (running_) return;
  RLG_REQUIRE(!batcher_.closed(),
              "PolicyServer cannot restart after shutdown()");
  running_ = true;
  shards_.reserve(static_cast<size_t>(config_.num_shards));
  for (int i = 0; i < config_.num_shards; ++i) {
    shards_.emplace_back([this, i] { serve_loop(i); });
  }
}

void PolicyServer::shutdown() {
  batcher_.close();
  for (std::thread& t : shards_) {
    if (t.joinable()) t.join();
  }
  shards_.clear();
  // Anything still queued raced the close and has no shard left to serve it.
  batcher_.shed_all("policy server shut down");
  running_ = false;
}

ServeClock::time_point PolicyServer::deadline_from_now(
    std::chrono::microseconds d) const {
  return d.count() > 0 ? ServeClock::now() + d : kNoDeadline;
}

std::future<ActResult> PolicyServer::act_async(Tensor obs) {
  return act_async(std::move(obs), ActOptions{});
}

std::future<ActResult> PolicyServer::act_async(
    Tensor obs, std::chrono::microseconds deadline) {
  ActOptions options;
  options.deadline = deadline;
  return act_async(std::move(obs), options);
}

std::future<ActResult> PolicyServer::act_async(
    Tensor obs, const std::string& request_class) {
  ActOptions options;
  options.request_class = request_class;
  return act_async(std::move(obs), options);
}

std::future<ActResult> PolicyServer::act_async(Tensor obs,
                                               const ActOptions& options) {
  RLG_REQUIRE(running_, "PolicyServer::act before start()");
  const RequestClassConfig* rc = nullptr;
  if (!options.request_class.empty()) {
    auto it = config_.request_classes.find(options.request_class);
    if (it == config_.request_classes.end()) {
      throw NotFoundError("unknown request class '" + options.request_class +
                          "'");
    }
    rc = &it->second;
  }
  const std::chrono::microseconds deadline =
      options.deadline.count() > 0
          ? options.deadline
          : (rc != nullptr && rc->deadline.count() > 0
                 ? rc->deadline
                 : config_.default_deadline);
  const std::string& tenant = !options.tenant.empty()
                                  ? options.tenant
                                  : (rc != nullptr ? rc->tenant
                                                   : std::string(kDefaultTenant));
  const uint64_t request_id =
      options.request_id != 0
          ? options.request_id
          : next_request_id_.fetch_add(1, std::memory_order_relaxed);
  if (check_obs_) {
    RLG_REQUIRE(obs.dtype() == obs_dtype_ && obs.shape() == obs_shape_,
                "act observation is " << dtype_name(obs.dtype())
                    << obs.shape().to_string() << ", expected "
                    << dtype_name(obs_dtype_) << obs_shape_.to_string()
                    << " (single observation, no batch rank)");
  }
  return batcher_.submit(std::move(obs), deadline_from_now(deadline), tenant,
                         request_id);
}

ActResult PolicyServer::act(const Tensor& obs) {
  return act_async(obs).get();
}

// --- canary rollout ----------------------------------------------------------

void PolicyServer::start_canary(int64_t candidate_version) {
  PolicySnapshot candidate = store_.snapshot_version(candidate_version);
  if (!candidate.valid()) {
    throw NotFoundError("canary candidate version v" +
                        std::to_string(candidate_version) +
                        " is not in the policy store history");
  }
  // Baseline = the stable version the non-canary traffic keeps: the newest
  // published version that is not the candidate itself (publishing the
  // candidate and immediately canarying it is the normal flow).
  int64_t baseline = 0;
  const int64_t newest = store_.version();
  if (newest != candidate_version) {
    baseline = newest;
  } else {
    for (int64_t v : store_.history_versions()) {
      if (v < candidate_version) baseline = std::max(baseline, v);
    }
  }
  RLG_REQUIRE(baseline > 0,
              "canary rollout needs a published baseline version distinct "
              "from candidate v" << candidate_version);
  canary_.start(baseline, candidate_version);
}

void PolicyServer::end_canary() { canary_.end(); }

void PolicyServer::serve_loop(int shard) {
  std::unique_ptr<ServingEngine> engine;
  std::exception_ptr engine_error;
  try {
    engine = factory_(shard);
  } catch (...) {
    // A shard that cannot build its engine must still drain its share of
    // the queue — starving queued clients forever is worse than erroring
    // them.
    engine_error = std::current_exception();
    metrics_.increment("serve/engine_failures");
    RLG_LOG_ERROR << "serve shard " << shard << " failed to build its engine";
  }

  int64_t have_version = 0;

  // Canary replica: built lazily the first time this shard sees a
  // canary-routed request, so shards pay for a second engine only while a
  // rollout actually sends them traffic.
  std::unique_ptr<ServingEngine> canary_engine;
  std::exception_ptr canary_engine_error;
  int64_t canary_have_version = 0;

  // Fail a whole group with one error; canary-outcome recording feeds the
  // controller's error-rate guardband.
  auto fail_group = [&](std::vector<ActRequest>& group,
                        const std::exception_ptr& error, RouteKind side,
                        bool record_outcomes) {
    for (ActRequest& req : group) {
      req.promise.set_exception(error);
      if (record_outcomes) canary_.record(side, 0.0, /*error=*/true);
    }
    metrics_.increment("serve/batch_failures");
  };

  // One side of a flushed batch, served as a single forward pass
  // through `eng`. A failure stays contained to the group's own requests —
  // other groups' promises may already be satisfied. While a rollout is in
  // flight (record_outcomes), every outcome lands in the controller's
  // per-side window.
  auto serve_group = [&](std::vector<ActRequest>& group, int64_t version,
                         ServingEngine* eng, RouteKind side,
                         bool record_outcomes) {
    if (group.empty()) return;
    try {
      // Pad ragged flushes up to a bucket size so the engine only ever
      // sees a handful of distinct batch shapes (each hitting a cached
      // shape-specialized plan). Padding rows repeat the last observation;
      // their actions are computed and dropped below.
      const int64_t real = static_cast<int64_t>(group.size());
      const int64_t padded = config_.pad_batches ? bucket_for(real) : real;
      std::vector<Tensor> observations;
      observations.reserve(static_cast<size_t>(padded));
      for (const ActRequest& req : group) observations.push_back(req.obs);
      for (int64_t i = real; i < padded; ++i) {
        observations.push_back(observations.back());
      }
      Tensor actions;
      {
        trace::TraceSpan fwd_span("serve", "serve/forward");
        fwd_span.set_arg("batch", padded);
        fwd_span.set_arg("policy_version", version);
        actions = eng->forward(stack_leading(observations));
      }
      std::vector<Tensor> per_request = unstack_leading(actions);
      RLG_CHECK_MSG(per_request.size() == static_cast<size_t>(padded),
                    "engine returned " << per_request.size()
                        << " actions for a batch of " << padded);
      if (padded > real) {
        metrics_.increment("serve/padded_rows", padded - real);
      }

      const ServeClock::time_point done = ServeClock::now();
      trace::TraceSpan respond_span("serve", "serve/respond");
      respond_span.set_arg("batch", real);
      for (size_t i = 0; i < group.size(); ++i) {
        const double latency =
            std::chrono::duration<double>(done - group[i].enqueued).count();
        latency_hist_->record(latency);
        if (record_outcomes) canary_.record(side, latency, /*error=*/false);
        ActResult result;
        result.action = std::move(per_request[i]);
        result.policy_version = version;
        result.request_id = group[i].request_id;
        group[i].promise.set_value(std::move(result));
      }
      metrics_.increment("serve/requests", real);
      metrics_.increment("serve/batches");
    } catch (...) {
      fail_group(group, std::current_exception(), side, record_outcomes);
    }
  };

  for (;;) {
    std::vector<ActRequest> batch = batcher_.next_batch();
    if (batch.empty()) return;  // closed and drained

    if (engine_error != nullptr) {
      for (ActRequest& req : batch) req.promise.set_exception(engine_error);
      metrics_.increment("serve/batch_failures");
      continue;
    }

    // Canary split first: routing is a pure function of each request id, so
    // the partition is identical no matter which shard flushed the batch.
    // Outcomes are only attributed while the rollout is live.
    const bool canary_active = canary_.active();
    std::vector<ActRequest> canary_group;
    if (canary_active) {
      std::vector<ActRequest> stable;
      stable.reserve(batch.size());
      for (ActRequest& req : batch) {
        if (canary_.route(req.request_id) == RouteKind::kCanary) {
          canary_group.push_back(std::move(req));
        } else {
          stable.push_back(std::move(req));
        }
      }
      batch = std::move(stable);
    }

    // Hot-swap between batches: the whole batch runs one version. While a
    // rollout is in flight the stable side stays PINNED to the controller's
    // baseline version even if newer versions (the candidate among them)
    // have been published.
    try {
      PolicySnapshot snap;
      const int64_t newest = store_.version();
      const int64_t target = canary_.serving_version(newest);
      if (target == newest) {
        snap = store_.snapshot();
      } else {
        snap = store_.snapshot_version(target);
        // Pinned version evicted from history (many publishes mid-rollout):
        // degrade to newest rather than serve nothing.
        if (!snap.valid()) snap = store_.snapshot();
      }
      if (snap.valid() && snap.version != have_version) {
        trace::TraceSpan swap_span("serve", "serve/load_snapshot");
        swap_span.set_arg("policy_version", snap.version);
        engine->load(snap);
        have_version = snap.version;
        metrics_.set_gauge("serve/policy_version",
                           static_cast<double>(have_version));
      }
    } catch (...) {
      std::exception_ptr error = std::current_exception();
      fail_group(batch, error, RouteKind::kBaseline, canary_active);
      if (!canary_group.empty()) {
        fail_group(canary_group, error, RouteKind::kCanary, canary_active);
      }
      continue;
    }

    serve_group(batch, have_version, engine.get(), RouteKind::kBaseline,
                canary_active);

    // The canary side runs its own replica on the candidate version. Build
    // and load failures fail ONLY the canary group and are recorded as
    // canary errors — a broken candidate rolls itself back through the
    // error-rate guardband instead of taking the stable side down.
    if (!canary_group.empty()) {
      if (canary_engine == nullptr && canary_engine_error == nullptr) {
        try {
          canary_engine = factory_(shard);
        } catch (...) {
          canary_engine_error = std::current_exception();
          metrics_.increment("serve/engine_failures");
          RLG_LOG_ERROR << "serve shard " << shard
                        << " failed to build its canary engine";
        }
      }
      std::exception_ptr canary_error = canary_engine_error;
      if (canary_error == nullptr) {
        try {
          const int64_t candidate = canary_.candidate_version();
          if (candidate != canary_have_version) {
            PolicySnapshot snap = store_.snapshot_version(candidate);
            RLG_REQUIRE(snap.valid(), "canary candidate v" << candidate
                            << " is not in the policy store history");
            trace::TraceSpan swap_span("serve", "serve/load_canary");
            swap_span.set_arg("policy_version", candidate);
            canary_engine->load(snap);
            canary_have_version = candidate;
          }
        } catch (...) {
          canary_error = std::current_exception();
        }
      }
      if (canary_error != nullptr) {
        fail_group(canary_group, canary_error, RouteKind::kCanary,
                   /*record_outcomes=*/true);
      } else {
        serve_group(canary_group, canary_have_version, canary_engine.get(),
                    RouteKind::kCanary, /*record_outcomes=*/true);
      }
    }

    // One guardband check per served batch: cheap until a decision epoch
    // fills, and rollback flips routing before the next batch is assembled.
    if (canary_active) canary_.evaluate();
  }
}

}  // namespace serve
}  // namespace rlgraph
