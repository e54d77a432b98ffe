#include "serve/policy_store.h"

#include "agents/agent.h"
#include "util/errors.h"

namespace rlgraph {
namespace serve {

void PolicyStore::record_history(int64_t version) {
  // The server's snapshot for `version` is immutable once pushed; grabbing
  // it right after push() may already observe a NEWER version if another
  // publisher raced us — skip recording then (that publisher records its
  // own version, and a canary pinning a version that was never quiescent
  // has no business serving it).
  int64_t got = 0;
  std::shared_ptr<const WeightMap> weights = server_.snapshot(&got);
  if (got != version || weights == nullptr) return;
  std::lock_guard<std::mutex> lock(history_mutex_);
  history_[version] = std::move(weights);
  while (history_.size() > history_capacity_) {
    history_.erase(history_.begin());
  }
}

void PolicyStore::set_history_capacity(size_t capacity) {
  RLG_REQUIRE(capacity >= 1, "policy store history capacity must be >= 1");
  std::lock_guard<std::mutex> lock(history_mutex_);
  history_capacity_ = capacity;
  while (history_.size() > history_capacity_) {
    history_.erase(history_.begin());
  }
}

std::vector<int64_t> PolicyStore::history_versions() const {
  std::lock_guard<std::mutex> lock(history_mutex_);
  std::vector<int64_t> versions;
  versions.reserve(history_.size());
  for (const auto& entry : history_) versions.push_back(entry.first);
  return versions;
}

int64_t PolicyStore::publish(WeightMap weights) {
  const int64_t version = server_.push(std::move(weights));
  record_history(version);
  return version;
}

int64_t PolicyStore::publish_serialized(const std::vector<uint8_t>& bytes) {
  return publish(deserialize_weights(bytes));
}

PolicySnapshot PolicyStore::snapshot() const {
  PolicySnapshot snap;
  snap.weights = server_.snapshot(&snap.version);
  return snap;
}

PolicySnapshot PolicyStore::snapshot_version(int64_t version) const {
  PolicySnapshot snap;
  std::lock_guard<std::mutex> lock(history_mutex_);
  auto it = history_.find(version);
  if (it == history_.end()) return snap;  // unknown/evicted: invalid
  snap.version = version;
  snap.weights = it->second;
  return snap;
}

}  // namespace serve
}  // namespace rlgraph
