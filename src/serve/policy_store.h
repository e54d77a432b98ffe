// Versioned, hot-swappable policy weights for the serving subsystem.
//
// The trainer publishes immutable weight snapshots; serving shards pick up
// the newest one between batches. Publication rides on the ParameterServer
// shared_ptr double-buffering (execution/param_server.h): a publish swaps in
// a fresh immutable map, in-flight readers keep their version alive through
// their shared_ptr, and snapshot() returns (version, weights) from one
// critical section — a torn pair is impossible and serving never blocks on
// publication.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "execution/param_server.h"

namespace rlgraph {
namespace serve {

using WeightMap = ParameterServer::WeightMap;

// One published policy version. version == 0 (weights null) means nothing
// has been published yet; serving then runs the engines' initial weights.
struct PolicySnapshot {
  int64_t version = 0;
  std::shared_ptr<const WeightMap> weights;
  bool valid() const { return weights != nullptr; }
};

class PolicyStore {
 public:
  // Publish a new snapshot; returns its version (1, 2, ...).
  int64_t publish(WeightMap weights);

  // Publish from the Agent::export_weights() wire format — the trainer may
  // live in another process and ship bytes instead of tensors.
  int64_t publish_serialized(const std::vector<uint8_t>& bytes);

  // Atomic (version, weights) of the newest publication.
  PolicySnapshot snapshot() const;

  // A specific published version, for canary routing: while a rollout is in
  // flight the baseline shards keep serving the pinned stable version even
  // though a newer candidate has been published. Versions come from a
  // bounded history (the newest `history_capacity` publications, default
  // 8); an unknown or evicted version returns an invalid snapshot.
  PolicySnapshot snapshot_version(int64_t version) const;

  // Resize the version history (>= 1); evicts oldest beyond the new bound.
  void set_history_capacity(size_t capacity);

  // Versions currently held in the history, ascending (e.g. to pick a
  // canary baseline: the newest version that is not the candidate).
  std::vector<int64_t> history_versions() const;

  int64_t version() const { return server_.version(); }

  // The underlying server, e.g. to attach a staleness gauge.
  ParameterServer& parameter_server() { return server_; }

 private:
  void record_history(int64_t version);

  ParameterServer server_;

  // Bounded version -> weights history backing snapshot_version(). Entries
  // share the immutable maps the ParameterServer published — history costs
  // shared_ptrs, not weight copies.
  mutable std::mutex history_mutex_;
  size_t history_capacity_ = 8;
  std::map<int64_t, std::shared_ptr<const WeightMap>> history_;
};

}  // namespace serve
}  // namespace rlgraph
