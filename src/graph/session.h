// Session: the static-graph backend's compiler (the TF-session analogue).
//
// compile() turns a (fetches, feed nodes) pair over the session's GraphDef
// into a CompiledPlan and keeps nothing: the caller owns the plan and runs
// it directly (see graph/exec_plan.h). GraphExecutor compiles every API
// once at build time, which is the paper's build amortization — each call
// then runs its prebuilt plan with no lookup at all. run() is the
// explicit-feed-map convenience for tests and tools and compiles per call.
//
// Every plan a session compiles counts into one shared
// CompiledPlan::Counters, which the session's counter accessors read.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "graph/exec_plan.h"
#include "graph/graph_def.h"
#include "graph/op_schema.h"

namespace rlgraph {

using FeedMap = std::map<int, Tensor>;  // placeholder node id -> value

class Session {
 public:
  // The session borrows the graph/store/rng; the graph executor owns them.
  Session(std::shared_ptr<const GraphDef> graph, VariableStore* variables,
          Rng* rng);

  // Compile and evaluate the fetches given feeds. Fetch order defines
  // result order. Feeds must target placeholder nodes inside the fetched
  // subgraph; unused feeds are an error naming the offending placeholders.
  std::vector<Tensor> run(const std::vector<Endpoint>& fetches,
                          const FeedMap& feeds);

  // Compile the plan for a fetch set + feed node list; feed values are
  // later passed positionally in `feed_nodes` order to CompiledPlan::run.
  // Unused feeds are tolerated (positional API calls may ignore an
  // argument). Nothing is cached: each call compiles.
  std::shared_ptr<CompiledPlan> compile(const std::vector<Endpoint>& fetches,
                                        const std::vector<int>& feed_nodes);

  // Compile-time pattern fusion (see fuse_plan_patterns): inference-only
  // plans dispatch FusedDense/FusedConv2D/FusedElementwise composites
  // instead of the op-per-node sequence, bitwise identically. Off by
  // default; the graph executor turns it on under its `optimize` option.
  // Applies to plans compiled after the call.
  void set_pattern_fusion(bool on) { pattern_fusion_ = on; }
  bool pattern_fusion() const { return pattern_fusion_; }

  // Totals over every plan this session compiled.
  int64_t num_runs() const { return counters_->runs.load(); }
  int64_t nodes_executed() const { return counters_->nodes_executed.load(); }
  int64_t plan_compiles() const { return counters_->compiles.load(); }
  // Fused composite kernel dispatches accumulated over all runs.
  int64_t fused_dispatches() const {
    return counters_->fused_dispatches.load();
  }
  int64_t bytes_reused() const { return counters_->bytes_reused.load(); }
  // The session caches no plans, so nothing is ever hit. Kept for readers
  // of the old cache counter until they drop it.
  int64_t plan_cache_hits() const { return 0; }

 private:
  std::shared_ptr<const GraphDef> graph_;
  VariableStore* variables_;
  Rng* rng_;
  bool pattern_fusion_ = false;
  std::shared_ptr<CompiledPlan::Counters> counters_ =
      std::make_shared<CompiledPlan::Counters>();
};

}  // namespace rlgraph
