// Graph optimization passes run by the static-graph executor after the
// component-graph build (paper §4.2: "RLgraph's separation of concerns opens
// up opportunities for optimization at all stages ... integrated at the graph
// build stage").
//
// optimize_graph runs at build time: dead-node elimination relative to the
// API registry's root endpoints, and constant folding of stateless ops with
// all-constant inputs. Fusion is per plan (fuse_plan_patterns below), where
// the fetch set says which endpoints must stay addressable. Both passes emit
// their rewritten graph in one rebuild over the nodes they keep.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "graph/graph_def.h"

namespace rlgraph {

struct OptimizeResult {
  std::shared_ptr<GraphDef> graph;
  // Mapping from old endpoints to new endpoints for every live node.
  std::map<Endpoint, Endpoint> endpoint_map;
  int nodes_before = 0;
  int nodes_after = 0;
  int folded = 0;
};

// `roots` are the endpoints that must stay addressable (API registry outputs
// and placeholders are kept implicitly as they appear in live node inputs).
// One rebuild: folding is decided on the input graph (a stateless,
// single-output node whose data inputs are all constants, originally or by
// folding, becomes a Const), liveness is computed on that folded view (a
// folded node no longer reaches its inputs, so constants only it consumed
// die), and the surviving nodes are emitted once. The result is a fixed
// point: optimizing it again folds and removes nothing.
OptimizeResult optimize_graph(const GraphDef& graph,
                              const std::vector<Endpoint>& roots);

// --- per-plan pattern fusion -------------------------------------------------
//
// Runs at plan-compile time on inference (fetch-only) plans, the way an NPU
// compiler fuses its lowered IR: MatMul+AddBias(+activation) -> FusedDense,
// Conv2D+AddBias(+activation) -> FusedConv2D, and elementwise chains
// including binary ops with broadcast extras -> FusedElementwise. Training
// plans are left untouched: if the fetched closure contains any stateful
// node other than a Variable read (Assign, RNG draws, component state), the
// pass declines so autodiff-expanded update graphs keep their unfused nodes.
//
// The pass costs what the plan touches: matching, consumer counting and
// emission all run over the fetched closure, and the fused graph holds only
// that closure plus the plan's feed placeholders. A consumer outside the
// closure never runs in this plan, so it does not block absorbing its
// producer.
struct PlanFusionResult {
  // Null when nothing was fused (stateful closure, or no pattern matched);
  // callers then keep the original graph.
  std::shared_ptr<GraphDef> graph;
  // Covers exactly the emitted nodes: the fetched closure and the feeds
  // (absorbed nodes map to their fused replacement's output 0). Nodes
  // outside both have no entry.
  std::map<Endpoint, Endpoint> endpoint_map;
  int fused_patterns = 0;  // FusedDense + FusedConv2D matches
  int fused_chains = 0;    // elementwise chains (unary and binary links)
  int steps_saved = 0;     // kernel dispatches eliminated per run
};

// `keep` endpoints (the plan's fetches) are never absorbed into a fused
// node, so fetch slots survive with their values bitwise unchanged.
// `feeds` are the plan's placeholder nodes: each is emitted even when the
// closure does not read it, so a plan may keep tolerating unused feeds.
PlanFusionResult fuse_plan_patterns(const GraphDef& graph,
                                    const std::vector<Endpoint>& keep,
                                    const std::vector<int>& feeds = {});

}  // namespace rlgraph
