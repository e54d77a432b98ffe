// Graph optimization passes run by the static-graph executor after the
// component-graph build (paper §4.2: "RLgraph's separation of concerns opens
// up opportunities for optimization at all stages ... integrated at the graph
// build stage").
//
// optimize_graph runs at build time: dead-node elimination relative to the
// API registry's root endpoints, and constant folding of stateless ops with
// all-constant inputs. Fusion is per plan (fuse_plan_patterns below), where
// the fetch set says which endpoints must stay addressable.
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
struct PlanFusionResult {
  // Null when nothing was fused (stateful closure, or no pattern matched);
  // callers then keep the original graph.
  std::shared_ptr<GraphDef> graph;
  // Total over every node of the input graph (absorbed nodes map to their
  // fused replacement's output 0).
  std::map<Endpoint, Endpoint> endpoint_map;
  int fused_patterns = 0;  // FusedDense + FusedConv2D matches
  int fused_chains = 0;    // elementwise chains (unary and binary links)
  int steps_saved = 0;     // kernel dispatches eliminated per run
};

// `keep` endpoints (the plan's fetches) are never absorbed into a fused
// node, so fetch slots survive with their values bitwise unchanged.
PlanFusionResult fuse_plan_patterns(const GraphDef& graph,
                                    const std::vector<Endpoint>& keep);

}  // namespace rlgraph
