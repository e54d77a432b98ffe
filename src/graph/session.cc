#include "graph/session.h"

#include <string>
#include <utility>

#include "util/errors.h"
#include "util/trace.h"

namespace rlgraph {

Session::Session(std::shared_ptr<const GraphDef> graph,
                 VariableStore* variables, Rng* rng)
    : graph_(std::move(graph)), variables_(variables), rng_(rng) {
  RLG_REQUIRE(graph_ != nullptr, "Session requires a graph");
}

std::shared_ptr<CompiledPlan> Session::compile(
    const std::vector<Endpoint>& fetches, const std::vector<int>& feed_nodes) {
  trace::TraceSpan compile_span("session", "session/compile");
  return CompiledPlan::compile(graph_, fetches, feed_nodes, pattern_fusion_,
                               counters_);
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
  std::shared_ptr<CompiledPlan> plan = compile(fetches, feed_nodes);
  // An explicit feed map naming placeholders the fetched subgraph never
  // reads is almost always a caller bug, so name the offenders. (Positional
  // API calls through compile() keep tolerating ignored arguments.)
  const std::vector<std::string>& unused = plan->unused_feed_names();
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
  return plan->run(feed_values, variables_, rng_);
}

}  // namespace rlgraph
