// GraphExecutor: the execution bridge between the component graph and a
// backend (paper §4.1). Owns the variable store, drives all build phases,
// and serves execute(api, inputs) requests:
//
//  * static backend — every API is compiled to a Session::PreparedCall at
//    build time (fetches + placeholder feed order resolved once), and every
//    call runs that plan, whatever its batch size.
//  * define-by-run backend — re-dispatches the call chain of graph functions
//    through the component graph; when edge contraction succeeds, the
//    contracted program is lowered onto the same compiled-plan layer and
//    replays run the shared plan executor.
//
// Hot call sites (agents, executors) resolve an ApiHandle once after build
// and call execute(handle, ...) — no per-call string lookup.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/imperative_context.h"
#include "backend/static_context.h"
#include "core/fast_path.h"
#include "core/graph_builder.h"
#include "graph/passes.h"
#include "graph/session.h"
#include "util/metrics.h"

namespace rlgraph {

struct ExecutorOptions {
  Backend backend = Backend::kStatic;
  // Run the graph optimization passes after the static build.
  bool optimize = true;
  // Attempt fast-path edge contraction for define-by-run dispatch.
  bool fast_path = true;
  uint64_t seed = 1234;
  // Probe batch extent used for artificial placeholders in define-by-run
  // builds.
  int64_t probe_batch = 2;
  std::string default_device = "/cpu:0";
  // Per-component device assignments applied to the component tree before
  // the build (longest scope prefix wins); entries: scope -> device.
  std::map<std::string, std::string> device_map;
  // Record per-API execute() latencies into the profiling registry.
  bool profiling = false;
};

// Build-time-resolved reference to one API method of one executor.
struct ApiHandle {
  int id = -1;
  bool valid() const { return id >= 0; }
};

class GraphExecutor {
 public:
  // The executor shares ownership of the root component; a component tree
  // must be built by at most one executor.
  GraphExecutor(std::shared_ptr<Component> root,
                std::map<std::string, std::vector<SpacePtr>> api_input_spaces,
                ExecutorOptions options = {});

  // Runs assembly + build (+ optimization); idempotent.
  const BuildStats& build();

  // Resolve an API name to its handle (valid after build()). Throws
  // NotFoundError for unknown names.
  ApiHandle api_handle(const std::string& api) const;

  // Serve one API request. Inputs/outputs are flattened leaf tensors in
  // space-flatten order. The string overload resolves the handle per call;
  // hot paths should resolve once and use the handle overload.
  std::vector<Tensor> execute(const std::string& api,
                              const std::vector<Tensor>& inputs = {});
  std::vector<Tensor> execute(ApiHandle handle,
                              const std::vector<Tensor>& inputs = {});

  // --- introspection ---------------------------------------------------------
  Component* root() { return root_.get(); }
  const MetaGraph& meta_graph() const { return meta_; }
  const BuildStats& stats() const { return stats_; }
  const std::map<std::string, BuiltApi>& api_registry() const {
    return api_registry_;
  }
  VariableStore& variables() { return variables_; }
  Rng& rng() { return rng_; }
  Backend backend() const { return options_.backend; }
  // Static backend: one per execute(); define-by-run: dispatch count.
  int64_t execution_calls() const { return execution_calls_; }
  // Per-API latency summaries (populated when options.profiling is set) —
  // the "hooks for summaries or profiling" of paper §4.1. When profiling is
  // on, the session's plan-compile / cache-hit / reuse counters land here
  // too.
  const MetricRegistry& profile() const { return profile_; }
  std::string profile_report() const { return profile_.report(); }
  // Readable dump of the built computation graph (static backend).
  std::string graph_dump() const;
  // The session serving static-backend calls (null on define-by-run).
  Session* session() { return session_.get(); }

  // --- weights ------------------------------------------------------------------
  // All variables whose scoped name starts with `prefix` ("" = all).
  std::map<std::string, Tensor> get_weights(const std::string& prefix = "");
  void set_weights(const std::map<std::string, Tensor>& weights);
  // Checkpoint format (magic "RLGV"); round-trips through import. Import
  // validates every entry against the variable store before assigning any
  // and throws SerializationError on a corrupt or mismatched checkpoint.
  std::vector<uint8_t> export_variables();
  void import_variables(const std::vector<uint8_t>& bytes);
  // Fused composite dispatches of the main session.
  int64_t fused_dispatches() const;

 private:
  // Per-API state resolved at build time.
  struct ApiEntry {
    const BuiltApi* api = nullptr;
    // Static backend: the compiled plan call (fetches + feed order baked).
    std::shared_ptr<Session::PreparedCall> prepared;
    // Define-by-run: the contracted program once a dispatch traced it.
    FastPathProgram fast_path;
    bool traced = false;
  };

  std::vector<Tensor> execute_entry(ApiEntry& entry,
                                    const std::vector<Tensor>& inputs);
  std::vector<Tensor> execute_imperative(ApiEntry& entry,
                                         const std::vector<Tensor>& inputs);

  std::shared_ptr<Component> root_;
  std::map<std::string, std::vector<SpacePtr>> api_input_spaces_;
  ExecutorOptions options_;
  VariableStore variables_;
  Rng rng_;

  bool built_ = false;
  MetaGraph meta_;
  BuildStats stats_;
  std::map<std::string, BuiltApi> api_registry_;
  std::map<std::string, int> handle_ids_;
  std::vector<ApiEntry> entries_;
  int64_t execution_calls_ = 0;
  MetricRegistry profile_;

  // Static backend state.
  std::shared_ptr<GraphDef> graph_;
  std::unique_ptr<Session> session_;
};

}  // namespace rlgraph
