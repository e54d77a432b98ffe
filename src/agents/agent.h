// The high-level agent API (paper §3.4, Listing 2).
//
// Agents are configured declaratively from JSON documents specifying the
// algorithm and its components (network layer list, memory, optimizer,
// exploration, devices). An agent owns a root component and a graph
// executor; all interaction with the computation graph goes through the
// executor's API registry.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/graph_executor.h"
#include "spaces/space.h"
#include "util/json.h"

namespace rlgraph {

class Agent {
 public:
  Agent(Json config, SpacePtr state_space, SpacePtr action_space);
  virtual ~Agent() = default;

  // Build with default devices, variable sharing, ... (idempotent).
  virtual void build();

  // get_actions(states [B, ...]) -> actions [B]. `explore` routes through
  // the exploration component; preprocessing always runs in-graph.
  virtual Tensor get_actions(const Tensor& states, bool explore = true) = 0;

  // Observe a batch of transitions (states are the *preprocessed* states the
  // agent acted on).
  virtual void observe(const Tensor& states, const Tensor& actions,
                       const Tensor& rewards, const Tensor& next_states,
                       const Tensor& terminals) = 0;

  // Update from the internal buffer (or, for pipeline agents, the shared
  // queue); returns the loss.
  virtual double update() = 0;

  // --- weights / checkpoints ---------------------------------------------------
  std::map<std::string, Tensor> get_weights(const std::string& prefix = "");
  void set_weights(const std::map<std::string, Tensor>& weights);
  void export_model(const std::string& path);
  void import_model(const std::string& path);
  // In-memory weight snapshot (magic "RLGW"): the get_weights(prefix) map
  // serialized through util/serialization. This is the unit the serving
  // policy store publishes, and doubles as a minimal checkpoint —
  // import_weights() on a freshly built agent of the same config restores
  // the exported variables.
  std::vector<uint8_t> export_weights(const std::string& prefix = "");
  void import_weights(const std::vector<uint8_t>& bytes);

  GraphExecutor& executor();
  const Json& config() const { return config_; }
  SpacePtr state_space() const { return state_space_; }
  SpacePtr action_space() const { return action_space_; }

 protected:
  // Subclasses construct their root component + api spaces before build().
  virtual void setup_graph() = 0;
  // Called once after the executor build; subclasses resolve ApiHandles for
  // their hot call paths here so steady-state calls skip the name lookup.
  virtual void on_built() {}

  Json config_;
  SpacePtr state_space_;   // raw env state space (no batch rank)
  SpacePtr action_space_;
  ExecutorOptions executor_options_;
  std::shared_ptr<Component> root_;
  std::map<std::string, std::vector<SpacePtr>> api_spaces_;
  std::unique_ptr<GraphExecutor> executor_;
  bool built_ = false;
};

// Weight-map wire format behind Agent::export_weights / import_weights
// (little-endian tagged stream, magic "RLGW"). Standalone so trainers and
// serving processes can exchange snapshots without an Agent on both ends.
std::vector<uint8_t> serialize_weights(
    const std::map<std::string, Tensor>& weights);
std::map<std::string, Tensor> deserialize_weights(
    const std::vector<uint8_t>& bytes);

// Factory: config must contain "type" ("dqn", "apex", "impala_actor",
// "impala_learner").
std::unique_ptr<Agent> make_agent(const Json& config, SpacePtr state_space,
                                  SpacePtr action_space);

// Compute the space produced by a preprocessor config applied to `input`
// (needed to declare memory/act input spaces before the graph exists).
SpacePtr preprocessed_space(const Json& preprocessor_config, SpacePtr input);

// Parse common executor options ("backend": "static"|"define_by_run",
// "seed", "optimize", "fast_path") out of an agent config.
ExecutorOptions executor_options_from_config(const Json& config);

}  // namespace rlgraph
