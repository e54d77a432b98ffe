#include "agents/agent.h"

#include "tensor/tensor_io.h"
#include "util/errors.h"
#include "util/serialization.h"

namespace rlgraph {

Agent::Agent(Json config, SpacePtr state_space, SpacePtr action_space)
    : config_(std::move(config)), state_space_(std::move(state_space)),
      action_space_(std::move(action_space)) {
  RLG_REQUIRE(state_space_ != nullptr && action_space_ != nullptr,
              "agent requires state and action spaces");
  executor_options_ = executor_options_from_config(config_);
}

void Agent::build() {
  if (built_) return;
  setup_graph();
  RLG_REQUIRE(root_ != nullptr, "setup_graph must create the root component");
  executor_ = std::make_unique<GraphExecutor>(root_, api_spaces_,
                                              executor_options_);
  executor_->build();
  on_built();
  built_ = true;
}

GraphExecutor& Agent::executor() {
  RLG_REQUIRE(executor_ != nullptr, "agent not built; call build() first");
  return *executor_;
}

std::map<std::string, Tensor> Agent::get_weights(const std::string& prefix) {
  return executor().get_weights(prefix);
}

void Agent::set_weights(const std::map<std::string, Tensor>& weights) {
  executor().set_weights(weights);
}

void Agent::export_model(const std::string& path) {
  write_file(path, executor().export_variables());
}

void Agent::import_model(const std::string& path) {
  executor().import_variables(read_file(path));
}

std::vector<uint8_t> Agent::export_weights(const std::string& prefix) {
  return serialize_weights(get_weights(prefix));
}

void Agent::import_weights(const std::vector<uint8_t>& bytes) {
  std::map<std::string, Tensor> weights = deserialize_weights(bytes);
  // Validate the snapshot against the built graph BEFORE mutating anything:
  // a snapshot from a different architecture must fail atomically instead
  // of leaving a half-overwritten variable store behind.
  const std::map<std::string, Tensor> current = get_weights();
  if (weights.size() != current.size()) {
    throw SerializationError(
        "weight snapshot has " + std::to_string(weights.size()) +
        " variables but this agent has " + std::to_string(current.size()));
  }
  for (const auto& [name, t] : weights) {
    auto it = current.find(name);
    if (it == current.end()) {
      throw SerializationError("weight snapshot names unknown variable '" +
                               name + "'");
    }
    if (it->second.dtype() != t.dtype() || !(it->second.shape() == t.shape())) {
      throw SerializationError(
          "weight snapshot variable '" + name + "' is " +
          std::string(dtype_name(t.dtype())) + t.shape().to_string() +
          " but the agent expects " +
          std::string(dtype_name(it->second.dtype())) +
          it->second.shape().to_string());
    }
  }
  set_weights(weights);
}

namespace {
constexpr uint32_t kWeightsMagic = 0x524C4757;  // "RLGW"
constexpr uint32_t kWeightsVersion = 1;
}  // namespace

std::vector<uint8_t> serialize_weights(
    const std::map<std::string, Tensor>& weights) {
  ByteWriter w;
  w.write_u32(kWeightsMagic);
  w.write_u32(kWeightsVersion);
  w.write_u32(static_cast<uint32_t>(weights.size()));
  for (const auto& [name, t] : weights) {
    w.write_string(name);
    write_tensor(&w, t);
  }
  return w.take();
}

std::map<std::string, Tensor> deserialize_weights(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.read_u32() != kWeightsMagic) {
    throw SerializationError(
        "bad weight-map magic; not an RLgraph weight snapshot (RLGW)");
  }
  if (r.read_u32() != kWeightsVersion) {
    throw SerializationError("unsupported weight snapshot version");
  }
  uint32_t count = r.read_u32();
  std::map<std::string, Tensor> weights;
  for (uint32_t i = 0; i < count; ++i) {
    std::string name = r.read_string();
    Tensor t;
    try {
      t = read_tensor(&r);
    } catch (const SerializationError& e) {
      throw SerializationError("weight snapshot variable '" + name +
                               "': " + e.what());
    }
    weights.emplace(std::move(name), std::move(t));
  }
  if (!r.at_end()) {
    throw SerializationError(
        "weight snapshot has " + std::to_string(r.remaining()) +
        " trailing bytes after the declared " + std::to_string(count) +
        " variables");
  }
  return weights;
}

ExecutorOptions executor_options_from_config(const Json& config) {
  ExecutorOptions opts;
  const std::string backend = config.get_string("backend", "static");
  if (backend == "static" || backend == "tf") {
    opts.backend = Backend::kStatic;
  } else if (backend == "define_by_run" || backend == "pytorch" ||
             backend == "imperative") {
    opts.backend = Backend::kImperative;
  } else {
    throw ConfigError("unknown backend: " + backend);
  }
  opts.seed = static_cast<uint64_t>(config.get_int("seed", 1234));
  opts.optimize = config.get_bool("optimize_graph", true);
  opts.fast_path = config.get_bool("fast_path", true);
  opts.default_device = config.get_string("device", "/cpu:0");
  // Fine-grained per-component device control (paper §3.4):
  //   "device_map": {"agent/policy": "/gpu:0", "agent/memory": "/cpu:0"}
  const Json& device_map = config.get("device_map");
  if (device_map.is_object()) {
    for (const auto& [scope, device] : device_map.as_object()) {
      opts.device_map[scope] = device.as_string();
    }
  }
  return opts;
}

SpacePtr preprocessed_space(const Json& preprocessor_config, SpacePtr input) {
  if (preprocessor_config.is_null()) return input;
  RLG_REQUIRE(preprocessor_config.is_array(),
              "preprocessor config must be a list");
  SpacePtr current = std::move(input);
  for (const Json& spec : preprocessor_config.as_array()) {
    const std::string type = spec.get_string("type", "");
    RLG_REQUIRE(current->is_box(), "preprocessors operate on box spaces");
    const auto& box = static_cast<const BoxSpace&>(*current);
    Shape vs = box.value_shape();
    if (type == "grayscale") {
      RLG_REQUIRE(vs.rank() >= 1, "grayscale needs channelled input");
      current = FloatBox(vs.with_dim(vs.rank() - 1, 1), 0.0, 1.0);
    } else if (type == "rescale" || type == "clip") {
      current = FloatBox(vs, box.low(), box.high());
    } else if (type == "frame_stack") {
      int64_t k = spec.get_int("num_frames", 4);
      current = FloatBox(vs.with_dim(vs.rank() - 1, vs.dim(vs.rank() - 1) * k),
                         box.low(), box.high());
    } else {
      throw ConfigError("unknown preprocessor type: " + type);
    }
  }
  return current;
}

// Factories implemented in the per-agent translation units.
std::unique_ptr<Agent> make_dqn_agent(const Json&, SpacePtr, SpacePtr);
std::unique_ptr<Agent> make_impala_agent(const Json&, SpacePtr, SpacePtr);
std::unique_ptr<Agent> make_actor_critic_agent(const Json&, SpacePtr,
                                               SpacePtr);
std::unique_ptr<Agent> make_ppo_agent(const Json&, SpacePtr, SpacePtr);
std::unique_ptr<Agent> make_sac_agent(const Json&, SpacePtr, SpacePtr);

std::unique_ptr<Agent> make_agent(const Json& config, SpacePtr state_space,
                                  SpacePtr action_space) {
  const std::string type = config.get_string("type", "");
  if (type == "dqn" || type == "apex") {
    return make_dqn_agent(config, std::move(state_space),
                          std::move(action_space));
  }
  if (type == "impala_actor" || type == "impala_learner") {
    return make_impala_agent(config, std::move(state_space),
                             std::move(action_space));
  }
  if (type == "a2c" || type == "actor_critic") {
    return make_actor_critic_agent(config, std::move(state_space),
                                   std::move(action_space));
  }
  if (type == "ppo") {
    return make_ppo_agent(config, std::move(state_space),
                          std::move(action_space));
  }
  if (type == "sac") {
    return make_sac_agent(config, std::move(state_space),
                          std::move(action_space));
  }
  throw ConfigError("unknown agent type: '" + type + "'");
}

}  // namespace rlgraph
