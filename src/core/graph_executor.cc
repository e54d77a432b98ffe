#include "core/graph_executor.h"

#include "core/build_context.h"
#include "tensor/tensor_io.h"
#include "util/errors.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/serialization.h"

namespace rlgraph {

GraphExecutor::GraphExecutor(
    std::shared_ptr<Component> root,
    std::map<std::string, std::vector<SpacePtr>> api_input_spaces,
    ExecutorOptions options)
    : root_(std::move(root)),
      api_input_spaces_(std::move(api_input_spaces)),
      options_(options), rng_(options.seed) {
  RLG_REQUIRE(root_ != nullptr, "GraphExecutor requires a root component");
}

namespace {
// Apply a device map to the component tree: longest scope-prefix wins.
void apply_device_map(Component* component,
                      const std::map<std::string, std::string>& device_map) {
  std::string scope = component->scope();
  std::string best;
  size_t best_len = 0;
  for (const auto& [prefix, device] : device_map) {
    bool match = scope.rfind(prefix, 0) == 0 &&
                 (scope.size() == prefix.size() ||
                  scope[prefix.size()] == '/');
    if (match && prefix.size() >= best_len) {
      best = device;
      best_len = prefix.size();
    }
  }
  if (!best.empty()) component->set_device(best);
  for (const auto& child : component->sub_components()) {
    apply_device_map(child.get(), device_map);
  }
}
}  // namespace

const BuildStats& GraphExecutor::build() {
  if (built_) return stats_;

  if (!options_.device_map.empty()) {
    apply_device_map(root_.get(), options_.device_map);
  }
  GraphBuilder builder(root_.get(), api_input_spaces_);
  // Phase 2: component-graph assembly.
  meta_ = builder.assemble();
  stats_.trace_seconds = meta_.trace_seconds;

  // Phase 3: backend build.
  if (options_.backend == Backend::kStatic) {
    StaticGraphContext ctx(&variables_, &rng_);
    ctx.set_device(options_.default_device);
    api_registry_ = builder.build(ctx, &stats_);
    graph_ = ctx.graph();
    stats_.graph_nodes_before = graph_->num_nodes();

    if (options_.optimize) {
      Stopwatch watch;
      std::vector<Endpoint> roots;
      for (const auto& [_, api] : api_registry_) {
        for (const OpRef& f : api.fetches) roots.push_back({f.node, f.index});
        for (const OpRef& p : api.placeholders) {
          roots.push_back({p.node, p.index});
        }
      }
      OptimizeResult opt = optimize_graph(*graph_, roots);
      // Remap the registry onto the optimized graph.
      for (auto& [_, api] : api_registry_) {
        for (OpRef& f : api.fetches) {
          Endpoint e = opt.endpoint_map.at({f.node, f.index});
          f = OpRef{e.node, e.index};
        }
        for (OpRef& p : api.placeholders) {
          Endpoint e = opt.endpoint_map.at({p.node, p.index});
          p = OpRef{e.node, e.index};
        }
      }
      graph_ = opt.graph;
      stats_.optimize_seconds = watch.elapsed_seconds();
    }
    stats_.graph_nodes_after = graph_->num_nodes();
    session_ = std::make_unique<Session>(graph_, &variables_, &rng_);
    // Plan-level pattern fusion rides the same opt-out as the build-time
    // passes: inference plans dispatch fused composites, training plans
    // (stateful closures) are left untouched by the pass itself.
    session_->set_pattern_fusion(options_.optimize);
    if (options_.profiling) session_->set_metrics(&profile_);
  } else {
    ImperativeContext ctx(&variables_, &rng_, /*build_mode=*/true,
                          options_.probe_batch);
    ctx.set_device(options_.default_device);
    api_registry_ = builder.build(ctx, &stats_);
    // The build tape is discarded; define-by-run execution re-dispatches per
    // call (or replays the lowered fast-path plan).
  }

  // Phase 4: resolve every API to an ApiEntry. On the static backend this
  // compiles each API's plan up front (fetches + feed order baked), which is
  // where the paper's build amortization lands: execute() does no per-call
  // lookups, map assembly, or scheduling.
  entries_.clear();
  entries_.reserve(api_registry_.size());
  handle_ids_.clear();
  for (auto& [name, api] : api_registry_) {
    ApiEntry entry;
    entry.api = &api;
    if (options_.backend == Backend::kStatic) {
      std::vector<Endpoint> fetches;
      fetches.reserve(api.fetches.size());
      for (const OpRef& f : api.fetches) fetches.push_back({f.node, f.index});
      std::vector<int> feed_nodes;
      feed_nodes.reserve(api.placeholders.size());
      for (const OpRef& p : api.placeholders) feed_nodes.push_back(p.node);
      entry.prepared = session_->prepare(fetches, feed_nodes);
    }
    handle_ids_[name] = static_cast<int>(entries_.size());
    entries_.push_back(std::move(entry));
  }

  built_ = true;
  return stats_;
}

ApiHandle GraphExecutor::api_handle(const std::string& api) const {
  auto it = handle_ids_.find(api);
  if (it == handle_ids_.end()) {
    throw NotFoundError("unknown API method '" + api + "'");
  }
  return ApiHandle{it->second};
}

std::vector<Tensor> GraphExecutor::execute(const std::string& api_name,
                                           const std::vector<Tensor>& inputs) {
  RLG_REQUIRE(built_, "GraphExecutor::execute before build()");
  return execute(api_handle(api_name), inputs);
}

std::vector<Tensor> GraphExecutor::execute(ApiHandle handle,
                                           const std::vector<Tensor>& inputs) {
  RLG_REQUIRE(built_, "GraphExecutor::execute before build()");
  RLG_REQUIRE(handle.valid() &&
                  handle.id < static_cast<int>(entries_.size()),
              "invalid API handle");
  ApiEntry& entry = entries_[static_cast<size_t>(handle.id)];
  const BuiltApi& api = *entry.api;
  RLG_REQUIRE(inputs.size() == api.num_input_leaves,
              "API '" << api.name << "' expects " << api.num_input_leaves
                      << " input tensors, got " << inputs.size());
  ++execution_calls_;
  if (options_.profiling) {
    ScopedTimer timer(&profile_, "execute/" + api.name);
    profile_.increment("calls/" + api.name);
    return execute_entry(entry, inputs);
  }
  return execute_entry(entry, inputs);
}

std::vector<Tensor> GraphExecutor::execute_entry(
    ApiEntry& entry, const std::vector<Tensor>& inputs) {
  if (!entry.prepared) return execute_imperative(entry, inputs);
  return entry.prepared->run(inputs);
}

std::vector<Tensor> GraphExecutor::execute_imperative(
    ApiEntry& entry, const std::vector<Tensor>& inputs) {
  // Fast path: replay the lowered plan when contraction succeeded.
  if (entry.traced && entry.fast_path.valid()) {
    return entry.fast_path.run(&variables_, &rng_, inputs);
  }

  const BuiltApi& api = *entry.api;
  ImperativeContext ctx(&variables_, &rng_, /*build_mode=*/false);
  bool trace = options_.fast_path && !entry.traced;
  FastPathRecorder recorder;
  BuildContext bctx(&ctx, BuildMode::kRun, nullptr,
                    trace ? &recorder : nullptr);

  // Bind inputs, leaf-wise per declared record.
  OpRecs records;
  size_t cursor = 0;
  int input_index = 0;
  for (const SpacePtr& space : api.input_spaces) {
    std::vector<std::pair<std::string, SpacePtr>> leaves;
    space->flatten(&leaves);
    OpRec rec;
    rec.space = space;
    for (size_t l = 0; l < leaves.size(); ++l) {
      OpRef ref = ctx.literal(inputs[cursor++]);
      if (trace) recorder.register_input(ref, input_index);
      ++input_index;
      rec.ops.push_back(ref);
    }
    records.push_back(std::move(rec));
  }

  OpRecs outputs = root_->call_api(bctx, api.name, records);

  std::vector<OpRef> out_refs;
  std::vector<Tensor> out;
  for (const OpRec& rec : outputs) {
    for (const OpRef& ref : rec.ops) {
      out_refs.push_back(ref);
      out.push_back(ctx.value(ref));
    }
  }
  if (trace) {
    FastPathProgram program = recorder.finish(out_refs, inputs.size());
    if (program.valid()) {
      RLG_LOG_DEBUG << "fast-path contraction enabled for API '" << api.name
                    << "' (" << program.num_steps() << " steps)";
    }
    entry.fast_path = std::move(program);
    entry.traced = true;
  }
  return out;
}

std::string GraphExecutor::graph_dump() const {
  if (graph_ == nullptr) return "(define-by-run backend: no static graph)";
  return graph_->to_string();
}

std::map<std::string, Tensor> GraphExecutor::get_weights(
    const std::string& prefix) {
  std::map<std::string, Tensor> out;
  for (const std::string& name : variables_.names()) {
    if (name.rfind(prefix, 0) == 0) {
      out.emplace(name, variables_.get(name).clone());
    }
  }
  return out;
}

void GraphExecutor::set_weights(const std::map<std::string, Tensor>& weights) {
  for (const auto& [name, value] : weights) {
    variables_.set(name, value.clone());
  }
}

int64_t GraphExecutor::fused_dispatches() const {
  return session_ != nullptr ? session_->fused_dispatches() : 0;
}

namespace {
constexpr uint32_t kCheckpointMagic = 0x524C4756;  // "RLGV"
constexpr uint32_t kCheckpointVersion = 1;
}  // namespace

std::vector<uint8_t> GraphExecutor::export_variables() {
  ByteWriter w;
  w.write_u32(kCheckpointMagic);
  w.write_u32(kCheckpointVersion);
  std::vector<std::string> names = variables_.names();
  w.write_u32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    w.write_string(name);
    write_tensor(&w, variables_.get(name));
  }
  return w.take();
}

void GraphExecutor::import_variables(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.read_u32() != kCheckpointMagic) {
    throw SerializationError(
        "bad checkpoint magic; not an RLgraph variable file (RLGV)");
  }
  if (r.read_u32() != kCheckpointVersion) {
    throw SerializationError("unsupported checkpoint version");
  }
  // Decode and validate every entry before assigning any, so a corrupt
  // checkpoint leaves the variable store untouched.
  uint32_t count = r.read_u32();
  std::map<std::string, Tensor> decoded;
  for (uint32_t i = 0; i < count; ++i) {
    std::string name = r.read_string();
    Tensor t;
    try {
      t = read_tensor(&r);
    } catch (const SerializationError& e) {
      throw SerializationError("checkpoint variable '" + name + "': " +
                               e.what());
    }
    if (!variables_.exists(name)) {
      throw SerializationError("checkpoint names unknown variable '" + name +
                               "'");
    }
    const Tensor& current = variables_.get(name);
    if (current.dtype() != t.dtype() || !(current.shape() == t.shape())) {
      throw SerializationError(
          "checkpoint variable '" + name + "' is " +
          std::string(dtype_name(t.dtype())) + t.shape().to_string() +
          " but the executor expects " +
          std::string(dtype_name(current.dtype())) +
          current.shape().to_string());
    }
    decoded[std::move(name)] = std::move(t);
  }
  if (!r.at_end()) {
    throw SerializationError("checkpoint has trailing bytes");
  }
  for (auto& [name, t] : decoded) variables_.set(name, std::move(t));
}

}  // namespace rlgraph
