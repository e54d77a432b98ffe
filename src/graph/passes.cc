#include "graph/passes.h"

#include <algorithm>
#include <set>

#include "graph/op_schema.h"
#include "util/errors.h"
#include "util/logging.h"

namespace rlgraph {

namespace {

bool is_fusable_unary(const std::string& op) {
  static const std::set<std::string> kFusable = {
      "Neg", "Exp", "Log", "Sqrt", "Square", "Abs", "Relu", "Sigmoid", "Tanh"};
  return kFusable.count(op) > 0;
}

bool is_fusable_binary(const std::string& op) {
  static const std::set<std::string> kFusable = {"Add",     "Sub", "Mul",
                                                 "Div",     "Minimum",
                                                 "Maximum"};
  return kFusable.count(op) > 0;
}

// Activation ops a dense/conv pattern can absorb, as the fused kernel's
// activation attr.
const char* pattern_activation(const std::string& op) {
  if (op == "Relu") return "relu";
  if (op == "Tanh") return "tanh";
  if (op == "Sigmoid") return "sigmoid";
  return nullptr;
}

OptimizeResult optimize_once(const GraphDef& graph,
                             const std::vector<Endpoint>& roots,
                             bool fold_constants) {
  OptimizeResult result;
  result.nodes_before = graph.num_nodes();

  // --- liveness: nodes reachable from roots through data + control deps ---
  std::vector<uint8_t> live(static_cast<size_t>(graph.num_nodes()), 0);
  std::vector<int> worklist;
  for (const Endpoint& r : roots) {
    if (!live[static_cast<size_t>(r.node)]) {
      live[static_cast<size_t>(r.node)] = 1;
      worklist.push_back(r.node);
    }
  }
  while (!worklist.empty()) {
    int id = worklist.back();
    worklist.pop_back();
    const NodeDef& n = graph.node(id);
    auto visit = [&](int dep) {
      if (!live[static_cast<size_t>(dep)]) {
        live[static_cast<size_t>(dep)] = 1;
        worklist.push_back(dep);
      }
    };
    for (const Endpoint& e : n.inputs) visit(e.node);
    for (int c : n.control_inputs) visit(c);
  }

  // --- rebuild -------------------------------------------------------------
  auto new_graph = std::make_shared<GraphDef>();
  const OpRegistry& registry = OpRegistry::instance();
  std::map<int, int> node_map;  // old id -> new id
  auto map_endpoint = [&](const Endpoint& e) {
    auto it = node_map.find(e.node);
    RLG_CHECK_MSG(it != node_map.end(),
                  "pass ordering bug: input not yet emitted");
    return Endpoint{it->second, e.index};
  };

  for (int id = 0; id < graph.num_nodes(); ++id) {
    if (!live[static_cast<size_t>(id)]) continue;
    const NodeDef& n = graph.node(id);

    // Constant folding: stateless op, all data inputs are Consts in the new
    // graph, no control inputs.
    const OpSchema& schema = registry.lookup(n.op);
    bool foldable = fold_constants && !schema.stateful &&
                    n.op != "Const" && n.op != "Placeholder" &&
                    n.control_inputs.empty() && !n.inputs.empty();
    if (foldable) {
      for (const Endpoint& e : n.inputs) {
        const NodeDef& src = new_graph->node(map_endpoint(e).node);
        if (src.op != "Const") {
          foldable = false;
          break;
        }
      }
    }
    if (foldable) {
      KernelContext ctx;
      ctx.node = &n;
      ctx.inputs.reserve(n.inputs.size());
      for (const Endpoint& e : n.inputs) {
        const NodeDef& src = new_graph->node(map_endpoint(e).node);
        ctx.inputs.push_back(attr_tensor(src.attrs, "value"));
      }
      std::vector<Tensor> values = schema.kernel(ctx);
      // Multi-output folding would need one Const per output; fold only
      // single-output nodes to keep the endpoint map simple.
      if (values.size() == 1) {
        NodeDef cn;
        cn.name = n.name + "_folded";
        cn.op = "Const";
        cn.attrs["value"] = values[0];
        cn.out_dtypes = {values[0].dtype()};
        cn.out_shapes = {values[0].shape()};
        cn.device = n.device;
        node_map[id] = new_graph->add_node(std::move(cn));
        ++result.folded;
        continue;
      }
    }

    // Plain copy with remapped deps.
    NodeDef copy = n;
    copy.id = -1;
    for (Endpoint& e : copy.inputs) e = map_endpoint(e);
    for (int& c : copy.control_inputs) c = node_map.at(c);
    node_map[id] = new_graph->add_node(std::move(copy));
  }

  for (const auto& [old_id, new_id] : node_map) {
    const NodeDef& nn = new_graph->node(new_id);
    for (int i = 0; i < nn.num_outputs(); ++i) {
      result.endpoint_map[Endpoint{old_id, i}] = Endpoint{new_id, i};
    }
    // Zero-output nodes (control-only roots) stay addressable as output 0.
    if (nn.num_outputs() == 0) {
      result.endpoint_map[Endpoint{old_id, 0}] = Endpoint{new_id, 0};
    }
  }

  result.graph = std::move(new_graph);
  result.nodes_after = result.graph->num_nodes();
  RLG_LOG_DEBUG << "optimize_once: " << result.nodes_before << " -> "
                << result.nodes_after << " nodes (" << result.folded
                << " folded)";
  return result;
}
}  // namespace

OptimizeResult optimize_graph(const GraphDef& graph,
                              const std::vector<Endpoint>& roots) {
  // First pass folds; a second DCE-only pass drops constants orphaned by the
  // folding.
  OptimizeResult first = optimize_once(graph, roots, /*fold_constants=*/true);
  std::vector<Endpoint> remapped_roots;
  remapped_roots.reserve(roots.size());
  for (const Endpoint& r : roots) {
    remapped_roots.push_back(first.endpoint_map.at(r));
  }
  OptimizeResult second =
      optimize_once(*first.graph, remapped_roots, /*fold_constants=*/false);
  OptimizeResult result;
  result.graph = second.graph;
  result.nodes_before = graph.num_nodes();
  result.nodes_after = second.nodes_after;
  result.folded = first.folded;
  for (const auto& [old_ep, mid_ep] : first.endpoint_map) {
    auto it = second.endpoint_map.find(mid_ep);
    if (it != second.endpoint_map.end()) {
      result.endpoint_map[old_ep] = it->second;
    }
  }
  return result;
}

// --- per-plan pattern fusion -------------------------------------------------

namespace {

// The extra operand of a fused binary link must broadcast *into* the chain
// shape: fully specified, rank <= out rank, and (right-aligned) every dim is
// 1 or equals a known output dim. Then broadcast(chain, extra) == chain at
// runtime and the fused per-element walk matches the unfused loops exactly.
bool extra_broadcasts_into(const Shape& extra, const Shape& out) {
  if (!extra.fully_specified()) return false;
  if (extra.rank() > out.rank()) return false;
  for (int i = 0; i < extra.rank(); ++i) {
    int64_t ed = extra.dim(extra.rank() - 1 - i);
    int64_t od = out.dim(out.rank() - 1 - i);
    if (ed == 1) continue;
    if (od == kUnknownDim || ed != od) return false;
  }
  return true;
}

}  // namespace

PlanFusionResult fuse_plan_patterns(const GraphDef& graph,
                                    const std::vector<Endpoint>& keep) {
  PlanFusionResult result;
  const int n = graph.num_nodes();
  const OpRegistry& registry = OpRegistry::instance();

  // --- closure of `keep` over data + control deps ------------------------
  std::vector<uint8_t> live(static_cast<size_t>(n), 0);
  std::set<int> keep_nodes;
  std::vector<int> worklist;
  for (const Endpoint& k : keep) {
    keep_nodes.insert(k.node);
    if (!live[static_cast<size_t>(k.node)]) {
      live[static_cast<size_t>(k.node)] = 1;
      worklist.push_back(k.node);
    }
  }
  while (!worklist.empty()) {
    int id = worklist.back();
    worklist.pop_back();
    const NodeDef& nd = graph.node(id);
    auto visit = [&](int dep) {
      if (!live[static_cast<size_t>(dep)]) {
        live[static_cast<size_t>(dep)] = 1;
        worklist.push_back(dep);
      }
    };
    for (const Endpoint& e : nd.inputs) visit(e.node);
    for (int c : nd.control_inputs) visit(c);
  }

  // --- gate: inference plans only ----------------------------------------
  // A closure containing any state writer or RNG draw is a training/acting
  // plan; decline so autodiff-expanded graphs keep their unfused nodes.
  for (int id = 0; id < n; ++id) {
    if (!live[static_cast<size_t>(id)]) continue;
    const NodeDef& nd = graph.node(id);
    bool stateful =
        nd.stateful || (registry.contains(nd.op) && registry.lookup(nd.op).stateful);
    if (stateful && nd.op != "Variable") return result;  // graph stays null
  }

  // --- consumer structure over ALL nodes (conservative) ------------------
  std::vector<int> consumers(static_cast<size_t>(n), 0);
  std::vector<int> last_consumer(static_cast<size_t>(n), -1);
  std::vector<int> control_consumers(static_cast<size_t>(n), 0);
  for (const NodeDef& nd : graph.nodes()) {
    for (const Endpoint& e : nd.inputs) {
      ++consumers[static_cast<size_t>(e.node)];
      last_consumer[static_cast<size_t>(e.node)] = nd.id;
    }
    for (int c : nd.control_inputs) {
      ++control_consumers[static_cast<size_t>(c)];
    }
  }
  // A node absorbed into a fused op disappears from the graph; anything
  // hanging a control edge off it would dangle.
  auto absorbable = [&](int id) {
    return live[static_cast<size_t>(id)] &&
           consumers[static_cast<size_t>(id)] == 1 &&
           control_consumers[static_cast<size_t>(id)] == 0 &&
           keep_nodes.count(id) == 0;
  };

  std::vector<uint8_t> claimed(static_cast<size_t>(n), 0);

  // --- dense / conv patterns ---------------------------------------------
  struct Pattern {
    int terminator = -1;
    std::vector<int> members;  // core, add[, activation]
    std::string op;            // FusedDense | FusedConv2D
    Endpoint x, w, bias;
    std::string activation = "none";
    const NodeDef* core = nullptr;  // MatMul / Conv2D node (attr source)
  };
  std::map<int, Pattern> patterns;  // terminator id -> pattern

  for (int id = 0; id < n; ++id) {
    if (!live[static_cast<size_t>(id)] || claimed[static_cast<size_t>(id)]) {
      continue;
    }
    const NodeDef& add = graph.node(id);
    if (add.op != "Add" || add.inputs.size() != 2 ||
        !add.control_inputs.empty()) {
      continue;
    }
    for (int side = 0; side < 2 && !claimed[static_cast<size_t>(id)]; ++side) {
      Endpoint core_ep = add.inputs[static_cast<size_t>(side)];
      Endpoint bias_ep = add.inputs[static_cast<size_t>(1 - side)];
      if (core_ep.index != 0) continue;
      const NodeDef& core = graph.node(core_ep.node);
      bool is_dense = core.op == "MatMul";
      bool is_conv = core.op == "Conv2D";
      if (!is_dense && !is_conv) continue;
      if (claimed[static_cast<size_t>(core_ep.node)] ||
          !absorbable(core_ep.node) || !core.control_inputs.empty()) {
        continue;
      }
      // Bias must be a rank-1 float vector of known extent matching the
      // output channel dim (the fused kernel indexes it directly; a size-1
      // broadcast bias would read out of range).
      if (graph.dtype_of(bias_ep) != DType::kFloat32) continue;
      const Shape& bshape = graph.shape_of(bias_ep);
      const Shape& oshape = core.out_shapes[0];
      if (bshape.rank() != 1 || bshape.dim(0) == kUnknownDim) continue;
      int64_t channels = oshape.dim(oshape.rank() - 1);
      if (channels == kUnknownDim || channels != bshape.dim(0)) continue;

      Pattern p;
      p.terminator = id;
      p.members = {core_ep.node, id};
      p.op = is_dense ? "FusedDense" : "FusedConv2D";
      p.x = core.inputs[0];
      p.w = core.inputs[1];
      p.bias = bias_ep;
      p.core = &core;
      // Absorb a sole-consumer activation on top of the Add.
      if (absorbable(id)) {
        int cid = last_consumer[static_cast<size_t>(id)];
        const NodeDef& act = graph.node(cid);
        const char* act_name = pattern_activation(act.op);
        if (act_name != nullptr && act.control_inputs.empty() &&
            act.inputs.size() == 1 && act.inputs[0] == Endpoint{id, 0} &&
            live[static_cast<size_t>(cid)] &&
            !claimed[static_cast<size_t>(cid)]) {
          p.terminator = cid;
          p.activation = act_name;
          p.members.push_back(cid);
        }
      }
      for (int m : p.members) claimed[static_cast<size_t>(m)] = 1;
      ++result.fused_patterns;
      result.steps_saved += static_cast<int>(p.members.size()) - 1;
      patterns[p.terminator] = std::move(p);
    }
  }

  // --- elementwise chains (unary + binary with broadcast extras) ---------
  // member_kind: -2 = not a chain member; 0/1 = binary with the running
  // value on that input side; 2 = unary.
  auto member_kind = [&](int id) -> int {
    if (!live[static_cast<size_t>(id)] || claimed[static_cast<size_t>(id)]) {
      return -2;
    }
    const NodeDef& nd = graph.node(id);
    if (!nd.control_inputs.empty() || nd.num_outputs() != 1 ||
        nd.out_dtypes[0] != DType::kFloat32) {
      return -2;
    }
    if (is_fusable_unary(nd.op)) return 2;
    if (!is_fusable_binary(nd.op) || nd.inputs.size() != 2) return -2;
    if (graph.dtype_of(nd.inputs[0]) != DType::kFloat32 ||
        graph.dtype_of(nd.inputs[1]) != DType::kFloat32) {
      return -2;
    }
    const Shape& out = nd.out_shapes[0];
    for (int s = 0; s < 2; ++s) {
      const Shape& cin = graph.shape_of(nd.inputs[static_cast<size_t>(s)]);
      const Shape& ext = graph.shape_of(nd.inputs[static_cast<size_t>(1 - s)]);
      if (cin.rank() != out.rank()) continue;
      if (!extra_broadcasts_into(ext, out)) continue;
      // Every output dim must come from the chain side: either the extra
      // dim broadcasts (1 / absent, so out == chain symbolically) or the
      // chain dim is known and equal to the known extra dim.
      bool ok = true;
      for (int i = 0; i < out.rank() && ok; ++i) {
        int ei = ext.rank() - out.rank() + i;
        int64_t ed = ei >= 0 ? ext.dim(ei) : 1;
        if (ed == 1) continue;
        int64_t cd = cin.dim(i);
        if (cd == kUnknownDim || cd != ed) ok = false;
      }
      if (ok) return s;
    }
    return -2;
  };

  struct Chain {
    std::vector<int> nodes;   // terminator first
    std::map<int, int> kind;  // node id -> member_kind
  };
  std::map<int, Chain> chain_candidates;
  for (int id = 0; id < n; ++id) {
    int k0 = member_kind(id);
    if (k0 == -2) continue;
    Chain chain;
    chain.nodes.push_back(id);
    chain.kind[id] = k0;
    int cur = id;
    while (true) {
      const NodeDef& c = graph.node(cur);
      int kc = chain.kind[cur];
      Endpoint prev_ep = kc == 2 ? c.inputs[0]
                                 : c.inputs[static_cast<size_t>(kc)];
      if (prev_ep.index != 0) break;
      int prev = prev_ep.node;
      int kp = member_kind(prev);
      if (kp == -2 || !absorbable(prev)) break;
      chain.nodes.push_back(prev);
      chain.kind[prev] = kp;
      cur = prev;
    }
    if (chain.nodes.size() < 2) continue;
    chain_candidates[id] = std::move(chain);
  }
  // Drop chains whose terminator is interior to a longer chain.
  {
    std::set<int> interior;
    for (const auto& [term, chain] : chain_candidates) {
      for (size_t i = 1; i < chain.nodes.size(); ++i) {
        interior.insert(chain.nodes[i]);
      }
    }
    for (auto it = chain_candidates.begin(); it != chain_candidates.end();) {
      if (interior.count(it->first) > 0) {
        it = chain_candidates.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& [term, chain] : chain_candidates) {
    for (int m : chain.nodes) claimed[static_cast<size_t>(m)] = 1;
    ++result.fused_chains;
    result.steps_saved += static_cast<int>(chain.nodes.size()) - 1;
  }

  if (result.fused_patterns == 0 && result.fused_chains == 0) {
    result.graph = nullptr;  // nothing to do: caller keeps the original
    return result;
  }

  // --- rebuild (every node survives; absorbed ones fold into terminators) -
  std::vector<uint8_t> absorbed(static_cast<size_t>(n), 0);
  for (const auto& [term, p] : patterns) {
    for (int m : p.members) {
      if (m != term) absorbed[static_cast<size_t>(m)] = 1;
    }
  }
  for (const auto& [term, chain] : chain_candidates) {
    for (int m : chain.nodes) {
      if (m != term) absorbed[static_cast<size_t>(m)] = 1;
    }
  }

  auto new_graph = std::make_shared<GraphDef>();
  std::map<int, int> node_map;
  auto map_endpoint = [&](const Endpoint& e) {
    auto it = node_map.find(e.node);
    RLG_CHECK_MSG(it != node_map.end(),
                  "fusion pass ordering bug: input not yet emitted");
    return Endpoint{it->second, e.index};
  };

  for (int id = 0; id < n; ++id) {
    if (absorbed[static_cast<size_t>(id)]) continue;  // emitted at terminator
    const NodeDef& nd = graph.node(id);

    auto pit = patterns.find(id);
    if (pit != patterns.end()) {
      const Pattern& p = pit->second;
      NodeDef fused;
      fused.name = nd.name + "_fused";
      fused.op = p.op;
      fused.inputs = {map_endpoint(p.x), map_endpoint(p.w),
                      map_endpoint(p.bias)};
      fused.attrs["activation"] = p.activation;
      if (p.op == "FusedConv2D") {
        fused.attrs["stride"] = attr_int(p.core->attrs, "stride", 1);
        fused.attrs["same_padding"] =
            attr_bool(p.core->attrs, "same_padding", false);
      }
      fused.out_dtypes = nd.out_dtypes;
      fused.out_shapes = nd.out_shapes;
      fused.device = nd.device;
      int new_id = new_graph->add_node(std::move(fused));
      for (int m : p.members) node_map[m] = new_id;
      continue;
    }

    auto cit = chain_candidates.find(id);
    if (cit != chain_candidates.end()) {
      const Chain& chain = cit->second;
      const NodeDef& start = graph.node(chain.nodes.back());
      int ks = chain.kind.at(chain.nodes.back());
      Endpoint x = ks == 2 ? start.inputs[0]
                           : start.inputs[static_cast<size_t>(ks)];
      NodeDef fused;
      fused.name = nd.name + "_fused";
      fused.op = "FusedElementwise";
      fused.inputs = {map_endpoint(x)};
      std::string ops;
      for (auto rit = chain.nodes.rbegin(); rit != chain.nodes.rend(); ++rit) {
        const NodeDef& m = graph.node(*rit);
        int km = chain.kind.at(*rit);
        if (!ops.empty()) ops += ",";
        ops += m.op;
        if (km != 2) {
          ops += km == 0 ? ":l" : ":r";
          fused.inputs.push_back(
              map_endpoint(m.inputs[static_cast<size_t>(1 - km)]));
        }
      }
      fused.attrs["ops"] = ops;
      fused.out_dtypes = nd.out_dtypes;
      fused.out_shapes = nd.out_shapes;
      fused.device = nd.device;
      int new_id = new_graph->add_node(std::move(fused));
      for (int m : chain.nodes) node_map[m] = new_id;
      continue;
    }

    NodeDef copy = nd;
    copy.id = -1;
    for (Endpoint& e : copy.inputs) e = map_endpoint(e);
    for (int& c : copy.control_inputs) c = node_map.at(c);
    node_map[id] = new_graph->add_node(std::move(copy));
  }

  for (const auto& [old_id, new_id] : node_map) {
    const NodeDef& nn = new_graph->node(new_id);
    for (int i = 0; i < nn.num_outputs(); ++i) {
      result.endpoint_map[Endpoint{old_id, i}] = Endpoint{new_id, i};
    }
    if (nn.num_outputs() == 0) {
      result.endpoint_map[Endpoint{old_id, 0}] = Endpoint{new_id, 0};
    }
  }
  result.graph = std::move(new_graph);
  RLG_LOG_DEBUG << "fuse_plan_patterns: " << result.fused_patterns
                << " patterns, " << result.fused_chains << " chains, "
                << result.steps_saved << " dispatches saved";
  return result;
}

}  // namespace rlgraph
