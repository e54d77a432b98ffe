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

// Nodes reachable from `roots` over data + control deps, in ascending id
// order — a topological order, since a node's inputs always precede it.
// Marks them in `live` (sized to the graph). `expand(id)` says whether the
// walk continues past a node into its deps.
template <typename Expand>
std::vector<int> reachable(const GraphDef& graph,
                           const std::vector<Endpoint>& roots,
                           std::vector<uint8_t>& live, Expand expand) {
  std::vector<int> order;
  auto visit = [&](int id) {
    if (!live[static_cast<size_t>(id)]) {
      live[static_cast<size_t>(id)] = 1;
      order.push_back(id);
    }
  };
  for (const Endpoint& r : roots) visit(r.node);
  for (size_t i = 0; i < order.size(); ++i) {
    int id = order[i];
    if (!expand(id)) continue;
    const NodeDef& nd = graph.node(id);
    for (const Endpoint& e : nd.inputs) visit(e.node);
    for (int c : nd.control_inputs) visit(c);
  }
  std::sort(order.begin(), order.end());
  return order;
}

// Endpoint map of a rebuild: every output of each emitted node (old id ->
// new id in `node_map`). Zero-output nodes (control-only roots) stay
// addressable as output 0.
std::map<Endpoint, Endpoint> emitted_endpoints(
    const std::vector<int>& emitted, const std::vector<int>& node_map,
    const GraphDef& new_graph) {
  std::map<Endpoint, Endpoint> endpoint_map;
  for (int old_id : emitted) {
    int new_id = node_map[static_cast<size_t>(old_id)];
    int outputs = std::max(1, new_graph.node(new_id).num_outputs());
    for (int i = 0; i < outputs; ++i) {
      endpoint_map[Endpoint{old_id, i}] = Endpoint{new_id, i};
    }
  }
  return endpoint_map;
}

}  // namespace

OptimizeResult optimize_graph(const GraphDef& graph,
                              const std::vector<Endpoint>& roots) {
  OptimizeResult result;
  result.nodes_before = graph.num_nodes();
  const size_t n = static_cast<size_t>(graph.num_nodes());
  const OpRegistry& registry = OpRegistry::instance();

  // --- fold, decided on the input graph over the nodes the roots reach ----
  // A stateless single-output node whose data inputs are all constants
  // (original Consts or nodes folded earlier in this walk) and that has no
  // control inputs evaluates once here and becomes a Const.
  std::vector<uint8_t> reached(n, 0);
  std::map<int, Tensor> folded;  // node id -> folded value
  auto const_value = [&](int id) -> const Tensor* {
    auto it = folded.find(id);
    if (it != folded.end()) return &it->second;
    const NodeDef& src = graph.node(id);
    return src.op == "Const" ? &attr_tensor(src.attrs, "value") : nullptr;
  };
  for (int id : reachable(graph, roots, reached, [](int) { return true; })) {
    const NodeDef& nd = graph.node(id);
    const OpSchema& schema = registry.lookup(nd.op);
    if (schema.stateful || nd.op == "Const" || nd.op == "Placeholder" ||
        !nd.control_inputs.empty() || nd.inputs.empty()) {
      continue;
    }
    KernelContext ctx;
    ctx.node = &nd;
    ctx.inputs.reserve(nd.inputs.size());
    for (const Endpoint& e : nd.inputs) {
      const Tensor* value = const_value(e.node);
      if (value == nullptr) break;
      ctx.inputs.push_back(*value);
    }
    if (ctx.inputs.size() != nd.inputs.size()) continue;
    std::vector<Tensor> values = schema.kernel(ctx);
    // Multi-output folding would need one Const per output; fold only
    // single-output nodes to keep the endpoint map simple.
    if (values.size() == 1) folded.emplace(id, std::move(values[0]));
  }
  result.folded = static_cast<int>(folded.size());

  // --- liveness on the folded view: a folded node reads no inputs ---------
  std::vector<uint8_t> live(n, 0);
  const std::vector<int> order = reachable(
      graph, roots, live, [&](int id) { return folded.count(id) == 0; });

  // --- emit once --------------------------------------------------------------
  auto new_graph = std::make_shared<GraphDef>();
  std::vector<int> node_map(n, -1);  // old id -> new id
  for (int id : order) {
    const NodeDef& nd = graph.node(id);
    auto fit = folded.find(id);
    if (fit != folded.end()) {
      NodeDef cn;
      cn.name = nd.name + "_folded";
      cn.op = "Const";
      cn.out_dtypes = {fit->second.dtype()};
      cn.out_shapes = {fit->second.shape()};
      cn.attrs["value"] = std::move(fit->second);
      cn.device = nd.device;
      node_map[static_cast<size_t>(id)] = new_graph->add_node(std::move(cn));
      continue;
    }
    NodeDef copy = nd;
    copy.id = -1;
    for (Endpoint& e : copy.inputs) {
      e.node = node_map[static_cast<size_t>(e.node)];
    }
    for (int& c : copy.control_inputs) c = node_map[static_cast<size_t>(c)];
    node_map[static_cast<size_t>(id)] = new_graph->add_node(std::move(copy));
  }

  result.endpoint_map = emitted_endpoints(order, node_map, *new_graph);
  result.graph = std::move(new_graph);
  result.nodes_after = result.graph->num_nodes();
  RLG_LOG_DEBUG << "optimize_graph: " << result.nodes_before << " -> "
                << result.nodes_after << " nodes (" << result.folded
                << " folded)";
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
                                    const std::vector<Endpoint>& keep,
                                    const std::vector<int>& feeds) {
  PlanFusionResult result;
  const size_t n = static_cast<size_t>(graph.num_nodes());
  const OpRegistry& registry = OpRegistry::instance();

  // --- closure of `keep` over data + control deps ------------------------
  // Everything below walks `closure` only: nodes outside it never run in
  // this plan, so they neither block a match nor get emitted.
  std::vector<uint8_t> live(n, 0);
  const std::vector<int> closure =
      reachable(graph, keep, live, [](int) { return true; });
  std::vector<uint8_t> kept(n, 0);
  for (const Endpoint& k : keep) kept[static_cast<size_t>(k.node)] = 1;

  // --- gate: inference plans only ----------------------------------------
  // A closure containing any state writer or RNG draw is a training/acting
  // plan; decline so autodiff-expanded graphs keep their unfused nodes.
  for (int id : closure) {
    const NodeDef& nd = graph.node(id);
    bool stateful =
        nd.stateful || (registry.contains(nd.op) && registry.lookup(nd.op).stateful);
    if (stateful && nd.op != "Variable") return result;  // graph stays null
  }

  // --- consumer structure within the closure -----------------------------
  std::vector<int> consumers(n, 0);
  std::vector<int> last_consumer(n, -1);
  std::vector<int> control_consumers(n, 0);
  for (int id : closure) {
    const NodeDef& nd = graph.node(id);
    for (const Endpoint& e : nd.inputs) {
      ++consumers[static_cast<size_t>(e.node)];
      last_consumer[static_cast<size_t>(e.node)] = id;
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
           !kept[static_cast<size_t>(id)];
  };

  std::vector<uint8_t> claimed(n, 0);

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

  for (int id : closure) {
    if (claimed[static_cast<size_t>(id)]) continue;
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
  for (int id : closure) {
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

  // --- rebuild: the closure plus the plan's feeds; absorbed nodes fold
  // into their terminators ----------------------------------------------------
  std::vector<uint8_t> absorbed(n, 0);
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
  // Feed placeholders the closure does not read are emitted too, so the
  // plan can still accept (and drop) their values.
  std::vector<int> emitted = closure;
  for (int f : feeds) {
    RLG_REQUIRE(f >= 0 && static_cast<size_t>(f) < n,
                "feed targets unknown node " << f);
    if (!live[static_cast<size_t>(f)]) {
      live[static_cast<size_t>(f)] = 1;
      emitted.push_back(f);
    }
  }
  std::sort(emitted.begin(), emitted.end());

  auto new_graph = std::make_shared<GraphDef>();
  std::vector<int> node_map(n, -1);  // old id -> new id
  auto map_endpoint = [&](const Endpoint& e) {
    return Endpoint{node_map[static_cast<size_t>(e.node)], e.index};
  };

  for (int id : emitted) {
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
      for (int m : p.members) node_map[static_cast<size_t>(m)] = new_id;
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
      for (int m : chain.nodes) node_map[static_cast<size_t>(m)] = new_id;
      continue;
    }

    NodeDef copy = nd;
    copy.id = -1;
    for (Endpoint& e : copy.inputs) e = map_endpoint(e);
    for (int& c : copy.control_inputs) c = node_map[static_cast<size_t>(c)];
    node_map[static_cast<size_t>(id)] = new_graph->add_node(std::move(copy));
  }

  result.endpoint_map = emitted_endpoints(emitted, node_map, *new_graph);
  result.graph = std::move(new_graph);
  RLG_LOG_DEBUG << "fuse_plan_patterns: " << result.fused_patterns
                << " patterns, " << result.fused_chains << " chains, "
                << result.steps_saved << " dispatches saved";
  return result;
}

}  // namespace rlgraph
