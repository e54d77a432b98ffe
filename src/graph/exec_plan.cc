#include "graph/exec_plan.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <set>
#include <utility>

#include "graph/passes.h"
#include "util/errors.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace rlgraph {

// --- RunArena ---------------------------------------------------------------

RunArena::RunArena()
#ifdef NDEBUG
    : check_purity_(false)
#else
    : check_purity_(true)
#endif
{
}

void RunArena::begin_run(size_t num_slots) {
  slots_.assign(num_slots, std::nullopt);
  if (refs_capacity_ < num_slots) {
    refs_ = std::make_unique<std::atomic<int32_t>[]>(num_slots);
    refs_capacity_ = num_slots;
  }
  for (size_t i = 0; i < num_slots; ++i) {
    refs_[i].store(0, std::memory_order_relaxed);
  }
  live_.store(0, std::memory_order_relaxed);
  peak_.store(0, std::memory_order_relaxed);
}

void RunArena::put(int slot, Tensor value, int32_t refs) {
  if (refs <= 0) return;  // nothing will ever read it
  slots_[static_cast<size_t>(slot)].emplace(std::move(value));
  refs_[static_cast<size_t>(slot)].store(refs, std::memory_order_release);
  int64_t live = live_.fetch_add(1, std::memory_order_relaxed) + 1;
  int64_t peak = peak_.load(std::memory_order_relaxed);
  while (live > peak &&
         !peak_.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

const Tensor& RunArena::get(int slot) const {
  const std::optional<Tensor>& v = slots_[static_cast<size_t>(slot)];
  RLG_CHECK_MSG(v.has_value(),
                "plan slot " << slot << " read before production or after "
                             << "release (refcount bug)");
  return *v;
}

void RunArena::unref(int slot) {
  // The last consumer (acq_rel decrement) is the only thread that touches
  // the slot afterwards, so the reset below is race-free even when several
  // consumer steps finish concurrently.
  if (refs_[static_cast<size_t>(slot)].fetch_sub(
          1, std::memory_order_acq_rel) == 1) {
    slots_[static_cast<size_t>(slot)].reset();
    live_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void RunArena::end_run() {
  slots_.assign(slots_.size(), std::nullopt);
  live_.store(0, std::memory_order_relaxed);
}

// --- purity checking --------------------------------------------------------

namespace {

uint64_t fnv1a(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<uint64_t> checksum_inputs(const std::vector<Tensor>& inputs) {
  std::vector<uint64_t> sums;
  sums.reserve(inputs.size());
  for (const Tensor& t : inputs) sums.push_back(fnv1a(t.raw(), t.byte_size()));
  return sums;
}

}  // namespace

// --- compile from a GraphDef ------------------------------------------------

std::shared_ptr<CompiledPlan> CompiledPlan::compile(
    std::shared_ptr<const GraphDef> graph, const std::vector<Endpoint>& fetches,
    const std::vector<int>& feed_nodes, bool fuse_patterns) {
  RLG_REQUIRE(graph != nullptr, "CompiledPlan::compile requires a graph");
  const int n = graph->num_nodes();
  for (int id : feed_nodes) {
    RLG_REQUIRE(id >= 0 && id < n,
                "feed targets unknown node " << id);
    RLG_REQUIRE(graph->node(id).op == "Placeholder",
                "feed target '" << graph->node(id).name
                                << "' is not a placeholder");
  }
  for (const Endpoint& fetch : fetches) {
    RLG_REQUIRE(fetch.node >= 0 && fetch.node < n,
                "fetch endpoint references unknown node " << fetch.node);
  }
  if (fuse_patterns) {
    // The fused graph holds only the fetched closure and the feeds, so the
    // plan keeps alive what it runs, not a copy of the whole graph.
    PlanFusionResult fused = fuse_plan_patterns(*graph, fetches, feed_nodes);
    if (fused.graph != nullptr && fused.steps_saved > 0) {
      std::vector<Endpoint> new_fetches;
      new_fetches.reserve(fetches.size());
      for (const Endpoint& f : fetches) {
        new_fetches.push_back(fused.endpoint_map.at(f));
      }
      std::vector<int> new_feeds;
      new_feeds.reserve(feed_nodes.size());
      for (int id : feed_nodes) {
        new_feeds.push_back(fused.endpoint_map.at(Endpoint{id, 0}).node);
      }
      return compile(
          std::shared_ptr<const GraphDef>(std::move(fused.graph)), new_fetches,
          new_feeds, /*fuse_patterns=*/false);
    }
  }
  std::vector<uint8_t> fed(static_cast<size_t>(n), 0);
  for (int id : feed_nodes) fed[static_cast<size_t>(id)] = 1;

  // Iterative post-order DFS from the fetch roots over data + control deps.
  std::vector<int> schedule;
  std::vector<uint8_t> state(static_cast<size_t>(n),
                             0);  // 0=unvisited 1=on-stack 2=done
  std::vector<std::pair<int, size_t>> stack;  // (node, next-dep index)
  auto deps_of = [&](int id) {
    const NodeDef& node = graph->node(id);
    std::vector<int> deps;
    deps.reserve(node.inputs.size() + node.control_inputs.size());
    for (const Endpoint& e : node.inputs) deps.push_back(e.node);
    for (int c : node.control_inputs) deps.push_back(c);
    return deps;
  };
  for (const Endpoint& fetch : fetches) {
    if (state[static_cast<size_t>(fetch.node)] == 2) continue;
    stack.emplace_back(fetch.node, 0);
    state[static_cast<size_t>(fetch.node)] = 1;
    while (!stack.empty()) {
      auto& [id, next] = stack.back();
      std::vector<int> deps = deps_of(id);
      if (next < deps.size()) {
        int dep = deps[next++];
        uint8_t s = state[static_cast<size_t>(dep)];
        if (s == 0) {
          state[static_cast<size_t>(dep)] = 1;
          stack.emplace_back(dep, 0);
        } else {
          RLG_CHECK_MSG(s != 1, "cycle detected in graph at node "
                                    << graph->node(dep).name);
        }
      } else {
        state[static_cast<size_t>(id)] = 2;
        schedule.push_back(id);
        stack.pop_back();
      }
    }
  }

  auto plan = std::shared_ptr<CompiledPlan>(new CompiledPlan());
  plan->graph_ = graph;
  // Feeds outside the fetched subgraph get no slot; their per-run values
  // are dropped. Recorded by name so Session::run (explicit feed map, where
  // an unused feed is almost always a caller bug) can reject them, while
  // positional API calls tolerate ignored arguments.
  for (int id : feed_nodes) {
    if (state[static_cast<size_t>(id)] != 2) {
      plan->unused_feed_names_.push_back(graph->node(id).name);
    }
  }
  const OpRegistry& registry = OpRegistry::instance();

  // Dense slot layout: one slot per output of every scheduled node.
  std::vector<int> slot_base(static_cast<size_t>(n), -1);
  int next_slot = 0;
  for (int id : schedule) {
    slot_base[static_cast<size_t>(id)] = next_slot;
    next_slot += std::max(1, graph->node(id).num_outputs());
  }
  plan->num_slots_ = static_cast<size_t>(next_slot);

  std::vector<int> step_of_node(static_cast<size_t>(n), -1);
  for (int id : schedule) {
    const NodeDef& node = graph->node(id);
    if (fed[static_cast<size_t>(id)]) continue;  // value arrives per run
    if (node.op == "Const" && !node.stateful) {
      // Preload the attr tensor directly; no kernel dispatch per run.
      plan->baked_consts_.emplace_back(slot_base[static_cast<size_t>(id)],
                                       attr_tensor(node.attrs, "value"));
      continue;
    }
    const OpSchema& schema = registry.lookup(node.op);
    Step step;
    step.kernel = &schema.kernel;  // resolved once
    step.node = &node;
    step.stateful = node.stateful || schema.stateful;
    step.input_slots.reserve(node.inputs.size());
    for (const Endpoint& e : node.inputs) {
      step.input_slots.push_back(slot_base[static_cast<size_t>(e.node)] +
                                 e.index);
    }
    step.out_base = slot_base[static_cast<size_t>(id)];
    step.num_outputs = node.num_outputs();
    step_of_node[static_cast<size_t>(id)] =
        static_cast<int>(plan->steps_.size());
    if (node.op == "FusedDense" || node.op == "FusedConv2D" ||
        node.op == "FusedElementwise") {
      ++plan->fused_kernel_steps_;
    }
    plan->steps_.push_back(std::move(step));
  }

  // Control inputs are scheduling-only edges; map them onto step indices
  // for the parallel executor (a control dep on a fed/baked/unscheduled
  // node is satisfied before the first step runs).
  std::vector<std::pair<int, int>> control_edges;
  for (size_t s = 0; s < plan->steps_.size(); ++s) {
    for (int c : plan->steps_[s].node->control_inputs) {
      int from = step_of_node[static_cast<size_t>(c)];
      if (from >= 0) control_edges.emplace_back(from, static_cast<int>(s));
    }
  }

  plan->feed_slots_.reserve(feed_nodes.size());
  for (int id : feed_nodes) {
    const NodeDef& node = graph->node(id);
    plan->feed_slots_.push_back(slot_base[static_cast<size_t>(id)]);  // -1 if unused
    plan->feed_dtypes_.push_back(node.out_dtypes[0]);
    plan->feed_shapes_.push_back(node.out_shapes[0]);
    plan->feed_names_.push_back(node.name);
  }
  plan->fetch_slots_.reserve(fetches.size());
  for (const Endpoint& f : fetches) {
    plan->fetch_slots_.push_back(slot_base[static_cast<size_t>(f.node)] +
                                 f.index);
  }
  plan->finalize_schedule(control_edges);
  // Whether the leading feed dimension is a meaningful batch count: every
  // feed accepts an arbitrary leading extent AND feed 0 is actually read by
  // the fetched subgraph.
  plan->counts_batch_ = plan->feeds_batchable() && !plan->feed_slots_.empty() &&
                        plan->feed_slots_[0] >= 0;
  return plan;
}

// --- Builder (tape / fast-path lowering) ------------------------------------

int CompiledPlan::Builder::add_input() {
  int slot = num_slots_++;
  input_slots_.push_back(slot);
  ++num_inputs_;
  return slot;
}

int CompiledPlan::Builder::add_const(Tensor value) {
  int slot = num_slots_++;
  consts_.emplace_back(slot, std::move(value));
  return slot;
}

int CompiledPlan::Builder::add_step(NodeDef node,
                                    const std::vector<int>& input_slots,
                                    int num_outputs) {
  RLG_REQUIRE(num_outputs > 0, "plan step must have outputs");
  for (int s : input_slots) {
    RLG_REQUIRE(s >= 0 && s < num_slots_,
                "plan step input slot " << s << " not yet produced");
  }
  nodes_.push_back(std::move(node));
  const OpSchema& schema = OpRegistry::instance().lookup(nodes_.back().op);
  Step step;
  step.kernel = &schema.kernel;
  step.node = &nodes_.back();
  step.stateful = nodes_.back().stateful || schema.stateful;
  step.input_slots = input_slots;
  step.out_base = num_slots_;
  step.num_outputs = num_outputs;
  num_slots_ += num_outputs;
  steps_.push_back(std::move(step));
  return steps_.back().out_base;
}

void CompiledPlan::Builder::set_outputs(std::vector<int> slots) {
  for (int s : slots) {
    RLG_REQUIRE(s >= 0 && s < num_slots_, "plan output slot " << s
                                              << " was never produced");
  }
  output_slots_ = std::move(slots);
}

std::shared_ptr<CompiledPlan> CompiledPlan::Builder::finish() {
  auto plan = std::shared_ptr<CompiledPlan>(new CompiledPlan());
  plan->owned_nodes_ = std::move(nodes_);
  plan->steps_ = std::move(steps_);
  plan->baked_consts_ = std::move(consts_);
  plan->feed_slots_ = std::move(input_slots_);
  plan->fetch_slots_ = std::move(output_slots_);
  plan->num_slots_ = static_cast<size_t>(num_slots_);
  plan->finalize_schedule({});
  return plan;
}

void CompiledPlan::finalize_schedule(
    const std::vector<std::pair<int, int>>& control_edges) {
  initial_refs_.assign(num_slots_, 0);
  for (const Step& step : steps_) {
    for (int s : step.input_slots) ++initial_refs_[static_cast<size_t>(s)];
  }
  for (int s : fetch_slots_) ++initial_refs_[static_cast<size_t>(s)];

  // Inter-op dependency structure. Data edges come from the producing step
  // of each input slot; control edges are passed in; the stateful chain
  // serializes side effects (and RNG draws) in schedule order.
  std::vector<int> producer_of_slot(num_slots_, -1);
  for (size_t i = 0; i < steps_.size(); ++i) {
    for (int j = 0; j < steps_[i].num_outputs; ++j) {
      producer_of_slot[static_cast<size_t>(steps_[i].out_base + j)] =
          static_cast<int>(i);
    }
  }
  std::vector<std::set<int>> deps(steps_.size());
  for (size_t i = 0; i < steps_.size(); ++i) {
    for (int s : steps_[i].input_slots) {
      int p = producer_of_slot[static_cast<size_t>(s)];
      if (p >= 0) deps[i].insert(p);
    }
  }
  for (const auto& [from, to] : control_edges) {
    deps[static_cast<size_t>(to)].insert(from);
  }
  int prev_stateful = -1;
  for (size_t i = 0; i < steps_.size(); ++i) {
    if (!steps_[i].stateful) continue;
    if (prev_stateful >= 0) deps[i].insert(prev_stateful);
    prev_stateful = static_cast<int>(i);
  }

  initial_ready_.clear();
  for (size_t i = 0; i < steps_.size(); ++i) {
    steps_[i].successors.clear();
    steps_[i].num_deps = static_cast<int>(deps[i].size());
    if (steps_[i].num_deps == 0) initial_ready_.push_back(static_cast<int>(i));
  }
  for (size_t i = 0; i < steps_.size(); ++i) {
    for (int d : deps[i]) {
      steps_[static_cast<size_t>(d)].successors.push_back(static_cast<int>(i));
    }
  }

  // Max antichain width via levelization: the compile-time parallelism
  // bound the executor consults before paying any scheduling overhead.
  std::vector<int> level(steps_.size(), 0);
  std::vector<int> width;
  for (size_t i = 0; i < steps_.size(); ++i) {
    int lv = 0;
    for (int d : deps[i]) lv = std::max(lv, level[static_cast<size_t>(d)] + 1);
    level[i] = lv;
    if (static_cast<size_t>(lv) >= width.size()) width.resize(lv + 1, 0);
    ++width[static_cast<size_t>(lv)];
  }
  max_width_ = 1;
  for (int w : width) max_width_ = std::max(max_width_, w);
}

// --- execution --------------------------------------------------------------

std::vector<Tensor> CompiledPlan::execute(RunArena& arena,
                                          const std::vector<Tensor>& feed_values,
                                          VariableStore* variables,
                                          Rng* rng) const {
  RLG_REQUIRE(feed_values.size() == feed_slots_.size(),
              "plan expects " << feed_slots_.size() << " feed values, got "
                              << feed_values.size());
  const size_t validated =
      feed_dtypes_.empty() ? 0 : feed_values.size();  // built plans skip
  for (size_t i = 0; i < validated; ++i) {
    const Tensor& v = feed_values[i];
    // Name the declared signature (the placeholder's space) next to the
    // provided one so a bad feed is diagnosable from the message alone.
    RLG_REQUIRE(v.dtype() == feed_dtypes_[i],
                "feed for '" << feed_names_[i] << "' provides "
                             << dtype_name(v.dtype()) << v.shape().to_string()
                             << " but the feed is declared "
                             << dtype_name(feed_dtypes_[i])
                             << feed_shapes_[i].to_string());
    RLG_REQUIRE(feed_shapes_[i].matches(v.shape()),
                "feed for '" << feed_names_[i] << "' provides "
                             << dtype_name(v.dtype()) << v.shape().to_string()
                             << " but the feed is declared "
                             << dtype_name(feed_dtypes_[i])
                             << feed_shapes_[i].to_string());
  }

  trace::TraceSpan plan_span("plan", "plan/execute");
  if (plan_span.active()) {
    plan_span.set_arg("steps", static_cast<int64_t>(steps_.size()));
    if (!feed_values.empty() && feed_values[0].shape().rank() >= 1) {
      plan_span.set_arg("batch", feed_values[0].shape().dim(0));
    }
  }

  // Kernel output allocations inside this run draw from the arena's pool;
  // released intermediates recycle their buffers within the same run.
  BufferPoolScope pool_scope(&arena.pool());
  arena.begin_run(num_slots_);
  for (size_t i = 0; i < feed_values.size(); ++i) {
    if (feed_slots_[i] < 0) continue;  // feed unused by the fetched subgraph
    arena.put(feed_slots_[i], feed_values[i],
              initial_refs_[static_cast<size_t>(feed_slots_[i])]);
  }
  for (const auto& [slot, value] : baked_consts_) {
    arena.put(slot, value, initial_refs_[static_cast<size_t>(slot)]);
  }

  // Inter-op dispatch: the parallel scheduler only pays off when the step
  // DAG actually has width and the process has pool threads. max_width_ is
  // the compile-time bound, so chains (and RLGRAPH_NUM_THREADS=1) take the
  // zero-overhead serial loop.
  if (max_width_ > 1 && steps_.size() >= 4 && global_parallelism() > 1) {
    execute_parallel(arena, variables, rng);
  } else {
    execute_serial(arena, variables, rng);
  }

  std::vector<Tensor> fetched;
  fetched.reserve(fetch_slots_.size());
  for (int slot : fetch_slots_) fetched.push_back(arena.get(slot));
  arena.end_run();

  counters_.runs.fetch_add(1, std::memory_order_relaxed);
  counters_.nodes_executed.fetch_add(static_cast<int64_t>(steps_.size()),
                                     std::memory_order_relaxed);
  if (fused_kernel_steps_ > 0) {
    counters_.fused_dispatches.fetch_add(fused_kernel_steps_,
                                         std::memory_order_relaxed);
  }
  // A "batch" is the leading extent of feed 0, but only when the plan's
  // signature makes that a batch dimension and the feed actually reaches
  // the fetched subgraph; everything else (scalar feeds, feed-less plans,
  // unused feed 0) counts as one logical element per run.
  int64_t batch = 1;
  if (counts_batch_ && !feed_values.empty() &&
      feed_values[0].shape().rank() >= 1) {
    batch = feed_values[0].shape().dim(0);
  }
  counters_.batch_elements.fetch_add(batch, std::memory_order_relaxed);
  return fetched;
}

bool CompiledPlan::feeds_batchable() const {
  if (feed_shapes_.size() != feed_slots_.size()) return false;  // built plan
  if (feed_shapes_.empty()) return false;
  for (const Shape& s : feed_shapes_) {
    if (s.rank() < 1 || s.dim(0) != kUnknownDim) return false;
  }
  return true;
}

void CompiledPlan::run_step(const Step& step, KernelContext& ctx,
                            RunArena& arena, bool check_purity) const {
  trace::TraceSpan kernel_span("kernel", step.node->op);
  ctx.node = step.node;
  ctx.inputs.clear();
  ctx.inputs.reserve(step.input_slots.size());
  for (int slot : step.input_slots) ctx.inputs.push_back(arena.get(slot));

  std::vector<uint64_t> sums;
  if (check_purity) sums = checksum_inputs(ctx.inputs);

  std::vector<Tensor> out = (*step.kernel)(ctx);

  if (kernel_span.active()) {
    kernel_span.set_detail(
        step.node->name +
        (out.empty() ? std::string() : " -> " + out[0].shape().to_string()));
  }

  if (check_purity) {
    std::vector<uint64_t> after = checksum_inputs(ctx.inputs);
    for (size_t i = 0; i < sums.size(); ++i) {
      RLG_CHECK_MSG(sums[i] == after[i],
                    "kernel for op '" << step.node->op << "' (node '"
                                      << step.node->name << "') mutated input "
                                      << i
                                      << "; in-place writes corrupt shared/"
                                         "pooled buffers");
    }
  }

  RLG_CHECK_MSG(static_cast<int>(out.size()) == step.num_outputs,
                "op " << step.node->op << " produced " << out.size()
                      << " outputs, plan expects " << step.num_outputs);
  for (int j = 0; j < step.num_outputs; ++j) {
    arena.put(step.out_base + j, std::move(out[static_cast<size_t>(j)]),
              initial_refs_[static_cast<size_t>(step.out_base + j)]);
  }
  for (int slot : step.input_slots) arena.unref(slot);
  // Release the input handles now, not on the next step's clear(), so a
  // dead slot's buffer returns to the pool before the next step allocates.
  ctx.inputs.clear();
}

void CompiledPlan::execute_serial(RunArena& arena, VariableStore* variables,
                                  Rng* rng) const {
  const bool check_purity = arena.check_kernel_purity();
  KernelContext ctx;  // reused across steps: one inputs allocation per run
  ctx.variables = variables;
  ctx.rng = rng;
  for (const Step& step : steps_) run_step(step, ctx, arena, check_purity);
}

// Shared state of one parallel plan run. Pool helpers hold it via
// shared_ptr: a helper scheduled late (after the run completed or failed)
// locks the mutex, sees no ready work, and returns without touching the
// arena — so the caller can safely reuse the arena for the next run.
struct CompiledPlan::Scheduler {
  const CompiledPlan* plan;
  RunArena* arena;
  VariableStore* variables;
  Rng* rng;
  BufferPool* pool;
  bool check_purity;

  // Per-step dependency counters; finishing predecessors race on these
  // without the mutex (atomic decrement), only ready-list pushes lock.
  std::vector<std::atomic<int>> deps;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<int> ready;
  size_t remaining;
  int executing = 0;
  std::exception_ptr error;  // first failure wins

  Scheduler(const CompiledPlan* p, RunArena* a, VariableStore* v, Rng* r)
      : plan(p),
        arena(a),
        variables(v),
        rng(r),
        pool(&a->pool()),
        check_purity(a->check_kernel_purity()),
        deps(p->steps_.size()),
        remaining(p->steps_.size()) {
    for (size_t i = 0; i < p->steps_.size(); ++i) {
      deps[i].store(p->steps_[i].num_deps, std::memory_order_relaxed);
    }
    ready = p->initial_ready_;
  }

  // Run ready steps until none remain (or the run failed). Called by the
  // submitting thread and by pool helper tasks; `self` lets a drain spawn
  // additional helpers when one finished step unblocks several successors.
  void drain(const std::shared_ptr<Scheduler>& self) {
    std::unique_lock<std::mutex> lock(mutex);
    while (!error && !ready.empty()) {
      int idx = ready.back();
      ready.pop_back();
      ++executing;
      lock.unlock();

      std::exception_ptr err;
      std::vector<int> fresh;  // successors this step unblocked
      try {
        // Helpers run on pool threads whose thread-local pool binding is
        // whatever ran there last; rebind to this run's arena pool.
        BufferPoolScope scope(pool);
        KernelContext ctx;
        ctx.variables = variables;
        ctx.rng = rng;
        plan->run_step(plan->steps_[static_cast<size_t>(idx)], ctx, *arena,
                       check_purity);
      } catch (...) {
        err = std::current_exception();
      }
      if (!err) {
        for (int succ : plan->steps_[static_cast<size_t>(idx)].successors) {
          if (deps[static_cast<size_t>(succ)].fetch_sub(
                  1, std::memory_order_acq_rel) == 1) {
            fresh.push_back(succ);
          }
        }
      }

      size_t spawn = 0;
      lock.lock();
      --executing;
      if (err) {
        if (!error) error = err;
      } else {
        --remaining;
        for (int f : fresh) ready.push_back(f);
        // This thread continues with one ready step; extra ones need
        // helpers (over-posting is harmless: an idle helper exits fast).
        if (fresh.size() > 1) spawn = fresh.size() - 1;
      }
      if ((remaining == 0 || error) && executing == 0) cv.notify_all();
      if (spawn > 0) {
        lock.unlock();
        ThreadPool& pool_threads = global_pool();
        spawn = std::min(spawn, pool_threads.size());
        for (size_t i = 0; i < spawn; ++i) {
          pool_threads.post([self] { self->drain(self); });
        }
        lock.lock();
      }
    }
  }
};

void CompiledPlan::execute_parallel(RunArena& arena, VariableStore* variables,
                                    Rng* rng) const {
  auto sched = std::make_shared<Scheduler>(this, &arena, variables, rng);
  ThreadPool& pool = global_pool();
  const size_t helpers = std::min(
      pool.size(),
      sched->ready.size() > 1 ? sched->ready.size() - 1 : size_t{0});
  for (size_t i = 0; i < helpers; ++i) {
    pool.post([sched] { sched->drain(sched); });
  }
  sched->drain(sched);  // the caller participates: never waits on idle workers

  std::unique_lock<std::mutex> lock(sched->mutex);
  sched->cv.wait(lock, [&] {
    return (sched->remaining == 0 || sched->error) && sched->executing == 0;
  });
  if (sched->error) std::rethrow_exception(sched->error);
}

}  // namespace rlgraph
