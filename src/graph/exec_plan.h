// Compiled execution plans: the one executable-graph layer shared by the
// Session (static backend) and the fast-path (define-by-run backend).
//
// The paper's build process amortizes per-call overhead into a one-time
// compilation step. A CompiledPlan is that step's output: every scheduled
// node's kernel is resolved to a function pointer once, the dependency
// structure is flattened into dense value-slot indices (no per-run maps or
// registry lookups), and per-slot last-use refcounts let intermediates be
// released eagerly. Steady-state execution walks a flat step array against a
// reusable RunArena whose buffer pool recycles tensor storage, so a run does
// zero schedule work and minimal allocation.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph_def.h"
#include "graph/op_schema.h"
#include "tensor/buffer_pool.h"

namespace rlgraph {

// Reusable per-run state for one plan: the dense value-slot table, live
// refcounts, and the buffer pool serving kernel allocations. An arena is
// used by at most one run at a time (Session keeps a small pool per plan),
// but within that run the parallel inter-op scheduler may produce/consume
// slots from several pool threads: refcounts are atomic, and distinct slots
// are only ever touched by the steps that the dependency edges order.
class RunArena {
 public:
  RunArena();

  BufferPool& pool() { return pool_; }

  void begin_run(size_t num_slots);
  // Store a produced value. refs == 0 drops the value immediately (an
  // output nothing consumes); the slot still counts toward the peak.
  void put(int slot, Tensor value, int32_t refs);
  const Tensor& get(int slot) const;
  // Consume one reference; the slot's tensor is released at zero so its
  // buffer can return to the pool mid-run.
  void unref(int slot);
  void end_run();

  int64_t live_slots() const { return live_.load(std::memory_order_relaxed); }
  // High-water mark of simultaneously live slots in the most recent
  // (or current) run — what the eager-release tests assert on.
  int64_t peak_live_slots() const {
    return peak_.load(std::memory_order_relaxed);
  }

  // Debug invariant: verify kernels never mutate their input tensors (a
  // mutated input would silently corrupt pooled/shared buffers). Defaults
  // to on in debug builds (NDEBUG not defined), off otherwise.
  void set_check_kernel_purity(bool on) { check_purity_ = on; }
  bool check_kernel_purity() const { return check_purity_; }

 private:
  std::vector<std::optional<Tensor>> slots_;
  std::unique_ptr<std::atomic<int32_t>[]> refs_;
  size_t refs_capacity_ = 0;
  std::atomic<int64_t> live_{0};
  std::atomic<int64_t> peak_{0};
  bool check_purity_;
  BufferPool pool_;
};

class CompiledPlan {
 public:
  struct Step {
    const KernelFn* kernel = nullptr;  // resolved once at compile time
    const NodeDef* node = nullptr;     // attrs/name for the KernelContext
    std::vector<int> input_slots;
    int out_base = 0;
    int num_outputs = 0;
    // Stateful steps (variable reads/writes, RNG, component state) execute
    // in schedule order even under the parallel scheduler: each one carries
    // an implicit edge from its predecessor in the stateful chain, which
    // both serializes side effects and pins the RNG consumption order.
    bool stateful = false;
    // Inter-op scheduling, precomputed at compile time: the steps this one
    // unblocks, and how many predecessor steps must finish first.
    std::vector<int> successors;
    int num_deps = 0;
  };

  struct Counters {
    std::atomic<int64_t> runs{0};
    std::atomic<int64_t> nodes_executed{0};
    // Sum of the leading feed dimension over all runs (a feed-less or
    // scalar-fed run counts 1): total logical elements served through this
    // plan — runs with a varying dynamic batch divide this by `runs` for
    // the mean effective batch size. Only counted when the plan is
    // batchable and feed 0 is actually consumed by the fetched subgraph.
    std::atomic<int64_t> batch_elements{0};
    // Fused-composite kernel dispatches (FusedDense / FusedConv2D /
    // FusedElementwise steps) accumulated over all runs.
    std::atomic<int64_t> fused_dispatches{0};
  };

  // Compile the transitive closure of `fetches` over `graph`. `feed_nodes`
  // lists the placeholder nodes whose values arrive per run (in the
  // positional order execute() expects). Throws ValueError if a feed
  // targets a non-placeholder node. A feed outside the fetched subgraph is
  // tolerated (its value is dropped; APIs may legitimately ignore an
  // argument) but recorded in unused_feed_names() so callers that consider
  // it a bug — Session::run with an explicit feed map — can reject it.
  //
  // With `fuse_patterns` set, fuse_plan_patterns() runs over the fetched
  // closure first; when it matches (inference-only closures), compilation
  // proceeds on the rewritten graph with fetches/feeds remapped, so the
  // plan dispatches the fused composite kernels instead of the op-per-node
  // sequence. Fetched values are bitwise identical either way. The
  // rewritten graph the plan then owns is closure-local: the fetched
  // closure plus the feed placeholders (unused feeds stay tolerated), never
  // a copy of the whole input graph. Unfused plans share the input graph.
  static std::shared_ptr<CompiledPlan> compile(
      std::shared_ptr<const GraphDef> graph,
      const std::vector<Endpoint>& fetches, const std::vector<int>& feed_nodes,
      bool fuse_patterns = false);

  // Assembles a plan directly from lowered steps (the fast-path recorder's
  // route into this layer; also used by tests).
  class Builder {
   public:
    // Next positional plan input; returns its slot.
    int add_input();
    // A constant preloaded into its slot each run (shared handle, no
    // kernel call). Returns the slot.
    int add_const(Tensor value);
    // A step running `node.op`'s registered kernel (or the node's custom
    // kernel via the CustomStateful schema). Returns the base output slot.
    int add_step(NodeDef node, const std::vector<int>& input_slots,
                 int num_outputs);
    void set_outputs(std::vector<int> slots);
    std::shared_ptr<CompiledPlan> finish();

   private:
    friend class CompiledPlan;
    int num_slots_ = 0;
    int num_inputs_ = 0;
    std::deque<NodeDef> nodes_;  // stable addresses for Step::node
    std::vector<Step> steps_;
    std::vector<std::pair<int, Tensor>> consts_;
    std::vector<int> input_slots_;
    std::vector<int> output_slots_;
  };

  // Run the plan. `feed_values` are positional (feed_nodes order for
  // graph-compiled plans, add_input order for built plans). Per-run feed
  // dtype/shape validation happens here; a scheduled placeholder that was
  // not fed throws when its kernel executes.
  std::vector<Tensor> execute(RunArena& arena,
                              const std::vector<Tensor>& feed_values,
                              VariableStore* variables, Rng* rng) const;

  size_t num_steps() const { return steps_.size(); }
  size_t num_slots() const { return num_slots_; }
  // Widest antichain of the step DAG (1 = a pure chain): the compile-time
  // bound on inter-op parallelism. execute() stays on the serial path when
  // it is 1 or the process runs with RLGRAPH_NUM_THREADS=1.
  int max_parallel_width() const { return max_width_; }
  size_t num_feeds() const { return feed_slots_.size(); }
  size_t num_outputs() const { return fetch_slots_.size(); }
  // True iff every feed placeholder accepts any leading extent (rank >= 1
  // with an unknown first dim): one cached schedule then serves every
  // request batch size, which is what the serving batcher relies on when it
  // coalesces requests along the leading dimension. Conservatively false
  // for Builder-assembled plans, which carry no feed signatures.
  bool feeds_batchable() const;
  // Feed placeholders not reachable from the fetches (values are dropped).
  const std::vector<std::string>& unused_feed_names() const {
    return unused_feed_names_;
  }
  const Counters& counters() const { return counters_; }
  // Nodes of the graph this plan keeps alive (0 for Builder-assembled
  // plans, which own only their steps' nodes).
  size_t graph_num_nodes() const {
    return graph_ != nullptr ? static_cast<size_t>(graph_->num_nodes()) : 0;
  }
  // Steps dispatching a fused composite kernel (0 for unfused plans).
  int fused_kernel_steps() const { return fused_kernel_steps_; }

 private:
  CompiledPlan() = default;

  struct Scheduler;

  // Shared by compile()/Builder::finish(): compute per-slot refcounts from
  // step inputs + fetches, then the inter-op dependency structure
  // (successor lists, dep counts, stateful chain, max width).
  // `control_edges` carries extra (from_step, to_step) scheduling-only
  // edges — graph control inputs — that are not visible in input_slots.
  void finalize_schedule(
      const std::vector<std::pair<int, int>>& control_edges);

  // Execute one step against the arena (kernel call, purity check, output
  // placement, input unref). `ctx` is caller-owned scratch (variables/rng
  // preset) so the serial loop reuses one allocation. Thread-safe across
  // distinct steps when each thread brings its own ctx.
  void run_step(const Step& step, KernelContext& ctx, RunArena& arena,
                bool check_purity) const;

  void execute_serial(RunArena& arena, VariableStore* variables,
                      Rng* rng) const;
  void execute_parallel(RunArena& arena, VariableStore* variables,
                        Rng* rng) const;

  std::shared_ptr<const GraphDef> graph_;  // keeps Step::node alive
  std::deque<NodeDef> owned_nodes_;        // Builder-made plans own theirs
  std::vector<Step> steps_;
  std::vector<std::pair<int, Tensor>> baked_consts_;
  std::vector<int> feed_slots_;
  // Expected feed signatures (graph-compiled plans; empty for built plans).
  std::vector<DType> feed_dtypes_;
  std::vector<Shape> feed_shapes_;
  std::vector<std::string> feed_names_;
  std::vector<std::string> unused_feed_names_;
  std::vector<int> fetch_slots_;
  std::vector<int32_t> initial_refs_;
  std::vector<int> initial_ready_;  // steps with num_deps == 0
  int max_width_ = 1;
  size_t num_slots_ = 0;
  int fused_kernel_steps_ = 0;
  // Whether the leading dim of feed 0 is a batch count worth accumulating
  // into Counters::batch_elements (decided at compile time).
  bool counts_batch_ = false;
  mutable Counters counters_;
};

}  // namespace rlgraph
