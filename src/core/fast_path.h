// Fast-path edge contraction for define-by-run execution (paper §5.1).
//
// Dispatching a define-by-run API call through nested component API methods
// costs one indirection per edge. When the graph builder can identify that a
// call is a pure chain of graph functions (calls are edges, components are
// vertices), it contracts the edges and LOWERS the contracted program onto
// the shared CompiledPlan layer (graph/exec_plan.h): the graph-function
// bodies are replayed once through a side-effect-free build-mode tape, and
// every tape op becomes a plan step with its kernel resolved and its
// operands routed through dense value slots. Steady-state replays then run
// the exact same compiled-plan executor as the static backend's Session —
// there is no second interpreter.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "backend/op_context.h"
#include "core/component.h"
#include "graph/exec_plan.h"

namespace rlgraph {

class FastPathProgram {
 public:
  struct Source {
    int step = -1;  // -1: API input, else producing step index
    int index = 0;  // input index or step output index
  };
  struct Step {
    GraphFnBody body;
    std::vector<Source> sources;
    int num_outputs = 0;
    std::string label;  // "component-scope/fn-name" for diagnostics
  };

  bool valid() const { return valid_ && !steps_.empty(); }
  size_t num_steps() const { return steps_.size(); }

  // Executes the contracted program against fresh inputs. The first call
  // lowers the recorded steps into a CompiledPlan (one build-mode replay,
  // no stateful side effects); subsequent calls run the plan directly.
  // Safe to call concurrently: each run checks out one of the plan's arenas.
  std::vector<Tensor> run(VariableStore* variables, Rng* rng,
                          const std::vector<Tensor>& inputs) const;

  // The lowered plan (null until the first run).
  std::shared_ptr<const CompiledPlan> plan() const;

 private:
  friend class FastPathRecorder;

  // The lowered plan lives behind a shared_ptr so copies of a program share
  // one plan and, through it, its recycled arenas/buffers.
  struct ExecState {
    std::mutex mutex;
    std::shared_ptr<const CompiledPlan> plan;
  };

  std::shared_ptr<const CompiledPlan> lower(VariableStore* variables, Rng* rng,
                                            const std::vector<Tensor>& inputs)
      const;

  std::vector<Step> steps_;
  std::vector<Source> outputs_;
  size_t num_inputs_ = 0;
  bool valid_ = false;
  std::shared_ptr<ExecState> exec_ = std::make_shared<ExecState>();
};

// Records a program during one normally-dispatched define-by-run call.
class FastPathRecorder {
 public:
  void register_input(OpRef ref, int input_index);
  // Called by Component::graph_fn after the body executed.
  void record_step(const std::string& label, const GraphFnBody& body,
                   const std::vector<OpRef>& inputs,
                   const std::vector<OpRef>& outputs);
  // Mark the recording as non-contractible (e.g. a ref of unknown origin).
  void invalidate(const std::string& reason);

  FastPathProgram finish(const std::vector<OpRef>& outputs,
                         size_t num_inputs);

 private:
  bool resolve(OpRef ref, FastPathProgram::Source* out) const;

  std::map<std::pair<int, int>, FastPathProgram::Source> sources_;
  std::vector<FastPathProgram::Step> steps_;
  bool valid_ = true;
};

}  // namespace rlgraph
