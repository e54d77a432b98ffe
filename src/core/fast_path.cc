#include "core/fast_path.h"

#include "backend/imperative_context.h"
#include "util/errors.h"
#include "util/logging.h"

namespace rlgraph {

// Replays the recorded graph-function bodies ONCE through a build-mode tape
// (stateful ops fabricate their outputs, so component state is untouched),
// then converts every tape entry into a CompiledPlan step. After this the
// program has no interpreter of its own: replays run the shared plan
// executor, identical to a Session run.
std::shared_ptr<const CompiledPlan> FastPathProgram::lower(
    VariableStore* variables, Rng* rng,
    const std::vector<Tensor>& inputs) const {
  ImperativeContext lctx(variables, rng, /*build_mode=*/true);

  // Inputs are injected first, so tape ids 0..num_inputs_-1 are exactly the
  // program inputs in positional order.
  std::vector<OpRef> input_refs;
  input_refs.reserve(inputs.size());
  for (const Tensor& t : inputs) input_refs.push_back(lctx.literal(t));

  std::vector<std::vector<OpRef>> step_outputs(steps_.size());
  auto resolve = [&](const Source& s) -> OpRef {
    if (s.step < 0) return input_refs[static_cast<size_t>(s.index)];
    return step_outputs[static_cast<size_t>(s.step)]
                       [static_cast<size_t>(s.index)];
  };
  for (size_t i = 0; i < steps_.size(); ++i) {
    const Step& step = steps_[i];
    std::vector<OpRef> args;
    args.reserve(step.sources.size());
    for (const Source& s : step.sources) args.push_back(resolve(s));
    step_outputs[i] = step.body(lctx, args);
    RLG_CHECK_MSG(
        static_cast<int>(step_outputs[i].size()) == step.num_outputs,
        "fast-path step '" << step.label << "' output arity changed");
  }

  CompiledPlan::Builder builder;
  const size_t tape_size = lctx.tape_size();
  std::vector<int> base_slot(tape_size, -1);
  for (size_t id = 0; id < tape_size; ++id) {
    RefInfo info = lctx.info(static_cast<int>(id));
    if (id < num_inputs_) {
      base_slot[id] = builder.add_input();
      continue;
    }
    if (info.op == "Const") {
      base_slot[id] = builder.add_const(lctx.value({static_cast<int>(id), 0}));
      continue;
    }
    RLG_REQUIRE(info.op != "Placeholder",
                "fast-path body created a placeholder at replay time; the "
                "program cannot be lowered");
    NodeDef node;
    node.op = info.op;
    node.name = info.op;
    node.attrs = std::move(info.attrs);
    node.custom_kernel = std::move(info.custom_kernel);
    std::vector<int> input_slots;
    input_slots.reserve(info.inputs.size());
    for (const OpRef& r : info.inputs) {
      input_slots.push_back(base_slot[static_cast<size_t>(r.node)] + r.index);
    }
    base_slot[id] = builder.add_step(std::move(node), input_slots,
                                     static_cast<int>(info.outputs.size()));
  }

  std::vector<int> out_slots;
  out_slots.reserve(outputs_.size());
  for (const Source& s : outputs_) {
    OpRef ref = resolve(s);
    out_slots.push_back(base_slot[static_cast<size_t>(ref.node)] + ref.index);
  }
  builder.set_outputs(std::move(out_slots));
  std::shared_ptr<const CompiledPlan> plan = builder.finish();
  RLG_LOG_DEBUG << "fast-path lowered " << steps_.size()
                << " contracted steps to a compiled plan with "
                << plan->num_steps() << " kernel steps";
  return plan;
}

std::shared_ptr<const CompiledPlan> FastPathProgram::plan() const {
  std::lock_guard<std::mutex> lock(exec_->mutex);
  return exec_->plan;
}

std::vector<Tensor> FastPathProgram::run(
    VariableStore* variables, Rng* rng,
    const std::vector<Tensor>& inputs) const {
  RLG_REQUIRE(valid(), "fast-path program is not valid");
  RLG_REQUIRE(inputs.size() == num_inputs_,
              "fast-path program expects " << num_inputs_ << " inputs, got "
                                           << inputs.size());
  std::shared_ptr<const CompiledPlan> plan;
  {
    std::lock_guard<std::mutex> lock(exec_->mutex);
    if (!exec_->plan) exec_->plan = lower(variables, rng, inputs);
    plan = exec_->plan;
  }
  return plan->run(inputs, variables, rng);
}

void FastPathRecorder::register_input(OpRef ref, int input_index) {
  sources_[{ref.node, ref.index}] = FastPathProgram::Source{-1, input_index};
}

bool FastPathRecorder::resolve(OpRef ref,
                               FastPathProgram::Source* out) const {
  auto it = sources_.find({ref.node, ref.index});
  if (it == sources_.end()) return false;
  *out = it->second;
  return true;
}

void FastPathRecorder::record_step(const std::string& label,
                                   const GraphFnBody& body,
                                   const std::vector<OpRef>& inputs,
                                   const std::vector<OpRef>& outputs) {
  if (!valid_) return;
  FastPathProgram::Step step;
  step.label = label;
  step.body = body;
  step.num_outputs = static_cast<int>(outputs.size());
  for (const OpRef& in : inputs) {
    FastPathProgram::Source src;
    if (!resolve(in, &src)) {
      invalidate("graph function '" + label +
                 "' consumed a ref of unknown origin");
      return;
    }
    step.sources.push_back(src);
  }
  int step_index = static_cast<int>(steps_.size());
  for (size_t i = 0; i < outputs.size(); ++i) {
    sources_[{outputs[i].node, outputs[i].index}] =
        FastPathProgram::Source{step_index, static_cast<int>(i)};
  }
  steps_.push_back(std::move(step));
}

void FastPathRecorder::invalidate(const std::string& reason) {
  if (valid_) {
    RLG_LOG_DEBUG << "fast-path contraction disabled: " << reason;
  }
  valid_ = false;
}

FastPathProgram FastPathRecorder::finish(const std::vector<OpRef>& outputs,
                                         size_t num_inputs) {
  FastPathProgram program;
  program.valid_ = valid_;
  program.num_inputs_ = num_inputs;
  for (const OpRef& out : outputs) {
    FastPathProgram::Source src;
    if (!resolve(out, &src)) {
      program.valid_ = false;
      break;
    }
    program.outputs_.push_back(src);
  }
  program.steps_ = std::move(steps_);
  return program;
}

}  // namespace rlgraph
