// Figure 5b: single-threaded worker act (inference) throughput on a vector
// of Pong environments, comparing:
//   * TF RLgraph   — static-graph backend (op-registry dispatch),
//   * PT RLgraph   — define-by-run backend with fast-path edge contraction,
//   * PT RLgraph (no fast path) — ablation: full component-dispatch chain,
//   * PT hand-tuned — bare-bones imperative actor without the framework.
//
// Paper shape targets: the static backend overtakes define-by-run as the
// env vector (act batch) grows; fast-path contraction narrows the gap
// between define-by-run and hand-tuned; all overheads wash out at large
// batch where network compute dominates.
#include <cstdio>

#include "agents/dqn_agent.h"
#include "baselines/hand_tuned_actor.h"
#include "bench_common.h"
#include "env/vector_env.h"

namespace rlgraph {
namespace {

struct Row {
  std::string impl;
  int64_t envs;
  double frames_per_second;
  int64_t executor_calls;
  // Static-backend plan-cache counters (zero elsewhere).
  int64_t plan_compiles = 0;
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_evictions = 0;
  // Fused composite-kernel dispatches (MatMul+bias+activation collapsed to
  // one FusedDense step, etc.); zero when pattern fusion is off or the
  // backend is define-by-run.
  int64_t fused_dispatches = 0;
};

Row run_agent(const std::string& backend, bool fast_path, int64_t num_envs,
              double seconds) {
  Json cfg = bench::pong_agent_config();
  cfg["backend"] = Json(backend);
  cfg["fast_path"] = Json(fast_path);
  VectorEnv env(bench::pong_env_spec(), num_envs, 7);
  DQNAgent agent(cfg, env.state_space(), env.action_space());
  agent.build();

  Tensor obs = env.reset();
  // Warmup (traces the fast path on the first call).
  for (int i = 0; i < 5; ++i) {
    Tensor actions = agent.get_actions(obs);
    obs = env.step(actions).observations;
  }
  int64_t calls_before = agent.executor().execution_calls();
  int64_t frames = 0;
  Stopwatch watch;
  while (watch.elapsed_seconds() < seconds) {
    Tensor actions = agent.get_actions(obs);
    VectorStepResult r = env.step(actions);
    frames += r.env_frames;
    obs = r.observations;
  }
  std::string name =
      backend == "static"
          ? "TF RLgraph"
          : (fast_path ? "PT RLgraph (fast-path)" : "PT RLgraph (dispatch)");
  Row row{name, num_envs, frames / watch.elapsed_seconds(),
          agent.executor().execution_calls() - calls_before};
  if (Session* session = agent.executor().session()) {
    row.plan_compiles = session->plan_compiles();
    row.plan_cache_hits = session->plan_cache_hits();
    row.plan_cache_evictions = session->plan_cache_evictions();
  }
  row.fused_dispatches = agent.executor().fused_dispatches();
  return row;
}

Row run_hand_tuned(int64_t num_envs, double seconds) {
  Json cfg = bench::pong_agent_config();
  VectorEnv env(bench::pong_env_spec(), num_envs, 7);
  HandTunedActor actor(cfg.at("network"), env.state_space(),
                       env.num_actions());
  Tensor obs = env.reset();
  int64_t frames = 0;
  Stopwatch watch;
  while (watch.elapsed_seconds() < seconds) {
    Tensor actions = actor.act(obs);
    VectorStepResult r = env.step(actions);
    frames += r.env_frames;
    obs = r.observations;
  }
  return Row{"PT hand-tuned", num_envs, frames / watch.elapsed_seconds(), 0};
}

}  // namespace
}  // namespace rlgraph

int main(int argc, char** argv) {
  using namespace rlgraph;
  bench::Reporter reporter("act_throughput", argc, argv);
  bench::TraceFlag trace_flag(argc, argv);
  bench::print_header(
      "Figure 5b: worker act throughput vs. number of parallel Pong envs");
  std::vector<int64_t> env_counts{1, 2, 4, 8, 16, 32};
  double seconds = bench::bench_scale() == bench::Scale::kQuick ? 0.5 : 1.5;
  if (bench::bench_scale() == bench::Scale::kQuick) {
    env_counts = {1, 4, 16};
  }
  std::printf("%-26s %8s %14s %10s %8s %s\n", "implementation", "envs",
              "env_frames/s", "exec_calls", "fused",
              "plan compiles/hits/evict");
  for (int64_t envs : env_counts) {
    std::vector<Row> rows{
        run_agent("static", true, envs, seconds),
        run_agent("define_by_run", true, envs, seconds),
        run_agent("define_by_run", false, envs, seconds),
        run_hand_tuned(envs, seconds),
    };
    for (const Row& r : rows) {
      std::printf("%-26s %8lld %14.0f %10lld %8lld %lld/%lld/%lld\n",
                  r.impl.c_str(), static_cast<long long>(r.envs),
                  r.frames_per_second,
                  static_cast<long long>(r.executor_calls),
                  static_cast<long long>(r.fused_dispatches),
                  static_cast<long long>(r.plan_compiles),
                  static_cast<long long>(r.plan_cache_hits),
                  static_cast<long long>(r.plan_cache_evictions));
      Json params;
      params["impl"] = Json(r.impl);
      params["envs"] = Json(r.envs);
      params["exec_calls"] = Json(r.executor_calls);
      params["fused_dispatches"] = Json(r.fused_dispatches);
      params["plan_compiles"] = Json(r.plan_compiles);
      params["plan_cache_hits"] = Json(r.plan_cache_hits);
      params["plan_cache_evictions"] = Json(r.plan_cache_evictions);
      reporter.record("act_fps", r.frames_per_second, "env_frames/s",
                      std::move(params));
    }
    std::printf("\n");
  }
  return 0;
}
