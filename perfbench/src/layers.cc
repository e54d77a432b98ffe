// The traced run: per-layer metrics for every src/ module, measured from
// this file around calls into each module's public functions (each call in
// a trace::TraceSpan, numbers from exact per-call records), plus the
// tracing overhead on the named workload.
//
// The suite is the same for every workload, so each traced run reports
// every per-layer metric. Layers are measured in isolation (env, agents,
// core/graph/tensor counters, replay shard, raylite, apex worker) or inside
// short traced runs of the workload rigs (apex, impala, serve phases).
#include <algorithm>
#include <cmath>
#include <numeric>

#include "baselines/hand_tuned_actor.h"
#include "execution/impala_pipeline.h"
#include "raylite/actor.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

using namespace rlgraph;

namespace {

double mean_of(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

// Budget of one isolated layer measurement.
constexpr double kLayerS = 0.5;

// The workload's main end-to-end value for a short window, as the untraced
// run defines it (env frames/s, or p50 latency for serving).
double main_value(const std::string& workload, uint64_t seed, double window_s) {
  if (workload == "act_pong") {
    auto rig = make_act_rig(seed);
    int64_t frames = 0;
    for (int i = 0; i < 200; ++i) act_step(*rig, &frames);
    frames = 0;
    const auto start = Clock::now();
    while (seconds_since(start) < window_s) act_step(*rig, &frames);
    return static_cast<double>(frames) / seconds_since(start);
  }
  if (workload == "apex_pong") return run_apex_window(seed, window_s).env_fps;
  if (workload == "impala_dmlab") {
    return run_impala_window(seed, window_s, nullptr).env_fps;
  }
  const bool high = workload == "serve_high";
  Result scratch;
  ServeRun run = run_serve_phases(seed, high ? 0.0 : window_s,
                                  high ? window_s : 0.0, nullptr, &scratch);
  return median(run.phase[high ? 1 : 0].latency_ms);
}

void env_layer(uint64_t seed, Result* out) {
  auto step_us = [&](const Json& spec) {
    VectorEnv env(spec, 1, seed);
    env.reset();
    const Tensor action = Tensor::from_ints(Shape{1}, {1});
    CallTimer t("env/step");
    repeat_for(kLayerS, 100, [&] { t.time([&] { env.step(action); }); });
    return t.median_us();
  };
  out->set("env.pong_step_us", step_us(pong_env_spec()), "us");
  out->set("env.dmlab_step_us", step_us(dmlab_env_spec()), "us");
}

// Act rig layers: agent call times and the core/graph/tensor counters of
// the steady act loop.
void act_layers(uint64_t seed, Result* out) {
  std::vector<double> build_ms, first_ms;
  std::unique_ptr<VectorEnv> env;
  std::unique_ptr<DQNAgent> agent;
  for (int i = 0; i < 3; ++i) {
    env = std::make_unique<VectorEnv>(pong_env_spec(), 1, seed);
    Json cfg = pong_agent_config();
    cfg["backend"] = Json("static");
    cfg["seed"] = Json(static_cast<int64_t>(seed));
    agent = std::make_unique<DQNAgent>(cfg, env->state_space(),
                                       env->action_space());
    CallTimer build("core/build");
    build.time([&] { agent->build(); });
    build_ms.push_back(build.median_us() / 1000.0);
    CallTimer first("graph/first_call");
    Tensor obs = env->reset();
    first.time([&] { return agent->get_actions(obs); });
    first_ms.push_back(first.median_us() / 1000.0);
  }
  out->set("core.build_ms", median(build_ms), "ms");
  out->set("graph.first_call_ms", median(first_ms), "ms");

  Tensor obs = env->reset();
  for (int i = 0; i < 200; ++i) {
    obs = env->step(agent->get_actions(obs)).observations;
  }
  Session* session = agent->executor().session();
  const int64_t calls0 = agent->executor().execution_calls();
  const int64_t runs0 = session->num_runs();
  const int64_t nodes0 = session->nodes_executed();
  const int64_t compiles0 = session->plan_compiles();
  const int64_t hits0 = session->plan_cache_hits();
  const int64_t fused0 = session->fused_dispatches();
  const int64_t reused0 = session->bytes_reused();
  int64_t frames = 0;
  CallTimer act("agents/get_actions");
  repeat_for(2 * kLayerS, 100, [&] {
    Tensor actions = act.time([&] { return agent->get_actions(obs); });
    VectorStepResult r = env->step(actions);
    frames += r.env_frames;
    obs = std::move(r.observations);
  });
  const double runs =
      std::max<double>(1.0, static_cast<double>(session->num_runs() - runs0));
  out->set("agents.get_actions_us", act.median_us(), "us");
  out->set("agents.get_actions_p99_us", act.quantile_us(0.99), "us");
  out->set("core.exec_calls_per_frame",
           static_cast<double>(agent->executor().execution_calls() - calls0) /
               static_cast<double>(frames),
           "count");
  out->set("graph.nodes_per_run",
           static_cast<double>(session->nodes_executed() - nodes0) / runs,
           "count");
  out->set("graph.fused_dispatches_per_run",
           static_cast<double>(session->fused_dispatches() - fused0) / runs,
           "count");
  out->set("graph.steady_plan_compiles",
           static_cast<double>(session->plan_compiles() - compiles0), "count");
  out->set("graph.plan_cache_hits",
           static_cast<double>(session->plan_cache_hits() - hits0), "count");
  out->set("tensor.bytes_reused_per_run",
           static_cast<double>(session->bytes_reused() - reused0) / runs,
           "B");
}

// Hand-tuned actor against the RLgraph act loop on the same net and env,
// back to back with tracing off.
void baseline_layer(uint64_t seed, Result* out) {
  VectorEnv env(pong_env_spec(), 1, seed);
  HandTunedActor actor(pong_agent_config().at("network"), env.state_space(),
                       env.num_actions());
  Tensor obs = env.reset();
  int64_t frames = 0;
  const auto start = Clock::now();
  while (seconds_since(start) < 2 * kLayerS) {
    VectorStepResult r = env.step(actor.act(obs));
    frames += r.env_frames;
    obs = std::move(r.observations);
  }
  const double hand_fps = static_cast<double>(frames) / seconds_since(start);
  const double rl_fps = main_value("act_pong", seed, 2 * kLayerS);
  out->set("baselines.hand_tuned_env_fps", hand_fps, "1/s");
  out->set("baselines.framework_share", 1.0 - rl_fps / hand_fps, "ratio");
}

// Ape-X pieces in isolation: one sampler worker, one replay shard and a
// learner agent on the apex_pong config.
void apex_isolated_layers(uint64_t seed, Result* out) {
  ApexConfig cfg;
  cfg.agent_config = pong_agent_config();
  cfg.env_spec = pong_env_spec();
  cfg.envs_per_worker = 4;
  cfg.seed = seed;
  auto probe = make_environment(cfg.env_spec);
  cfg.state_space = probe->state_space();
  cfg.action_space = probe->action_space();
  cfg.preprocessed_space_ = preprocessed_space(
      cfg.agent_config.get("preprocessor"), cfg.state_space);

  ApexWorker worker(cfg, 0);
  ReplayShard shard(cfg, 0);
  Json lcfg = cfg.agent_config;
  lcfg["seed"] = Json(static_cast<int64_t>(seed + 77));
  lcfg["memory"]["capacity"] = Json(static_cast<int64_t>(16));
  DQNAgent learner(lcfg, cfg.state_space, cfg.action_space);
  learner.build();

  CallTimer sample("execution/apex_worker_sample");
  CallTimer insert("components/replay_insert");
  std::vector<SampleBatch> batches;
  repeat_for(kLayerS, 5, [&] {
    batches.push_back(sample.time([&] {
      return worker.sample(cfg.worker_sample_size);
    }));
  });
  for (const SampleBatch& b : batches) insert.time([&] { shard.insert(b); });

  CallTimer draw("components/replay_sample");
  CallTimer update("agents/dqn_update");
  CallTimer priorities("components/replay_update_priorities");
  bool finite = true;
  repeat_for(kLayerS, 20, [&] {
    std::vector<Tensor> b =
        draw.time([&] { return shard.sample(cfg.learner_batch); });
    auto [loss, td] = update.time([&] {
      return learner.update_from_batch(b[0], b[1], b[2], b[3], b[4], b[6]);
    });
    finite = finite && std::isfinite(loss);
    priorities.time([&] { shard.update_priorities(b[5], td); });
  });
  out->check(finite, "layers: non-finite DQN learner loss");

  CallTimer get_w("agents/get_weights");
  CallTimer set_w("agents/set_weights");
  repeat_for(kLayerS / 2, 20, [&] {
    auto w = get_w.time([&] { return learner.get_weights("agent/policy"); });
    set_w.time([&] { worker.set_weights(w); });
  });

  out->set("execution.apex_worker_sample_ms", sample.median_us() / 1000.0,
           "ms");
  out->set("components.replay_insert_us", insert.median_us(), "us");
  out->set("components.replay_sample_us", draw.median_us(), "us");
  out->set("components.replay_update_priorities_us", priorities.median_us(),
           "us");
  out->set("agents.dqn_update_ms", update.median_us() / 1000.0, "ms");
  out->set("agents.get_weights_us", get_w.median_us(), "us");
  out->set("agents.set_weights_us", set_w.median_us(), "us");
}

void raylite_layer(Result* out) {
  struct Noop {};
  raylite::Actor<Noop> actor([] { return std::make_unique<Noop>(); });
  CallTimer rt("raylite/call_roundtrip");
  repeat_for(kLayerS / 2, 100, [&] {
    rt.time([&] { return actor.call([](Noop&) { return 0; }).get(); });
  });
  out->set("raylite.call_roundtrip_us", rt.median_us(), "us");
}

void apex_run_layers(uint64_t seed, Result* out) {
  ApexWindow w = run_apex_window(seed, 2.0);
  out->check(w.steady, "layers: apex run never reached steady state");
  out->set("execution.apex_env_fps", w.env_fps, "1/s");
  out->set("execution.apex_updates_per_s", w.updates_per_s, "1/s");
  out->set("execution.apex_tasks_per_s",
           static_cast<double>(w.result.sample_tasks) / w.result.seconds,
           "1/s");
  out->set("execution.apex_task_retries",
           static_cast<double>(w.result.task_retries), "count");
}

void impala_run_layers(uint64_t seed, Result* out) {
  ImpalaWindow w = run_impala_window(seed, 2.0, nullptr);
  out->check(w.finite, "layers: non-finite IMPALA learner loss");
  out->set("agents.impala_update_ms", median(w.update_ms), "ms");
  out->set("agents.impala_rollout_ms", median(w.rollout_ms), "ms");
  out->set("execution.impala_env_fps", w.env_fps, "1/s");
  out->set("execution.impala_updates_per_s", w.updates_per_s, "1/s");

  // The library pipeline on the same config: its own frames/s counts agent
  // builds as sampling time; the fault counters come from its registry.
  ImpalaConfig cfg;
  cfg.agent_config = impala_agent_config();
  cfg.env_spec = dmlab_env_spec();
  cfg.num_actors = ImpalaRig::kActors;
  cfg.envs_per_actor = ImpalaRig::kEnvsPerActor;
  cfg.queue_capacity = static_cast<int>(ImpalaRig::kQueueCapacity);
  cfg.seed = seed;
  ImpalaPipeline pipeline(cfg);
  ImpalaResult r = pipeline.run(1.5);
  out->check(r.learner_updates > 0 && std::isfinite(r.final_loss),
             "layers: ImpalaPipeline made no finite update");
  out->set("execution.impala_pipeline_fps", r.frames_per_second, "1/s");
  out->set("execution.impala_learner_starved",
           static_cast<double>(
               pipeline.metrics().counter("impala.learner_starved")),
           "count");
  out->set("execution.impala_dropped_rollouts",
           static_cast<double>(r.dropped_rollouts), "count");
}

void serve_layers(uint64_t seed, Result* out) {
  EngineRecords records;
  ServeRun run = run_serve_phases(seed, 1.0, 1.5, &records, out);
  const char* names[2] = {"low", "high"};
  for (int p = 0; p < 2; ++p) {
    const std::string pre = std::string("serve.") + names[p] + ".";
    const OpenLoopReport& r = run.phase[p];
    const double rows = std::accumulate(records.rows[p].begin(),
                                        records.rows[p].end(), 0.0);
    out->set(pre + "latency_p50_ms", median(r.latency_ms), "ms");
    out->set(pre + "latency_p99_ms", quantile(r.latency_ms, 0.99), "ms");
    out->set(pre + "forward_us", median(records.forward_us[p]), "us");
    out->set(pre + "rows_per_forward", mean_of(records.rows[p]), "count");
    out->set(pre + "padded_row_share",
             rows > 0 ? static_cast<double>(run.padded_rows[p]) / rows : 0.0,
             "ratio");
    out->set(pre + "queue_delay_p50_ms", run.queue_delay_p50_ms[p], "ms");
    out->set(pre + "snapshot_load_us", median(records.load_us[p]), "us");
    out->set(pre + "submit_us", median(r.submit_us), "us");
    out->set(pre + "gen_lag_p99_ms", quantile(r.gen_lag_ms, 0.99), "ms");
    out->set(pre + "shed", static_cast<double>(r.shed), "count");
    out->set(pre + "timeout", static_cast<double>(r.timeout), "count");
  }
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "act_pong" || name == "apex_pong" ||
         name == "impala_dmlab" || name == "serve_low" ||
         name == "serve_high";
}

void run_layers(const Options& opt, Result* out) {
  const uint64_t seed = opt.seed;
  out->set("util.pool_threads", static_cast<double>(global_parallelism()),
           "count");

  // Untraced references first: the hand-tuned baseline and the workload's
  // main value with tracing off.
  baseline_layer(seed, out);
  const double window = std::clamp(opt.seconds / 4.0, 1.0, 3.0);
  const double untraced = main_value(opt.workload, seed, window);

  trace::start();
  const double traced = main_value(opt.workload, seed, window);
  env_layer(seed, out);
  act_layers(seed, out);
  apex_isolated_layers(seed, out);
  raylite_layer(out);
  apex_run_layers(seed, out);
  impala_run_layers(seed, out);
  serve_layers(seed, out);
  trace::stop();

  // Overhead as the share by which tracing worsens the main value: rates
  // drop, the serving latency grows.
  const bool latency = opt.workload.rfind("serve_", 0) == 0;
  out->set("trace.overhead_pct",
           100.0 * (latency ? traced / untraced - 1.0 : untraced / traced - 1.0),
           "%");
}

}  // namespace perfbench
