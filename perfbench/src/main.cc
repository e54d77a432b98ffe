// perfbench: the program behind the repository benchmark.
//
//   perfbench --workload <act_pong|apex_pong|impala_dmlab|serve_low|serve_high>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// --trace 0 measures the end-to-end metrics of one workload with tracing
// off. --trace 1 runs the per-layer suite (layers.cc) with tracing on and
// reports per-layer metrics plus the tracing overhead on the named
// workload. The last stdout line is the result JSON; the line before it
// carries run metadata. Exit code 1 means a correctness check failed, 2 a
// usage or environment error.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "open_loop.h"
#include "util/thread_pool.h"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n       perfbench --selftest\n");
  return 2;
}

// Median wall time of a fixed integer loop run on one thread per core at
// once: a record of how much CPU the host gave this process, for reading
// run-to-run spread. Not a metric.
double host_probe_ms() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> ms(n);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back([&ms, t] {
      const auto t0 = perfbench::Clock::now();
      volatile uint64_t sink = 0;
      // Seeded from an address so the loop cannot be folded at compile time.
      uint64_t x = reinterpret_cast<uintptr_t>(&sink) | 1;
      for (int i = 0; i < 20000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sink = x;
      ms[t] = perfbench::seconds_since(t0) * 1000.0;
    });
  }
  for (std::thread& th : threads) th.join();
  return perfbench::median(ms);
}

rlgraph::Json metadata(const perfbench::Options& opt, double probe_ms) {
  rlgraph::Json meta;
  meta["workload"] = rlgraph::Json(opt.workload);
  meta["seed"] = rlgraph::Json(static_cast<int64_t>(opt.seed));
  meta["seconds"] = rlgraph::Json(opt.seconds);
  meta["trace"] = rlgraph::Json(opt.trace);
  meta["nproc"] = rlgraph::Json(
      static_cast<int64_t>(std::thread::hardware_concurrency()));
  meta["pool_threads"] = rlgraph::Json(
      static_cast<int64_t>(rlgraph::global_parallelism()));
  meta["rlgraph_num_threads_set"] =
      rlgraph::Json(std::getenv("RLGRAPH_NUM_THREADS") != nullptr);
  meta["build_type"] = rlgraph::Json(PERFBENCH_BUILD_TYPE);
  meta["compiler"] = rlgraph::Json(PERFBENCH_COMPILER);
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  meta["git_sha"] = rlgraph::Json(sha != nullptr ? sha : "unknown");
  meta["host_probe_ms"] = rlgraph::Json(probe_ms);
  return meta;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (kSanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a sanitizer build; rebuild "
                 "without TSAN/ASAN\n");
    return 2;
  }
  Options opt;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return usage();
    }
  }
  if (selftest) return run_open_loop_selftest() ? 0 : 1;
  if (opt.seconds <= 0.0) return usage();

  const double probe_ms = host_probe_ms();
  Result result;
  try {
    if (!is_workload(opt.workload)) return usage();
    if (opt.trace) {
      run_layers(opt, &result);
    } else if (opt.workload == "act_pong") {
      run_act(opt, &result);
    } else if (opt.workload == "apex_pong") {
      run_apex(opt, &result);
    } else if (opt.workload == "impala_dmlab") {
      run_impala(opt, &result);
    } else {
      run_serve(opt, opt.workload == "serve_high", &result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!opt.trace) result.set("peak_rss_mb", peak_rss_mb(), "MB");

  rlgraph::Json meta;
  meta["meta"] = metadata(opt, probe_ms);
  std::printf("%s\n%s\n", meta.dump().c_str(), result.to_json_line().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
