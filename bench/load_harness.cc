#include "load_harness.h"

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "util/metrics.h"
#include "util/random.h"

namespace rlgraph {
namespace bench {

namespace {

// One in-flight request awaiting collection.
struct Pending {
  std::future<serve::ActResult> fut;
  size_t stream = 0;
  // When the open-loop schedule said the request arrives. Latency runs
  // from here, so a generator that falls behind shows its own lag.
  serve::ServeClock::time_point due;
};

// Collector-side accumulation for one stream (generator counts offered/shed
// itself; only completion outcomes race across collector threads).
struct StreamAccum {
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> timeout{0};
  std::atomic<int64_t> failed{0};
  Histogram latency;
};

}  // namespace

const StreamStats* LoadReport::stream(const std::string& name) const {
  for (const StreamStats& s : streams) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string LoadReport::table() const {
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-12s %9s %9s %11s %12s %8s %8s %7s %7s %7s\n", "stream",
                "offered", "done", "offered/s", "attained/s", "p50ms",
                "p99ms", "shed", "tmout", "fail");
  os << line;
  auto row = [&](const char* name, int64_t offered, int64_t completed,
                 double oqps, double aqps, double p50, double p99,
                 int64_t shed_n, int64_t timeout_n, int64_t failed_n) {
    std::snprintf(line, sizeof(line),
                  "%-12s %9lld %9lld %11.0f %12.0f %8.2f %8.2f %7lld %7lld "
                  "%7lld\n",
                  name, static_cast<long long>(offered),
                  static_cast<long long>(completed), oqps, aqps, p50 * 1e3,
                  p99 * 1e3, static_cast<long long>(shed_n),
                  static_cast<long long>(timeout_n),
                  static_cast<long long>(failed_n));
    os << line;
  };
  for (const StreamStats& s : streams) {
    row(s.name.c_str(), s.offered, s.completed, s.offered_qps,
        s.attained_qps, s.p50, s.p99, s.shed, s.timeout, s.failed);
  }
  row("TOTAL", offered, completed, generated_qps, attained_qps, 0.0, 0.0,
      shed, timeout, failed);
  return os.str();
}

Json LoadReport::to_json() const {
  Json doc;
  doc["duration_seconds"] = Json(duration_seconds);
  doc["offered_qps"] = Json(offered_qps);
  doc["generated_qps"] = Json(generated_qps);
  doc["attained_qps"] = Json(attained_qps);
  doc["gen_lag_p99_seconds"] = Json(gen_lag_p99);
  doc["offered"] = Json(offered);
  doc["completed"] = Json(completed);
  doc["shed"] = Json(shed);
  doc["timeout"] = Json(timeout);
  doc["failed"] = Json(failed);
  JsonArray rows;
  for (const StreamStats& s : streams) {
    Json row;
    row["name"] = Json(s.name);
    row["tenant"] = Json(s.tenant);
    row["offered"] = Json(s.offered);
    row["completed"] = Json(s.completed);
    row["shed"] = Json(s.shed);
    row["timeout"] = Json(s.timeout);
    row["failed"] = Json(s.failed);
    row["offered_qps"] = Json(s.offered_qps);
    row["attained_qps"] = Json(s.attained_qps);
    row["p50_seconds"] = Json(s.p50);
    row["p99_seconds"] = Json(s.p99);
    rows.push_back(std::move(row));
  }
  doc["streams"] = Json(std::move(rows));
  return doc;
}

std::vector<LoadStreamSpec> heavy_tail_streams(
    const std::vector<std::string>& tenants, double skew) {
  std::vector<LoadStreamSpec> streams;
  streams.reserve(tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    LoadStreamSpec s;
    s.name = tenants[i];
    s.tenant = tenants[i];
    s.share = 1.0 / std::pow(static_cast<double>(i + 1), skew);
    streams.push_back(std::move(s));
  }
  return streams;
}

LoadReport run_open_loop(serve::PolicyServer& server,
                         const LoadConfig& config) {
  RLG_REQUIRE(config.offered_qps > 0.0,
              "load harness offered_qps must be > 0");
  RLG_REQUIRE(config.duration_seconds > 0.0,
              "load harness duration must be > 0");
  RLG_REQUIRE(!config.observations.empty(),
              "load harness needs a non-empty observation pool");
  RLG_REQUIRE(config.collector_threads >= 1,
              "load harness needs at least one collector thread");

  std::vector<LoadStreamSpec> streams = config.streams;
  if (streams.empty()) streams.push_back(LoadStreamSpec{});
  std::vector<double> shares;
  shares.reserve(streams.size());
  for (LoadStreamSpec& s : streams) {
    RLG_REQUIRE(s.share > 0.0, "load stream shares must be > 0");
    if (s.name.empty()) s.name = s.tenant.empty() ? "default" : s.tenant;
    shares.push_back(s.share);
  }

  // Completion pipeline: the generator pushes futures, collectors block on
  // them. The queue is unbounded on purpose — in open-loop load the
  // generator must never stall on the measurement apparatus.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> inflight;
  bool gen_done = false;

  std::vector<std::unique_ptr<StreamAccum>> accums;
  for (size_t i = 0; i < streams.size(); ++i) {
    accums.push_back(std::make_unique<StreamAccum>());
  }

  std::vector<std::thread> collectors;
  for (int c = 0; c < config.collector_threads; ++c) {
    collectors.emplace_back([&] {
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !inflight.empty() || gen_done; });
          if (inflight.empty()) return;  // done and drained
          p = std::move(inflight.front());
          inflight.pop_front();
        }
        StreamAccum& acc = *accums[p.stream];
        try {
          (void)p.fut.get();
          const double latency = std::chrono::duration<double>(
                                     serve::ServeClock::now() - p.due)
                                     .count();
          acc.latency.record(latency);
          acc.completed.fetch_add(1, std::memory_order_relaxed);
        } catch (const TimeoutError&) {
          acc.timeout.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
          acc.failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Open-loop generation: arrival k happens at start + sum of k exponential
  // gaps, independent of how the server is doing. When the generator falls
  // behind schedule (submit overhead at very high rates) it stops sleeping
  // and submits back-to-back; generated_qps in the report shows the rate it
  // actually achieved, and latency (stamped at each arrival's due time)
  // carries the lag.
  Rng rng(config.seed);
  std::vector<int64_t> offered(streams.size(), 0);
  std::vector<int64_t> shed(streams.size(), 0);
  std::vector<int64_t> submit_failed(streams.size(), 0);
  Histogram gen_lag;
  const auto start = serve::ServeClock::now();
  double next_arrival = 0.0;  // seconds after start
  uint64_t request_id = config.first_request_id;
  uint64_t arrival_index = 0;
  for (;;) {
    next_arrival += -std::log(1.0 - rng.uniform()) / config.offered_qps;
    if (next_arrival >= config.duration_seconds) break;
    const auto due =
        start + std::chrono::duration_cast<serve::ServeClock::duration>(
                    std::chrono::duration<double>(next_arrival));
    if (due > serve::ServeClock::now()) std::this_thread::sleep_until(due);

    const size_t stream = static_cast<size_t>(rng.categorical(shares));
    const LoadStreamSpec& spec = streams[stream];
    ++offered[stream];
    serve::ActOptions options;
    options.tenant = spec.tenant;
    options.request_class = spec.request_class;
    options.deadline = spec.deadline;
    options.request_id = request_id++;
    const Tensor& obs =
        config.observations[arrival_index++ % config.observations.size()];
    gen_lag.record(
        std::chrono::duration<double>(serve::ServeClock::now() - due).count());
    try {
      Pending p;
      p.due = due;
      p.fut = server.act_async(obs, options);
      p.stream = stream;
      {
        std::lock_guard<std::mutex> lock(mu);
        inflight.push_back(std::move(p));
      }
      cv.notify_one();
    } catch (const OverloadedError&) {
      ++shed[stream];  // admission control did its job; keep offering
    } catch (...) {
      ++submit_failed[stream];
    }
  }
  const double generation_elapsed =
      std::chrono::duration<double>(serve::ServeClock::now() - start).count();

  {
    std::lock_guard<std::mutex> lock(mu);
    gen_done = true;
  }
  cv.notify_all();
  for (std::thread& t : collectors) t.join();
  const double elapsed =
      std::chrono::duration<double>(serve::ServeClock::now() - start).count();

  LoadReport report;
  report.duration_seconds = elapsed;
  report.offered_qps = config.offered_qps;
  report.gen_lag_p99 = gen_lag.p99();
  for (size_t i = 0; i < streams.size(); ++i) {
    StreamStats s;
    s.name = streams[i].name;
    s.tenant = streams[i].tenant;
    s.offered = offered[i];
    s.completed = accums[i]->completed.load();
    s.shed = shed[i];
    s.timeout = accums[i]->timeout.load();
    s.failed = submit_failed[i] + accums[i]->failed.load();
    s.offered_qps = static_cast<double>(s.offered) / generation_elapsed;
    s.attained_qps = static_cast<double>(s.completed) / elapsed;
    s.p50 = accums[i]->latency.p50();
    s.p99 = accums[i]->latency.p99();
    report.offered += s.offered;
    report.completed += s.completed;
    report.shed += s.shed;
    report.timeout += s.timeout;
    report.failed += s.failed;
    report.streams.push_back(std::move(s));
  }
  report.generated_qps =
      static_cast<double>(report.offered) / generation_elapsed;
  report.attained_qps = static_cast<double>(report.completed) / elapsed;
  return report;
}

}  // namespace bench
}  // namespace rlgraph
