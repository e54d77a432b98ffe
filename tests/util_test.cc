// Tests for the util substrate: JSON, RNG, metrics, serialization, queues,
// thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "util/json.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/queues.h"
#include "util/random.h"
#include "util/serialization.h"
#include "util/thread_pool.h"

namespace rlgraph {
namespace {

// --- JSON -------------------------------------------------------------------

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_double(), 3.5);
  EXPECT_EQ(Json::parse("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5E-2").as_double(), -0.025);
  EXPECT_EQ(Json::parse("\"hello\"").as_string(), "hello");
}

TEST(JsonTest, ParsesContainers) {
  Json j = Json::parse(R"({"a": [1, 2, 3], "b": {"c": true}})");
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.at("a").as_array().size(), 3u);
  EXPECT_EQ(j.at("a").as_array()[1].as_int(), 2);
  EXPECT_TRUE(j.at("b").at("c").as_bool());
}

TEST(JsonTest, ParsesEscapes) {
  Json j = Json::parse(R"("line\nbreak\t\"quoted\" \\ A")");
  EXPECT_EQ(j.as_string(), "line\nbreak\t\"quoted\" \\ A");
}

TEST(JsonTest, ParsesNestedDeep) {
  Json j = Json::parse(R"([[[[1]]], {"x": [{"y": [2]}]}])");
  EXPECT_EQ(j.as_array()[0].as_array()[0].as_array()[0].as_array()[0].as_int(),
            1);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), ConfigError);
  EXPECT_THROW(Json::parse("{"), ConfigError);
  EXPECT_THROW(Json::parse("[1,]"), ConfigError);
  EXPECT_THROW(Json::parse("{\"a\": }"), ConfigError);
  EXPECT_THROW(Json::parse("tru"), ConfigError);
  EXPECT_THROW(Json::parse("1 2"), ConfigError);
  EXPECT_THROW(Json::parse("\"unterminated"), ConfigError);
  EXPECT_THROW(Json::parse("01a"), ConfigError);
}

TEST(JsonTest, ErrorsCarryLineAndColumn) {
  try {
    Json::parse("{\n  \"a\": bad\n}");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(JsonTest, DumpRoundTrips) {
  const std::string text =
      R"({"arr":[1,2.5,null,true],"nested":{"k":"v"},"s":"x\ny"})";
  Json j = Json::parse(text);
  Json j2 = Json::parse(j.dump());
  EXPECT_TRUE(j == j2);
  // Pretty dump also round-trips.
  Json j3 = Json::parse(j.dump(2));
  EXPECT_TRUE(j == j3);
}

TEST(JsonTest, TypedGettersWithDefaults) {
  Json j = Json::parse(R"({"a": 5, "b": "x"})");
  EXPECT_EQ(j.get_int("a", 0), 5);
  EXPECT_EQ(j.get_int("missing", 7), 7);
  EXPECT_EQ(j.get_string("b", ""), "x");
  EXPECT_TRUE(j.get_bool("missing", true));
  EXPECT_THROW(j.at("missing"), NotFoundError);
  EXPECT_THROW(j.at("a").as_string(), ConfigError);
}

TEST(JsonTest, MutationBuildsObjects) {
  Json j;
  j["x"] = Json(1);
  j["y"]["z"] = Json("deep");
  EXPECT_EQ(j.at("x").as_int(), 1);
  EXPECT_EQ(j.at("y").at("z").as_string(), "deep");
}

// --- RNG --------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngTest, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.uniform_int(7);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 7);
  }
  EXPECT_THROW(rng.uniform_int(0), ValueError);
}

TEST(RngTest, CategoricalProportions) {
  Rng rng(3);
  std::vector<double> weights{1.0, 3.0};
  int counts[2] = {0, 0};
  for (int i = 0; i < 20000; ++i) {
    ++counts[rng.categorical(weights)];
  }
  double ratio = static_cast<double>(counts[1]) / counts[0];
  EXPECT_NEAR(ratio, 3.0, 0.4);
  EXPECT_THROW(rng.categorical({}), ValueError);
  EXPECT_THROW(rng.categorical({-1.0}), ValueError);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(9);
  Rng b = a.split();
  // Streams should differ immediately.
  bool any_diff = false;
  Rng a2(9);
  Rng b2 = a2.split();
  for (int i = 0; i < 10; ++i) {
    double va = b.uniform(), vb = b2.uniform();
    EXPECT_DOUBLE_EQ(va, vb);  // split is deterministic
    if (va != a.uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, NormalMoments) {
  Rng rng(5);
  double sum = 0, sum_sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.normal(2.0, 0.5);
    sum += v;
    sum_sq += v * v;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.02);
  EXPECT_NEAR(var, 0.25, 0.02);
}

// --- Logging -----------------------------------------------------------------

TEST(LoggingTest, LevelFilteringAndRestore) {
  LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Suppressed levels must not crash and are cheap no-ops.
  RLG_LOG_DEBUG << "hidden " << 1;
  RLG_LOG_INFO << "hidden " << 2.5;
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(original);
}

// --- Metrics ----------------------------------------------------------------

TEST(MetricsTest, RegistryCounters) {
  MetricRegistry reg;
  reg.increment("frames", 10);
  reg.increment("frames", 5);
  EXPECT_EQ(reg.counter("frames"), 15);
  EXPECT_EQ(reg.counter("missing"), 0);
  reg.reset();
  EXPECT_EQ(reg.counter("frames"), 0);
}

TEST(MetricsTest, GaugesAreLastWriteWins) {
  MetricRegistry reg;
  EXPECT_DOUBLE_EQ(reg.gauge("staleness"), 0.0);
  reg.set_gauge("staleness", 3.0);
  reg.set_gauge("staleness", 1.5);
  EXPECT_DOUBLE_EQ(reg.gauge("staleness"), 1.5);
  EXPECT_EQ(reg.gauges().size(), 1u);
  EXPECT_NE(reg.report().find("staleness: 1.5"), std::string::npos);
  reg.reset();
  EXPECT_DOUBLE_EQ(reg.gauge("staleness"), 0.0);
}

TEST(MetricsTest, HistogramQuantilesApproximateTheDistribution) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);

  // 1..100 ms uniformly: p50 ~ 50ms, p95 ~ 95ms, p99 ~ 99ms. Log buckets
  // give ~15% relative resolution, so assert within a generous band.
  for (int i = 1; i <= 100; ++i) h.record(i * 1e-3);
  EXPECT_EQ(h.count(), 100);
  EXPECT_NEAR(h.mean(), 0.0505, 1e-6);
  EXPECT_GT(h.p50(), 0.035);
  EXPECT_LT(h.p50(), 0.070);
  EXPECT_GT(h.p95(), 0.075);
  EXPECT_LT(h.p95(), 0.120);
  EXPECT_GE(h.p99(), h.p95());
  EXPECT_DOUBLE_EQ(h.max_seen(), 0.1);

  h.reset();
  EXPECT_EQ(h.count(), 0);
}

TEST(MetricsTest, HistogramHandlesOutOfRangeValues) {
  Histogram h;
  h.record(0.0);     // underflow bucket
  h.record(-5.0);    // underflow bucket
  h.record(1e9);     // overflow bucket
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.max_seen(), 1e9);
  // Quantiles stay within the representable range.
  EXPECT_LE(h.quantile(1.0), Histogram::kMaxValue);
  EXPECT_GE(h.quantile(0.0), 0.0);
}

TEST(MetricsTest, HistogramConcurrentRecordsAllLand) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("lat");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.record(1e-4);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(&reg.histogram("lat"), &h);  // stable address
  EXPECT_EQ(reg.histogram_names().size(), 1u);
  EXPECT_NE(reg.report().find("lat: count=20000"), std::string::npos);
}

TEST(MetricsTest, HistogramWindowedSnapshotConsumesDisjointWindows) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i * 1e-3);
  HistogramSnapshot w1 = h.snapshot_window();
  EXPECT_EQ(w1.count, 100);
  EXPECT_NEAR(w1.mean(), 0.0505, 1e-6);
  EXPECT_GT(w1.p50(), 0.035);
  EXPECT_LT(w1.p50(), 0.070);

  // The window was consumed: with nothing recorded since, the next window
  // is empty even though the cumulative distribution is not.
  HistogramSnapshot w2 = h.snapshot_window();
  EXPECT_EQ(w2.count, 0);
  EXPECT_DOUBLE_EQ(w2.p99(), 0.0);

  // Only post-consumption recordings land in the next window — a shifted
  // distribution shows up undiluted by the earlier history...
  for (int i = 0; i < 50; ++i) h.record(1.0);
  HistogramSnapshot w3 = h.snapshot_window();
  EXPECT_EQ(w3.count, 50);
  EXPECT_GT(w3.p50(), 0.5);

  // ...while the cumulative counts keep everything.
  EXPECT_EQ(h.count(), 150);
  HistogramSnapshot total = h.snapshot_total();
  EXPECT_EQ(total.count, 150);
  EXPECT_LT(total.p50(), 0.5);  // dominated by the 100 small samples
}

TEST(MetricsTest, HistogramWindowSurvivesOutOfRangeAndReset) {
  Histogram h;
  h.record(-1.0);  // underflow
  h.record(1e9);   // overflow
  HistogramSnapshot w = h.snapshot_window();
  EXPECT_EQ(w.count, 2);  // under/overflow buckets are part of the window

  h.record(1e-3);
  h.reset();  // reset clears the window baseline along with the counts
  for (int i = 0; i < 5; ++i) h.record(1e-3);
  w = h.snapshot_window();
  EXPECT_EQ(w.count, 5);
  EXPECT_EQ(h.count(), 5);
}

// --- Serialization -----------------------------------------------------------

TEST(SerializationTest, PrimitivesRoundTrip) {
  ByteWriter w;
  w.write_u8(0xAB);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFULL);
  w.write_i64(-42);
  w.write_f32(3.25f);
  w.write_f64(-1.5e100);
  w.write_string("hello world");
  ByteReader r(w.take());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_FLOAT_EQ(r.read_f32(), 3.25f);
  EXPECT_DOUBLE_EQ(r.read_f64(), -1.5e100);
  EXPECT_EQ(r.read_string(), "hello world");
  EXPECT_TRUE(r.at_end());
}

TEST(SerializationTest, TruncatedStreamThrows) {
  ByteWriter w;
  w.write_u32(7);
  ByteReader r(w.take());
  EXPECT_EQ(r.read_u32(), 7u);
  EXPECT_THROW(r.read_u64(), Error);
}

// --- Queues ------------------------------------------------------------------

TEST(QueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(*q.pop(), 1);
  EXPECT_EQ(*q.pop(), 2);
  EXPECT_EQ(*q.pop(), 3);
}

TEST(QueueTest, BoundedBlocksProducerUntilConsumed) {
  BlockingQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  EXPECT_FALSE(q.try_push(2));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.push(2);
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(*q.pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(*q.pop(), 2);
}

TEST(QueueTest, CloseUnblocksAndDrains) {
  BlockingQueue<int> q;
  q.push(5);
  q.close();
  EXPECT_FALSE(q.push(6));
  EXPECT_EQ(*q.pop(), 5);       // drains remaining
  EXPECT_FALSE(q.pop().has_value());  // then signals closed
}

TEST(QueueTest, CloseWakesBlockedConsumer) {
  BlockingQueue<int> q;
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
}

TEST(QueueTest, TimedPop) {
  BlockingQueue<int> q;
  // Empty queue: times out instead of blocking forever.
  EXPECT_FALSE(q.pop_for(std::chrono::milliseconds(5)).has_value());
  q.push(3);
  EXPECT_EQ(*q.pop_for(std::chrono::milliseconds(5)), 3);
  // A late producer wakes the timed waiter.
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.push(4);
  });
  EXPECT_EQ(*q.pop_for(std::chrono::seconds(10)), 4);
  producer.join();
  q.close();
  EXPECT_FALSE(q.pop_for(std::chrono::milliseconds(5)).has_value());
}

TEST(QueueTest, ConcurrentProducersConsumers) {
  BlockingQueue<int> q(8);
  std::atomic<int64_t> sum{0};
  const int per_producer = 500;
  std::vector<std::thread> threads;
  for (int p = 0; p < 3; ++p) {
    threads.emplace_back([&q] {
      for (int i = 1; i <= per_producer; ++i) q.push(i);
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) sum.fetch_add(*v);
    });
  }
  for (int p = 0; p < 3; ++p) threads[p].join();
  q.close();
  threads[3].join();
  threads[4].join();
  EXPECT_EQ(sum.load(), 3LL * per_producer * (per_producer + 1) / 2);
}

// --- ThreadPool ----------------------------------------------------------------

TEST(ThreadPoolTest, RunsTasksAndReturnsValues) {
  ThreadPool pool(2);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ManyTasks) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

}  // namespace
}  // namespace rlgraph
