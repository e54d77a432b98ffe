// Tracing layer tests: disabled-mode cost model, cross-thread ring buffers,
// exact aggregates past a full ring and under concurrent readers, Chrome
// trace_event export invariants, and golden traces for Session::run and
// GraphExecutor::execute.
//
// Span taxonomy (category: names): executor: execute/<api> · session:
// session/run, session/compile · plan: plan/execute · kernel: <op type> ·
// sched: pool/dispatch, pool/steal · serve: serve/* · net: net/* · actor:
// actor/task, supervisor/heartbeat.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "backend/static_context.h"
#include "components/layers.h"
#include "core/graph_executor.h"
#include "graph/session.h"
#include "util/json.h"
#include "util/trace.h"

namespace rlgraph {
namespace {

// Every test starts from a clean slate; tracing is process-global state.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (trace::collecting()) trace::stop();
    trace::reset();
  }
  void TearDown() override {
    if (trace::collecting()) trace::stop();
    trace::reset();
  }
};

TEST_F(TraceTest, DisabledModeRecordsNothing) {
  ASSERT_FALSE(trace::enabled());
  {
    trace::TraceSpan span("test", "should_not_exist");
    span.set_detail("ignored");
    span.set_arg("k", 1);
    EXPECT_FALSE(span.active());
  }
  trace::record_span("test", "also_not", trace::TraceClock::now(),
                     trace::TraceClock::now());
  EXPECT_EQ(trace::event_count(), 0);
  Json doc = trace::to_json();
  EXPECT_TRUE(doc.at("traceEvents").as_array().empty());
}

TEST_F(TraceTest, StartStopLifecycle) {
  EXPECT_FALSE(trace::collecting());
  trace::start();
  EXPECT_TRUE(trace::collecting());
  EXPECT_TRUE(trace::enabled());
  { trace::TraceSpan span("test", "one"); }
  std::string summary = trace::stop();
  EXPECT_FALSE(trace::collecting());
  EXPECT_FALSE(trace::enabled());
  EXPECT_EQ(trace::event_count(), 1);
  EXPECT_NE(summary.find("one"), std::string::npos);
  // Spans opened after stop() record nothing.
  { trace::TraceSpan span("test", "late"); }
  EXPECT_EQ(trace::event_count(), 1);
  // start() clears the previous collection.
  trace::start();
  EXPECT_EQ(trace::event_count(), 0);
}

TEST_F(TraceTest, SpansNestAndCloseAcrossThreads) {
  trace::start();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        trace::TraceSpan outer("test", "outer");
        {
          trace::TraceSpan inner("test", "inner");
          inner.set_arg("i", i);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  trace::stop();
  EXPECT_EQ(trace::event_count(), kThreads * kSpansPerThread * 2);
  EXPECT_EQ(trace::dropped_events(), 0);

  Json doc = trace::to_json();
  const JsonArray& events = doc.at("traceEvents").as_array();
  std::set<int64_t> tids;
  int outer_count = 0, inner_count = 0;
  for (const Json& e : events) {
    if (e.at("ph").as_string() != "X") continue;
    tids.insert(e.at("tid").as_int());
    const std::string& name = e.at("name").as_string();
    if (name == "outer") ++outer_count;
    if (name == "inner") ++inner_count;
  }
  EXPECT_EQ(outer_count, kThreads * kSpansPerThread);
  EXPECT_EQ(inner_count, kThreads * kSpansPerThread);
  // Each recording thread keeps its own ring and its own trace tid.
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));

  // Nesting must close properly: on any one thread, sorting by start time
  // pairs every outer with an inner fully contained in it.
  for (int64_t tid : tids) {
    double last_outer_end = -1.0;
    for (const Json& e : events) {
      if (e.at("ph").as_string() != "X" || e.at("tid").as_int() != tid) {
        continue;
      }
      double ts = e.at("ts").as_double();
      double end = ts + e.at("dur").as_double();
      if (e.at("name").as_string() == "outer") {
        last_outer_end = end;
      } else {
        ASSERT_GE(last_outer_end, 0.0);
        EXPECT_LE(end, last_outer_end + 1e-6)
            << "inner span leaked past its enclosing outer span";
      }
    }
  }
}

TEST_F(TraceTest, RingOverwritesOldestWithoutBlocking) {
  trace::start();
  const int total = static_cast<int>(trace::kRingCapacity) + 500;
  for (int i = 0; i < total; ++i) {
    trace::TraceSpan span("test", "s");
  }
  const std::string summary = trace::stop();
  EXPECT_EQ(trace::event_count(),
            static_cast<int64_t>(trace::kRingCapacity));
  EXPECT_EQ(trace::dropped_events(), 500);
  // The ring only bounds the export: aggregates count every span.
  EXPECT_EQ(trace::aggregates().at("s").count, total);
  EXPECT_NE(summary.find("count=" + std::to_string(total)), std::string::npos)
      << summary;
}

TEST_F(TraceTest, AggregatesStayExactUnderConcurrentReaders) {
  trace::start();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 20000;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&running, t] {
      const std::string own = "own" + std::to_string(t);
      for (int i = 0; i < kSpansPerThread; ++i) {
        trace::TraceSpan shared("test", "shared");
        trace::TraceSpan mine("test", own);
      }
      running.fetch_sub(1);
    });
  }
  // Read while the writers record: every read is a consistent merge.
  int reads = 0;
  while (running.load() > 0 || reads == 0) {
    const auto aggs = trace::aggregates();
    auto it = aggs.find("shared");
    if (it != aggs.end()) {
      EXPECT_LE(it->second.count, int64_t{kThreads} * kSpansPerThread);
    }
    EXPECT_FALSE(trace::summary().empty());
    ++reads;
  }
  for (auto& t : threads) t.join();
  trace::stop();

  const auto aggs = trace::aggregates();
  EXPECT_EQ(aggs.at("shared").count, int64_t{kThreads} * kSpansPerThread);
  int64_t bucket_total = 0;
  for (int64_t c : aggs.at("shared").buckets) bucket_total += c;
  EXPECT_EQ(bucket_total, aggs.at("shared").count);
  int64_t all = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(aggs.at("own" + std::to_string(t)).count, kSpansPerThread);
  }
  for (const auto& [name, snap] : aggs) all += snap.count;
  EXPECT_EQ(all, trace::event_count() + trace::dropped_events());
}

TEST_F(TraceTest, ExportedJsonParsesAndEveryXEventIsComplete) {
  const std::string path = "trace_test_out.json";
  trace::start(path);
  {
    trace::TraceSpan span("test", "with_args");
    span.set_arg("batch", 32);
    span.set_arg("version", 7);
    span.set_detail("shape [32, 4]");
  }
  trace::record_span("test", "measured_elsewhere",
                     trace::TraceClock::now() - std::chrono::microseconds(50),
                     trace::TraceClock::now(), "k", 3);
  trace::stop();

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "stop() must write the trace file";
  std::stringstream buf;
  buf << in.rdbuf();
  Json doc = Json::parse(buf.str());  // throws on malformed output
  std::remove(path.c_str());

  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const JsonArray& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 3u);  // 2 X spans + 1 M thread_name record
  int x_count = 0;
  for (const Json& e : events) {
    const std::string& ph = e.at("ph").as_string();
    ASSERT_TRUE(ph == "X" || ph == "M") << "unexpected phase " << ph;
    EXPECT_GE(e.at("pid").as_int(), 1);
    EXPECT_GE(e.at("tid").as_int(), 1);
    if (ph != "X") continue;
    ++x_count;
    // Complete duration events: matched ts/dur, both non-negative.
    EXPECT_GE(e.at("ts").as_double(), 0.0);
    EXPECT_GE(e.at("dur").as_double(), 0.0);
    EXPECT_TRUE(e.at("cat").is_string());
    if (e.at("name").as_string() == "with_args") {
      const Json& args = e.at("args");
      EXPECT_EQ(args.at("batch").as_int(), 32);
      EXPECT_EQ(args.at("version").as_int(), 7);
      EXPECT_EQ(args.at("detail").as_string(), "shape [32, 4]");
    }
    if (e.at("name").as_string() == "measured_elsewhere") {
      EXPECT_EQ(e.at("args").at("k").as_int(), 3);
      EXPECT_NEAR(e.at("dur").as_double(), 50.0, 25.0);
    }
  }
  EXPECT_EQ(x_count, 2);
}

// Golden trace: running a fixed two-op graph through a fresh Session must
// produce exactly the expected span-name skeleton — each run compiles its
// plan, then executes it with the graph's kernels inside.
TEST_F(TraceTest, GoldenSessionRunSpanSet) {
  VariableStore store;
  Rng rng(1);
  StaticGraphContext ctx(&store, &rng);
  OpRef x = ctx.placeholder("x", DType::kFloat32, Shape{2});
  OpRef y = ctx.mul(ctx.add(x, ctx.scalar(1.0f)), ctx.scalar(2.0f));
  Session session(ctx.graph(), &store, &rng);
  FeedMap feeds;
  feeds[x.node] = Tensor::from_floats(Shape{2}, {1.0f, 2.0f});
  std::vector<Endpoint> fetches{{y.node, y.index}};

  trace::start();
  session.run(fetches, feeds);
  session.run(fetches, feeds);
  trace::stop();

  std::set<std::string> names;
  Json doc = trace::to_json();
  for (const Json& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "X") names.insert(e.at("name").as_string());
  }
  const std::set<std::string> expected{
      "session/run", "session/compile", "plan/execute", "Add", "Mul"};
  for (const std::string& want : expected) {
    EXPECT_TRUE(names.count(want)) << "missing golden span: " << want;
  }
  // Nothing outside the session/plan/kernel taxonomy appears in a pure
  // Session::run trace.
  for (const std::string& got : names) {
    EXPECT_TRUE(expected.count(got)) << "unexpected span: " << got;
  }
}

// Golden trace for the executor's profiling hook: every execute() opens one
// "execute/<api>" span in category "executor" that encloses the plan run.
TEST_F(TraceTest, GoldenExecutorExecuteSpanSet) {
  auto root = std::make_shared<Component>("root");
  auto* dense = root->add_component(std::make_shared<DenseLayer>("l1", 3));
  root->register_api("forward",
                     [dense](BuildContext& ctx, const OpRecs& in) {
                       return dense->call_api(ctx, "apply", in);
                     });
  GraphExecutor exec(root,
                     {{"forward", {FloatBox(Shape{4})->with_batch_rank()}}});
  exec.build();
  const Tensor x = Tensor::zeros(DType::kFloat32, Shape{2, 4});

  trace::start();
  exec.execute("forward", {x});
  exec.execute("forward", {x});
  trace::stop();

  EXPECT_EQ(trace::aggregates().at("execute/forward").count, 2);
  EXPECT_EQ(trace::aggregates().at("plan/execute").count, 2);
  Json doc = trace::to_json();
  double outer_end = -1.0;
  for (const Json& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    const double ts = e.at("ts").as_double();
    const double end = ts + e.at("dur").as_double();
    if (e.at("name").as_string() == "execute/forward") {
      EXPECT_EQ(e.at("cat").as_string(), "executor");
      outer_end = end;
    } else if (e.at("name").as_string() == "plan/execute") {
      ASSERT_GE(outer_end, 0.0) << "plan ran outside an executor span";
      EXPECT_LE(end, outer_end + 1e-6);
    }
  }
}

}  // namespace
}  // namespace rlgraph
