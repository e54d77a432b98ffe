// End-to-end span tracing: where does a microsecond go?
//
// Every performance-critical layer (compiled-plan kernels, session phases,
// pool scheduling, the serving request lifecycle, actor task execution)
// opens a TraceSpan around its hot section. When tracing is disabled — the
// default — a span is a single relaxed atomic load plus a trivially
// destructible stack object: no strings, no clock reads, no allocation.
// When enabled, each completed span updates its thread's per-span-name
// aggregate (count, total, util/metrics Histogram buckets) and lands in the
// thread's ring buffer (one brief uncontended lock per event, no
// cross-thread sharing on the record path). The aggregates are exact: they
// count every span recorded. The ring keeps the newest events only, for the
// Chrome trace_event JSON that stop() writes and chrome://tracing and
// Perfetto load directly.
//
// These spans are also the graph executor's profiling hooks (paper §4.1):
// every GraphExecutor::execute records "execute/<api>" in category
// "executor", so per-API call counts and latencies are read from
// aggregates().
//
// Enable programmatically:
//     trace::start("run.trace.json");
//     ... workload ...
//     std::string summary = trace::stop();  // writes the file
// or for any binary without code changes:
//     RLGRAPH_TRACE=run.trace.json ./bench_serve_throughput
// (started at process init, flushed at exit).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "util/metrics.h"

namespace rlgraph {

class Json;

namespace trace {

using TraceClock = std::chrono::steady_clock;

namespace internal {

// The one word every instrumentation site checks. Relaxed is sufficient:
// missing the first few spans after start() is acceptable, recording a few
// after stop() is harmless (they are simply not exported again).
extern std::atomic<bool> g_enabled;

uint64_t now_ns();

// Append one completed span to the calling thread's ring buffer. `name` is
// copied; `cat`/`akey`/`bkey` must be string literals (static storage).
void record(const char* cat, std::string name, uint64_t start_ns,
            uint64_t end_ns, std::string detail, const char* akey,
            int64_t aval, const char* bkey, int64_t bval);

}  // namespace internal

// True while a trace is being collected. Inline and branch-predictable:
// this is the zero-cost-when-disabled check.
inline bool enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

// Begin collecting. Clears previously buffered events. `path` is where
// stop() writes the Chrome trace JSON; empty collects in memory only
// (export via to_json()).
void start(const std::string& path = "");

// Stop collecting, write the JSON file (if a path was given to start) and
// return the per-span-name aggregate summary. Aggregates and buffered
// events stay readable until the next start().
std::string stop();

// Collection state (start() called, stop() not yet).
bool collecting();

// Drop every buffered event and aggregate and reset drop counters (start()
// does this too).
void reset();

// Export buffer: events currently held in the rings across all threads,
// and how many were overwritten because a thread's ring filled up. Ring
// capacity is kRingCapacity events per thread; a full ring drops the oldest
// events from the export, never blocks the traced thread, and never touches
// the aggregates: their counts sum to event_count() + dropped_events().
inline constexpr size_t kRingCapacity = 1 << 16;
int64_t event_count();
int64_t dropped_events();

// The buffered events as a Chrome trace_event document:
//   {"traceEvents": [{"name","cat","ph":"X","pid","tid","ts","dur","args"},
//                    ... one "M" thread_name record per thread],
//    "displayTimeUnit": "ms"}
// "ts"/"dur" are microseconds (fractional), events sorted by ts.
Json to_json();

// Exact per-span-name aggregates, merged across threads: count, sum
// (seconds) and Histogram buckets of every span recorded since start().
std::map<std::string, HistogramSnapshot> aggregates();

// aggregates() as a text table, one line per span name, sorted by total
// time descending: count, total seconds, mean, p50/p95/p99.
std::string summary();

// Record a span whose endpoints were measured elsewhere (e.g. a serving
// request's queue wait: enqueue happened on the client thread, dispatch on
// the shard thread). No-op when disabled.
void record_span(const char* cat, std::string name,
                 TraceClock::time_point begin, TraceClock::time_point end,
                 const char* akey = nullptr, int64_t aval = 0,
                 const char* bkey = nullptr, int64_t bval = 0);

// RAII span: opens at construction, records [ctor, dtor) on destruction.
// All setters are no-ops when the span is inactive (tracing disabled at
// construction), so call sites need no branching of their own.
class TraceSpan {
 public:
  // `cat` must be a string literal; `name` is copied only when active.
  TraceSpan(const char* cat, const char* name) {
    if (enabled()) [[unlikely]] activate(cat, name);
  }
  TraceSpan(const char* cat, const std::string& name) {
    if (enabled()) [[unlikely]] activate(cat, name.c_str());
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (active_) [[unlikely]] {
      internal::record(cat_, std::move(name_), start_ns_, internal::now_ns(),
                       std::move(detail_), akey_, aval_, bkey_, bval_);
    }
  }

  bool active() const { return active_; }

  // Free-form annotation (e.g. a tensor shape); exported as args.detail.
  void set_detail(std::string detail) {
    if (active_) detail_ = std::move(detail);
  }
  // Up to two integer args; `key` must be a string literal.
  void set_arg(const char* key, int64_t value) {
    if (!active_) return;
    if (akey_ == nullptr || akey_ == key) {
      akey_ = key;
      aval_ = value;
    } else {
      bkey_ = key;
      bval_ = value;
    }
  }

 private:
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((cold, noinline))
#endif
  void activate(const char* cat, const char* name) {
    active_ = true;
    cat_ = cat;
    name_ = name;
    start_ns_ = internal::now_ns();
  }

  bool active_ = false;
  const char* cat_ = nullptr;
  const char* akey_ = nullptr;
  const char* bkey_ = nullptr;
  int64_t aval_ = 0;
  int64_t bval_ = 0;
  uint64_t start_ns_ = 0;
  std::string name_;
  std::string detail_;
};

}  // namespace trace
}  // namespace rlgraph
