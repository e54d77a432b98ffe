// Lightweight timing and throughput instrumentation.
//
// The benchmark harness reports the same quantities the paper does
// (environment frames per second, build seconds, mean worker reward), all
// collected through these helpers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rlgraph {

// Monotonic stopwatch.
class Stopwatch {
 public:
  Stopwatch() { reset(); }
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// An immutable point-in-time view of a Histogram's counts — either the
// all-time distribution or the delta since the previous window snapshot.
// Quantiles use the same bucket geometry (and carry the same ~one-bucket
// approximation) as the live histogram, but walk plain ints: a snapshot is
// cheap to copy, compare, and reason about in control-plane decisions.
struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;
  double mean() const { return count == 0 ? 0.0 : sum / double(count); }
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  // Per-bucket counts, same layout as Histogram ([0]=under, [last]=over).
  // Public so tests can poke at it; most callers only need the quantiles.
  std::vector<int64_t> buckets;
};

// Fixed log-bucketed distribution with lock-light recording, used for
// serving latency and batch-size distributions where many threads record
// concurrently on a hot path.
//
// Buckets are geometric: kBucketsPerDecade per power of ten across
// [kMinValue, kMaxValue), plus underflow/overflow buckets. record() is a
// single relaxed atomic increment (plus a relaxed max update); quantile()
// walks a snapshot of the counts. Quantiles are therefore approximate to
// one bucket width (~15% relative), which is plenty for p50/p95/p99 of
// latencies spanning microseconds to seconds.
class Histogram {
 public:
  static constexpr int kBucketsPerDecade = 16;
  static constexpr int kNumDecades = 8;  // 1e-6 .. 1e2
  static constexpr int kNumBuckets = kBucketsPerDecade * kNumDecades;
  static constexpr double kMinValue = 1e-6;
  static constexpr double kMaxValue = 1e2;

  Histogram();

  // Record one observation. Values below kMinValue (including <= 0) land in
  // the underflow bucket, values >= kMaxValue in the overflow bucket.
  void record(double v);

  int64_t count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  double max_seen() const { return max_.load(std::memory_order_relaxed); }

  // Value below which a fraction q (in [0, 1]) of observations fall,
  // estimated as the geometric midpoint of the covering bucket. Returns 0
  // for an empty histogram.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  // The all-time distribution as a plain-int snapshot.
  HistogramSnapshot snapshot_total() const;

  // Windowed view for control-plane decisions (canary rollback, per-version
  // p99): the observations recorded since the PREVIOUS snapshot_window()
  // call (or since construction/reset for the first call), leaving the
  // cumulative counts untouched. Each call consumes its window — successive
  // calls partition the recording timeline into disjoint windows, so a
  // regression that started five minutes ago is not diluted by five hours
  // of healthy all-time history. Not for hot paths: takes an internal lock
  // against concurrent snapshot_window()/reset().
  HistogramSnapshot snapshot_window();

  void reset();
  // "count=N mean=... p50=... p95=... p99=... max=..."
  std::string to_string() const;

  static double bucket_midpoint(int index);

 private:
  static int bucket_index(double v);

  std::atomic<int64_t> buckets_[kNumBuckets + 2];  // [0]=under, [last]=over
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};

  // Baseline for snapshot_window deltas; only touched under window_mutex_.
  std::mutex window_mutex_;
  int64_t window_base_[kNumBuckets + 2] = {};
  double window_base_sum_ = 0.0;
};

// Thread-safe registry of named counters, gauges, and histograms, used by
// executors and the serving tier to expose per-run metrics (samples
// processed, worker restarts, weight staleness, request latencies). Span
// timings live in util/trace aggregates, not here.
class MetricRegistry {
 public:
  void increment(const std::string& name, int64_t by = 1);
  // Named histogram, created on first use. The returned reference stays
  // valid until reset(); hot paths should resolve it once and record
  // directly (record() itself takes no registry lock).
  Histogram& histogram(const std::string& name);
  std::vector<std::string> histogram_names() const;
  // Gauges are last-write-wins instantaneous values (e.g. staleness).
  void set_gauge(const std::string& name, double value);
  int64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  std::map<std::string, int64_t> counters() const;
  std::map<std::string, double> gauges() const;
  std::string report() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, int64_t> counters_;
  std::map<std::string, double> gauges_;
  // unique_ptr keeps Histogram addresses stable across map rebalancing.
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace rlgraph
