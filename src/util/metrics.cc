#include "util/metrics.h"

#include <cmath>
#include <sstream>

namespace rlgraph {

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram() { reset(); }

int Histogram::bucket_index(double v) {
  if (!(v >= kMinValue)) return 0;  // underflow (also NaN, <= 0)
  if (v >= kMaxValue) return kNumBuckets + 1;
  int idx = static_cast<int>(std::log10(v / kMinValue) *
                             static_cast<double>(kBucketsPerDecade));
  if (idx < 0) idx = 0;
  if (idx >= kNumBuckets) idx = kNumBuckets - 1;
  return idx + 1;
}

double Histogram::bucket_midpoint(int index) {
  if (index <= 0) return kMinValue;
  if (index > kNumBuckets) return kMaxValue;
  double lo = kMinValue *
              std::pow(10.0, static_cast<double>(index - 1) /
                                 static_cast<double>(kBucketsPerDecade));
  double hi = lo * std::pow(10.0, 1.0 / static_cast<double>(kBucketsPerDecade));
  return std::sqrt(lo * hi);
}

void Histogram::record(double v) {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  double seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

int64_t Histogram::count() const {
  int64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double Histogram::mean() const {
  int64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::quantile(double q) const {
  int64_t counts[kNumBuckets + 2];
  int64_t total = 0;
  for (int i = 0; i < kNumBuckets + 2; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  double rank = q * static_cast<double>(total);
  int64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets + 2; ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= rank) return bucket_midpoint(i);
  }
  return kMaxValue;
}

double HistogramSnapshot::quantile(double q) const {
  int64_t total = 0;
  for (int64_t c : buckets) total += c;
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  double rank = q * static_cast<double>(total);
  int64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) >= rank) {
      return Histogram::bucket_midpoint(static_cast<int>(i));
    }
  }
  return Histogram::kMaxValue;
}

HistogramSnapshot Histogram::snapshot_total() const {
  HistogramSnapshot snap;
  snap.buckets.resize(kNumBuckets + 2);
  for (int i = 0; i < kNumBuckets + 2; ++i) {
    int64_t c = buckets_[i].load(std::memory_order_relaxed);
    snap.buckets[static_cast<size_t>(i)] = c;
    snap.count += c;
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

HistogramSnapshot Histogram::snapshot_window() {
  std::lock_guard<std::mutex> lock(window_mutex_);
  HistogramSnapshot snap;
  snap.buckets.resize(kNumBuckets + 2);
  for (int i = 0; i < kNumBuckets + 2; ++i) {
    // Cumulative counts only grow; the delta against the stored baseline is
    // exactly what landed since the previous window. Records racing this
    // walk land in whichever window observes them — never lost, never
    // counted twice.
    int64_t cur = buckets_[i].load(std::memory_order_relaxed);
    snap.buckets[static_cast<size_t>(i)] = cur - window_base_[i];
    snap.count += cur - window_base_[i];
    window_base_[i] = cur;
  }
  double cur_sum = sum_.load(std::memory_order_relaxed);
  snap.sum = cur_sum - window_base_sum_;
  window_base_sum_ = cur_sum;
  return snap;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(window_mutex_);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
  for (int64_t& b : window_base_) b = 0;
  window_base_sum_ = 0.0;
}

std::string Histogram::to_string() const {
  std::ostringstream os;
  os << "count=" << count() << " mean=" << mean() << " p50=" << p50()
     << " p95=" << p95() << " p99=" << p99() << " max=" << max_seen();
  return os.str();
}

// --- MetricRegistry ----------------------------------------------------------

void MetricRegistry::increment(const std::string& name, int64_t by) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[name] += by;
}

Histogram& MetricRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<std::string> MetricRegistry::histogram_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) names.push_back(name);
  return names;
}

void MetricRegistry::set_gauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_[name] = value;
}

double MetricRegistry::gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

std::map<std::string, double> MetricRegistry::gauges() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return gauges_;
}

int64_t MetricRegistry::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::map<std::string, int64_t> MetricRegistry::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::string MetricRegistry::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  for (const auto& [name, value] : counters_) {
    os << name << ": " << value << "\n";
  }
  for (const auto& [name, value] : gauges_) {
    os << name << ": " << value << "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    os << name << ": " << hist->to_string() << "\n";
  }
  return os.str();
}

void MetricRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace rlgraph
