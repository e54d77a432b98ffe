#include "util/trace.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/json.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace rlgraph {
namespace trace {

namespace internal {
std::atomic<bool> g_enabled{false};

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          TraceClock::now().time_since_epoch())
          .count());
}
}  // namespace internal

namespace {

struct Event {
  std::string name;
  std::string detail;
  const char* cat = nullptr;
  const char* akey = nullptr;
  const char* bkey = nullptr;
  int64_t aval = 0;
  int64_t bval = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t tid = 0;
};

// One ring per thread. The owning thread appends; start()/stop()/export
// read under the same mutex. Contention is one thread deep per buffer, so
// the lock costs an uncontended CAS pair per event — cheap enough for the
// enabled path, and absent entirely from the disabled path.
//
// Every push also lands in the per-name aggregate, so counts and totals
// cover every span ever recorded; the ring keeps only the newest
// kRingCapacity events, for the Chrome export.
struct ThreadRing {
  std::mutex mutex;
  std::vector<Event> ring;  // capacity kRingCapacity, index = total % cap
  uint64_t total = 0;       // events ever pushed since last reset
  uint32_t tid = 0;
  // unique_ptr: Histogram is neither movable nor copyable.
  std::unordered_map<std::string, std::unique_ptr<Histogram>> aggregates;

  void push(Event e) {
    std::lock_guard<std::mutex> lock(mutex);
    std::unique_ptr<Histogram>& agg = aggregates[e.name];
    if (agg == nullptr) agg = std::make_unique<Histogram>();
    agg->record(static_cast<double>(e.dur_ns) * 1e-9);
    e.tid = tid;
    if (ring.size() < kRingCapacity) {
      ring.push_back(std::move(e));
    } else {
      ring[static_cast<size_t>(total % kRingCapacity)] = std::move(e);
    }
    ++total;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex);
    ring.clear();
    ring.shrink_to_fit();
    total = 0;
    aggregates.clear();
  }
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  uint32_t next_tid = 1;
  std::string path;        // where stop() writes; empty = memory only
  uint64_t base_ns = 0;    // trace epoch (start() time)
  bool collecting = false;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during exit handlers
  return *r;
}

std::vector<std::shared_ptr<ThreadRing>> all_rings() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.rings;
}

ThreadRing& thread_ring() {
  thread_local std::shared_ptr<ThreadRing> t_ring = [] {
    auto ring = std::make_shared<ThreadRing>();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    ring->tid = reg.next_tid++;
    reg.rings.push_back(ring);
    return ring;
  }();
  return *t_ring;
}

// Snapshot every ring in tid order, oldest event first within a ring.
std::vector<Event> snapshot() {
  std::vector<Event> events;
  for (const auto& ring : all_rings()) {
    std::lock_guard<std::mutex> lock(ring->mutex);
    const size_t n = ring->ring.size();
    const size_t head =
        ring->total > kRingCapacity
            ? static_cast<size_t>(ring->total % kRingCapacity)
            : 0;
    for (size_t i = 0; i < n; ++i) {
      events.push_back(ring->ring[(head + i) % n]);
    }
  }
  return events;
}

}  // namespace

namespace internal {

void record(const char* cat, std::string name, uint64_t start_ns,
            uint64_t end_ns, std::string detail, const char* akey,
            int64_t aval, const char* bkey, int64_t bval) {
  Event e;
  e.name = std::move(name);
  e.detail = std::move(detail);
  e.cat = cat;
  e.akey = akey;
  e.aval = aval;
  e.bkey = bkey;
  e.bval = bval;
  e.start_ns = start_ns;
  e.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  thread_ring().push(std::move(e));
}

}  // namespace internal

void record_span(const char* cat, std::string name,
                 TraceClock::time_point begin, TraceClock::time_point end,
                 const char* akey, int64_t aval, const char* bkey,
                 int64_t bval) {
  if (!enabled()) return;
  internal::record(
      cat, std::move(name),
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                begin.time_since_epoch())
                                .count()),
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                end.time_since_epoch())
                                .count()),
      std::string(), akey, aval, bkey, bval);
}

void start(const std::string& path) {
  Registry& reg = registry();
  reset();
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.path = path;
    reg.base_ns = internal::now_ns();
    reg.collecting = true;
  }
  internal::g_enabled.store(true, std::memory_order_release);
}

bool collecting() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.collecting;
}

void reset() {
  for (const auto& ring : all_rings()) ring->clear();
}

int64_t event_count() {
  int64_t count = 0;
  for (const auto& ring : all_rings()) {
    std::lock_guard<std::mutex> lock(ring->mutex);
    count += static_cast<int64_t>(ring->ring.size());
  }
  return count;
}

int64_t dropped_events() {
  int64_t dropped = 0;
  for (const auto& ring : all_rings()) {
    std::lock_guard<std::mutex> lock(ring->mutex);
    if (ring->total > kRingCapacity) {
      dropped += static_cast<int64_t>(ring->total - kRingCapacity);
    }
  }
  return dropped;
}

Json to_json() {
  Registry& reg = registry();
  uint64_t base_ns;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    base_ns = reg.base_ns;
  }
  std::vector<Event> events = snapshot();
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.dur_ns > b.dur_ns;
            });

  JsonArray rows;
  rows.reserve(events.size());
  std::vector<uint32_t> tids;
  for (const Event& e : events) {
    Json row;
    row["name"] = Json(e.name);
    row["cat"] = Json(e.cat != nullptr ? e.cat : "misc");
    row["ph"] = Json("X");
    row["pid"] = Json(static_cast<int64_t>(1));
    row["tid"] = Json(static_cast<int64_t>(e.tid));
    // Chrome wants microseconds; keep sub-microsecond precision fractional.
    const uint64_t rel_ns = e.start_ns >= base_ns ? e.start_ns - base_ns : 0;
    row["ts"] = Json(static_cast<double>(rel_ns) / 1000.0);
    row["dur"] = Json(static_cast<double>(e.dur_ns) / 1000.0);
    JsonObject args;
    if (!e.detail.empty()) args["detail"] = Json(e.detail);
    if (e.akey != nullptr) args[e.akey] = Json(e.aval);
    if (e.bkey != nullptr) args[e.bkey] = Json(e.bval);
    if (!args.empty()) row["args"] = Json(std::move(args));
    rows.push_back(std::move(row));
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end()) {
      tids.push_back(e.tid);
    }
  }
  for (uint32_t tid : tids) {
    Json meta;
    meta["name"] = Json("thread_name");
    meta["ph"] = Json("M");
    meta["pid"] = Json(static_cast<int64_t>(1));
    meta["tid"] = Json(static_cast<int64_t>(tid));
    JsonObject args;
    args["name"] = Json("thread " + std::to_string(tid));
    meta["args"] = Json(std::move(args));
    rows.push_back(std::move(meta));
  }

  Json doc;
  doc["traceEvents"] = Json(std::move(rows));
  doc["displayTimeUnit"] = Json("ms");
  return doc;
}

std::map<std::string, HistogramSnapshot> aggregates() {
  std::map<std::string, HistogramSnapshot> merged;
  for (const auto& ring : all_rings()) {
    std::lock_guard<std::mutex> lock(ring->mutex);
    for (const auto& [name, hist] : ring->aggregates) {
      const HistogramSnapshot snap = hist->snapshot_total();
      HistogramSnapshot& into = merged[name];
      into.buckets.resize(snap.buckets.size());
      into.count += snap.count;
      into.sum += snap.sum;
      for (size_t i = 0; i < snap.buckets.size(); ++i) {
        into.buckets[i] += snap.buckets[i];
      }
    }
  }
  return merged;
}

std::string summary() {
  const std::map<std::string, HistogramSnapshot> by_name = aggregates();
  std::vector<const std::pair<const std::string, HistogramSnapshot>*> order;
  order.reserve(by_name.size());
  int64_t spans = 0;
  for (const auto& entry : by_name) {
    order.push_back(&entry);
    spans += entry.second.count;
  }
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    return a->second.sum > b->second.sum;
  });

  std::string out = "trace summary (" + std::to_string(spans) +
                    " spans; export keeps " + std::to_string(event_count()) +
                    ", " + std::to_string(dropped_events()) + " dropped):\n";
  char line[256];
  for (const auto* entry : order) {
    const HistogramSnapshot& a = entry->second;
    std::snprintf(line, sizeof(line),
                  "  %-32s count=%-8lld total=%.6fs mean=%.2fus p50=%.2fus "
                  "p95=%.2fus p99=%.2fus\n",
                  entry->first.c_str(), static_cast<long long>(a.count),
                  a.sum, a.mean() * 1e6, a.p50() * 1e6, a.p95() * 1e6,
                  a.p99() * 1e6);
    out += line;
  }
  return out;
}

std::string stop() {
  internal::g_enabled.store(false, std::memory_order_release);
  Registry& reg = registry();
  std::string path;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    if (!reg.collecting) return "";
    reg.collecting = false;
    path = reg.path;
  }
  std::string report = summary();
  if (!path.empty()) {
    std::ofstream out(path);
    if (out) {
      out << to_json().dump(1) << "\n";
      RLG_LOG_INFO << "trace: wrote " << event_count() << " spans to " << path;
    } else {
      RLG_LOG_ERROR << "trace: cannot write " << path;
    }
  }
  return report;
}

namespace {

// RLGRAPH_TRACE=<path>: collect for the whole process lifetime, flush at
// exit. Registered from a static initializer; only touches trace-internal
// state, so static-init order is irrelevant.
struct EnvTrace {
  EnvTrace() {
    const char* path = std::getenv("RLGRAPH_TRACE");
    if (path == nullptr || path[0] == '\0') return;
    start(path);
    std::atexit([] {
      if (collecting()) stop();
    });
  }
};
EnvTrace g_env_trace;

}  // namespace

}  // namespace trace
}  // namespace rlgraph
