#include "tensor/buffer_pool.h"

#include <atomic>
#include <mutex>
#include <new>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rlgraph {

namespace {
thread_local BufferPool* t_current_pool = nullptr;
}  // namespace

struct BufferPool::State {
  std::mutex mutex;  // guards free_lists only; counters are atomic
  std::unordered_map<size_t, std::vector<void*>> free_lists;
  size_t max_pooled;
  std::atomic<size_t> pooled{0};
  std::atomic<int64_t> reused{0};
  std::atomic<int64_t> allocated{0};
};

// Bounded per-thread stash of freed buffers. The deleter parks a buffer
// here when the freeing thread has room, and allocate() checks it before
// the shared lists, so a thread that frees and reallocates the same shapes
// run after run (every parallel-executor worker does) never touches the
// shared mutex. Entries pin their pool's State; thread exit returns them
// to the shared lists (or the heap, if the pool is over its cap).
struct BufferPool::ThreadCache {
  struct Entry {
    std::shared_ptr<State> state;
    size_t bytes = 0;
    void* ptr = nullptr;
  };
  static constexpr size_t kCapacity = 16;
  Entry entries[kCapacity];
  size_t size = 0;

  static ThreadCache& get() {
    thread_local ThreadCache cache;
    return cache;
  }

  ~ThreadCache() {
    for (size_t i = 0; i < size; ++i) release_to_shared(entries[i]);
  }

  static void release_to_shared(Entry& e) {
    {
      std::lock_guard<std::mutex> lock(e.state->mutex);
      // pooled already counts this entry; only the list membership moves.
      e.state->free_lists[e.bytes].push_back(e.ptr);
    }
    e.state.reset();
  }

  bool put(const std::shared_ptr<State>& state, size_t bytes, void* p) {
    if (size == kCapacity) return false;
    entries[size].state = state;
    entries[size].bytes = bytes;
    entries[size].ptr = p;
    ++size;
    return true;
  }

  void* take(const State* state, size_t bytes) {
    for (size_t i = size; i-- > 0;) {
      if (entries[i].state.get() == state && entries[i].bytes == bytes) {
        void* p = entries[i].ptr;
        entries[i] = std::move(entries[--size]);
        entries[size] = Entry{};
        return p;
      }
    }
    return nullptr;
  }
};

BufferPool::BufferPool(size_t max_pooled_bytes)
    : state_(std::make_shared<State>()) {
  state_->max_pooled = max_pooled_bytes;
}

BufferPool::~BufferPool() { trim(); }

std::shared_ptr<void> BufferPool::allocate(size_t bytes) {
  if (bytes == 0) bytes = 1;
  void* p = ThreadCache::get().take(state_.get(), bytes);
  if (p != nullptr) {
    state_->pooled.fetch_sub(bytes, std::memory_order_relaxed);
    state_->reused.fetch_add(static_cast<int64_t>(bytes),
                             std::memory_order_relaxed);
  } else {
    std::lock_guard<std::mutex> lock(state_->mutex);
    auto it = state_->free_lists.find(bytes);
    if (it != state_->free_lists.end() && !it->second.empty()) {
      p = it->second.back();
      it->second.pop_back();
      state_->pooled.fetch_sub(bytes, std::memory_order_relaxed);
      state_->reused.fetch_add(static_cast<int64_t>(bytes),
                               std::memory_order_relaxed);
    } else {
      state_->allocated.fetch_add(static_cast<int64_t>(bytes),
                                  std::memory_order_relaxed);
    }
  }
  if (p == nullptr) p = ::operator new(bytes);
  // The deleter owns a reference to the pool state, so returns stay valid
  // after the BufferPool object itself is gone.
  std::shared_ptr<State> state = state_;
  return std::shared_ptr<void>(p, [state, bytes](void* q) {
    // Retention check is racy-but-benign: a transient overshoot of
    // max_pooled by a few buffers is acceptable, permanent growth is not.
    if (state->pooled.load(std::memory_order_relaxed) + bytes <=
        state->max_pooled) {
      state->pooled.fetch_add(bytes, std::memory_order_relaxed);
      if (ThreadCache::get().put(state, bytes, q)) return;
      {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->free_lists[bytes].push_back(q);
      }
      return;
    }
    ::operator delete(q);
  });
}

void BufferPool::trim() {
  std::lock_guard<std::mutex> lock(state_->mutex);
  size_t freed = 0;
  for (auto& [bytes, list] : state_->free_lists) {
    for (void* p : list) ::operator delete(p);
    freed += bytes * list.size();
    list.clear();
  }
  state_->free_lists.clear();
  state_->pooled.fetch_sub(freed, std::memory_order_relaxed);
}

int64_t BufferPool::bytes_reused() const {
  return state_->reused.load(std::memory_order_relaxed);
}

int64_t BufferPool::bytes_allocated() const {
  return state_->allocated.load(std::memory_order_relaxed);
}

int64_t BufferPool::pooled_bytes() const {
  return static_cast<int64_t>(state_->pooled.load(std::memory_order_relaxed));
}

BufferPool* BufferPool::current() { return t_current_pool; }

BufferPoolScope::BufferPoolScope(BufferPool* pool) : previous_(t_current_pool) {
  t_current_pool = pool;
}

BufferPoolScope::~BufferPoolScope() { t_current_pool = previous_; }

}  // namespace rlgraph
