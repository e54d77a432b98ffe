// Size-class buffer pool backing steady-state tensor allocation.
//
// A CompiledPlan run produces the same tensor shapes on every invocation;
// without pooling, each run pays one heap allocation per intermediate. The
// pool recycles buffers by exact byte size: while a pool is active on the
// current thread (see BufferPoolScope), Tensor allocations are served from
// its free lists, and buffers return to the pool when their last Tensor
// handle dies — whenever that happens, on whatever thread. The return path
// is carried by the buffer's deleter, which keeps the pool state alive via
// a shared_ptr, so a pool may be destroyed while buffers it allocated are
// still in flight (they then free normally).
//
// Thread safety: the shared free lists are mutex-guarded, and each thread
// additionally keeps a small bounded cache of recently freed buffers, so
// the steady-state alloc/free cycle on parallel-executor threads skips the
// shared mutex entirely. Stats counters are atomics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace rlgraph {

class BufferPool {
 public:
  // `max_pooled_bytes` caps how many bytes the free lists may retain;
  // returns beyond the cap free immediately.
  explicit BufferPool(size_t max_pooled_bytes = 64ull << 20);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Allocate `bytes` from this thread's cache, the shared free lists
  // (exact-size match), or the heap.
  std::shared_ptr<void> allocate(size_t bytes);

  // Drop all retained free buffers from the shared lists. Buffers parked
  // in other threads' caches stay there until those threads free or exit.
  void trim();

  // --- stats ---------------------------------------------------------------
  // Bytes served from the free lists or a thread cache (reuse) vs. fresh
  // heap allocations.
  int64_t bytes_reused() const;
  int64_t bytes_allocated() const;
  // Bytes currently retained (shared lists + thread caches).
  int64_t pooled_bytes() const;

  // The pool active on this thread (set by BufferPoolScope), or nullptr.
  static BufferPool* current();

 private:
  friend class BufferPoolScope;

  struct State;
  struct ThreadCache;

  std::shared_ptr<State> state_;
};

// RAII activation of a pool for the current thread. Nests (restores the
// previously active pool on destruction).
class BufferPoolScope {
 public:
  explicit BufferPoolScope(BufferPool* pool);
  ~BufferPoolScope();

  BufferPoolScope(const BufferPoolScope&) = delete;
  BufferPoolScope& operator=(const BufferPoolScope&) = delete;

 private:
  BufferPool* previous_;
};

}  // namespace rlgraph
