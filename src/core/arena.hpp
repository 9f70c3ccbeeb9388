// Monotonic arena allocator for per-device capture scratch.
//
// The batched production runtime processes hundreds of thousands of devices;
// every std::vector the hot path allocates per device turns into allocator
// lock traffic and cache-cold pages. An Arena is a short_alloc-style bump
// allocator over one pre-sized buffer: allocation is a pointer increment,
// deallocation is a no-op, and a whole device's scratch is reclaimed at once
// by rewinding to a mark. `SignatureAcquirer` and `TestCell` route all
// steady-state capture scratch through per-thread arenas, so per-device heap
// allocations drop to zero.
//
// Telemetry proves the claim rather than asserting it on faith:
//   mem.arena_bytes     total bytes served from arena buffers
//   mem.heap_fallbacks  requests that did not fit and fell back to the heap
// Tests pin mem.heap_fallbacks to zero across a steady-state lot.
//
// Lifetime rules (see DESIGN.md §12):
//   * An Arena is single-threaded; share nothing. Hot paths use the
//     per-thread capture_arena().
//   * ArenaScope marks on entry and rewinds on exit: memory obtained inside
//     the scope is dead after it. Never let arena-backed containers or spans
//     escape the scope that allocated them.
//   * Oversize requests fall back to the global heap (counted, never fatal),
//     so correctness never depends on the buffer size -- only steady-state
//     allocation behavior does.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "core/simd.hpp"

namespace stf::core {

/// Bump allocator over a single aligned buffer. Not thread-safe: each
/// thread owns its own arena (see capture_arena()).
class Arena {
 public:
  /// Rewind token from mark(); only valid on the arena that produced it.
  struct Mark {
    std::size_t offset = 0;
  };

  explicit Arena(std::size_t capacity_bytes);
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocate `bytes` aligned to simd::kAlignment. Requests that do
  /// not fit fall back to the global heap and count mem.heap_fallbacks.
  void* allocate(std::size_t bytes);

  /// No-op for arena-owned blocks; frees heap-fallback blocks.
  void deallocate(void* p, std::size_t bytes) noexcept;

  /// Current bump position, for later release_to().
  Mark mark() const noexcept { return Mark{used_}; }

  /// Rewind the bump pointer; everything allocated after `m` is dead.
  void release_to(Mark m) noexcept {
    if (m.offset <= used_) used_ = m.offset;
  }

  /// Rewind everything.
  void reset() noexcept { used_ = 0; }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t used() const noexcept { return used_; }
  /// Peak bump offset observed since construction; sizing aid.
  std::size_t high_water() const noexcept { return high_water_; }
  /// Heap-fallback count for THIS arena (the telemetry counter aggregates
  /// across arenas).
  std::uint64_t heap_fallbacks() const noexcept { return heap_fallbacks_; }

  /// True when p points into the arena buffer.
  bool owns(const void* p) const noexcept {
    const auto* b = reinterpret_cast<const std::byte*>(p);
    return b >= buf_.get() && b < buf_.get() + capacity_;
  }

 private:
  struct AlignedDelete {
    void operator()(std::byte* p) const noexcept {
      ::operator delete(p, std::align_val_t{simd::kAlignment});
    }
  };

  std::unique_ptr<std::byte[], AlignedDelete> buf_;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t heap_fallbacks_ = 0;
};

/// RAII mark/rewind: scratch allocated inside the scope is reclaimed (and
/// invalid) when the scope ends.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_(arena), mark_(arena.mark()) {}
  ~ArenaScope() { arena_.release_to(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

/// std::allocator-compatible handle. A default-constructed (or null-arena)
/// allocator serves from the global heap, so arena-typed containers degrade
/// gracefully outside hot paths.
template <class T>
class ArenaAllocator {
 public:
  using value_type = T;

  ArenaAllocator() noexcept = default;
  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <class U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept  // NOLINT
      : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (arena_ == nullptr) {
      return static_cast<T*>(
          ::operator new(bytes, std::align_val_t{simd::kAlignment}));
    }
    return static_cast<T*>(arena_->allocate(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (arena_ == nullptr) {
      ::operator delete(p, std::align_val_t{simd::kAlignment});
      return;
    }
    arena_->deallocate(p, n * sizeof(T));
  }

  Arena* arena() const noexcept { return arena_; }

  template <class U>
  bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena_ == other.arena();
  }
  template <class U>
  bool operator!=(const ArenaAllocator<U>& other) const noexcept {
    return arena_ != other.arena();
  }

 private:
  Arena* arena_ = nullptr;
};

/// Vector whose storage comes from an Arena. Reserve up front: growth
/// re-allocates and the old block is only reclaimed at scope rewind.
template <class T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

/// Per-thread 1 MiB arena for capture scratch, created on first use per
/// thread. Requests that do not fit fall back to the heap.
Arena& capture_arena();

}  // namespace stf::core
