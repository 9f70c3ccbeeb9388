#include "core/arena.hpp"

#include <cstddef>
#include <new>

#include "core/contracts.hpp"
#include "core/telemetry.hpp"

namespace stf::core {

namespace {

// Cached counter references: the registry lookup locks, so it runs once.
telemetry::Counter& arena_bytes_counter() {
  static telemetry::Counter& c = telemetry::counter("mem.arena_bytes");
  return c;
}

telemetry::Counter& heap_fallback_counter() {
  static telemetry::Counter& c = telemetry::counter("mem.heap_fallbacks");
  return c;
}

// The capture arena's size. It only sizes the buffer: requests that do not
// fit fall back to the heap (counted in mem.heap_fallbacks), so it cannot
// change any numeric result.
constexpr std::size_t kCaptureArenaBytes = std::size_t{1} << 20;  // 1 MiB

}  // namespace

Arena::Arena(std::size_t capacity_bytes) : capacity_(capacity_bytes) {
  STF_REQUIRE(capacity_bytes > 0, "Arena: capacity must be > 0");
  buf_.reset(static_cast<std::byte*>(
      ::operator new(capacity_bytes, std::align_val_t{simd::kAlignment})));
}

// Hot-path bump allocation: every input (including bytes == 0 and requests
// past capacity) has defined behavior -- the heap fallback -- so there is no
// precondition to assert. stf-analyze: allow(api-contract)
void* Arena::allocate(std::size_t bytes) {
  // Round the bump pointer so every block starts on a vector-lane boundary.
  const std::size_t aligned =
      (bytes + simd::kAlignment - 1) & ~(simd::kAlignment - 1);
  if (used_ + aligned > capacity_ || aligned < bytes) {
    ++heap_fallbacks_;
    heap_fallback_counter().add(1);
    return ::operator new(bytes, std::align_val_t{simd::kAlignment});
  }
  void* p = buf_.get() + used_;
  used_ += aligned;
  if (used_ > high_water_) high_water_ = used_;
  arena_bytes_counter().add(aligned);
  return p;
}

void Arena::deallocate(void* p, std::size_t) noexcept {
  // Arena-owned blocks are reclaimed wholesale by release_to(); only
  // heap-fallback blocks need a real free.
  if (p != nullptr && !owns(p))
    ::operator delete(p, std::align_val_t{simd::kAlignment});
}

Arena& capture_arena() {
  thread_local Arena arena(kCaptureArenaBytes);
  return arena;
}

}  // namespace stf::core
