// Parallel execution core: a lazily-initialized thread pool behind
// parallel_for.
//
// The framework's hot loops (GA population evaluation, perturbation-set
// sensitivities, Monte-Carlo characterization, per-spec regression fits) are
// embarrassingly parallel: every item is a pure function of its index. This
// layer fans those loops out across a process-wide worker pool while keeping
// results bit-identical to serial execution -- each item writes only its own
// slot, no reduction order ever changes, and randomness must come from
// per-item derived streams (stf::stats::Rng::derive), never a shared engine.
//
// Thread-safety contract for loop bodies (see DESIGN.md "Parallel execution
// core"):
//   * a body may read shared state freely but may write only to locations
//     owned by its index (its row/column/element of a preallocated output);
//   * callables captured by a body (objectives, device factories) are invoked
//     concurrently and must be thread-safe;
//   * bodies must not call set_thread_count().
//
// Configuration: STF_THREADS=<n> pins the worker count (validated; malformed
// values throw std::invalid_argument), otherwise std::thread::
// hardware_concurrency() is used. One thread means no pool is ever spawned
// and every loop runs inline on the caller. Nested parallel_for calls --
// from a worker or from a body running on the caller -- also execute inline,
// so composed layers (a parallel GA objective invoking a parallel
// sensitivity computation) cannot deadlock the pool.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace stf::core {

/// Upper bound on the configurable worker count.
inline constexpr std::size_t kMaxThreads = 1024;

/// Parse an STF_THREADS-style value: a base-10 integer in [1, kMaxThreads],
/// optionally surrounded by whitespace. Throws std::invalid_argument on
/// anything else (empty, non-numeric, zero, negative, out of range). This is
/// an always-on validation -- external configuration is never trusted, even
/// in unchecked builds.
std::size_t parse_thread_count(const std::string& text);

/// Number of threads parallel loops fan out over (>= 1). Resolved on first
/// use: STF_THREADS if set (throwing on malformed values), else
/// hardware_concurrency(), else 1.
std::size_t thread_count();

/// Override the thread count. n == 0 re-resolves from the environment, which
/// tears down any existing pool first; otherwise the pool is rebuilt lazily
/// at the new size on the next parallel loop. Not safe to call concurrently
/// with a running parallel loop.
void set_thread_count(std::size_t n);

/// True while the calling thread is executing inside a parallel_for body
/// (worker or participating caller). Nested loops observe this and run
/// inline.
bool in_parallel_region() noexcept;

/// Run body(i) for every i in [begin, end), fanned out over the pool in
/// chunks. Blocks until every index completed. grain == 0 picks a chunk size
/// automatically (~4 chunks per worker); larger grains amortize dispatch for
/// cheap bodies. If any body throws, the loop still drains (remaining chunks
/// are skipped), and the exception from the lowest-indexed failing chunk is
/// rethrown on the caller -- deterministic regardless of thread count.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 0);

}  // namespace stf::core
