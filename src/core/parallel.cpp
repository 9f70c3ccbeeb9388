#include "core/parallel.hpp"

#include "core/annotations.hpp"
#include "core/contracts.hpp"
#include "core/env.hpp"
#include "core/telemetry.hpp"

#include <atomic>
#include <cctype>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

namespace stf::core {

namespace {

thread_local bool t_in_parallel_region = false;

/// One parallel_for invocation. Workers claim chunks with an atomic cursor;
/// completion is a count of finished chunks so the caller can wait without
/// joining threads. Held by shared_ptr: a late worker may still poke the
/// cursor after the caller has been released.
struct Job {
  std::size_t end = 0;
  std::size_t grain = 1;
  std::size_t chunks_total = 0;
  const std::function<void(std::size_t)>* body = nullptr;

  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> chunks_done{0};
  std::atomic<bool> cancelled{false};

  // Telemetry identity of the loop: the caller's innermost open span at
  // dispatch. Workers tag their participation spans with it, so the trace
  // shows pool threads working under (e.g.) "ga.generation".
  telemetry::ParallelRegion region;

  Mutex error_mutex;
  std::exception_ptr error STF_GUARDED_BY(error_mutex);
  std::size_t error_chunk STF_GUARDED_BY(error_mutex) =
      std::numeric_limits<std::size_t>::max();

  Mutex done_mutex;
  std::condition_variable done_cv;

  /// The lowest-chunk exception, for rethrow after the job drained. Taking
  /// the lock is not strictly needed for visibility (the final chunks_done
  /// acq_rel publish orders the write) but it keeps the access pattern
  /// uniform and analyzable.
  std::exception_ptr take_error() STF_EXCLUDES(error_mutex) {
    const LockGuard lock(error_mutex);
    return error;
  }
};

/// Record the exception thrown by the chunk starting at chunk_begin, keeping
/// only the lowest-indexed one so the rethrown error does not depend on
/// thread scheduling.
void record_error(Job& job, std::size_t chunk_begin)
    STF_EXCLUDES(job.error_mutex) {
  const LockGuard lock(job.error_mutex);
  if (chunk_begin < job.error_chunk) {
    job.error_chunk = chunk_begin;
    job.error = std::current_exception();
  }
}

/// Count one finished chunk; the last one releases the caller.
void count_done(Job& job) {
  const std::size_t done =
      job.chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (done == job.chunks_total) {
    // Empty critical section pairs with the caller's predicate read: the
    // notify cannot slot between the caller's check and its wait.
    { const LockGuard lock(job.done_mutex); }
    job.done_cv.notify_all();
  }
}

/// Claim and execute chunks until the job is drained. Runs on workers and on
/// the caller; every claimed chunk is counted even when skipped after a
/// failure, so chunks_done converges to chunks_total exactly once.
///
/// Each participant holds back the count of its latest chunk until a claim
/// fails, so a pool worker in a traced region records its participation
/// span (opened on its first chunk) before it counts its last chunk. The
/// caller cannot leave parallel_for before every chunk is counted, so every
/// participation span is recorded by then, and a worker that claims nothing
/// records nothing.
void work_on(Job& job, bool worker) {
  const bool traced = worker && job.region.active;
  std::size_t claimed = 0;
  std::uint64_t t0 = 0;
  while (true) {
    const std::size_t lo =
        job.cursor.fetch_add(job.grain, std::memory_order_relaxed);
    if (lo >= job.end) break;
    if (claimed != 0)
      count_done(job);  // the previous chunk: this one is held instead
    else if (traced)
      t0 = telemetry::parallel_worker_begin(job.region);
    ++claimed;
    const std::size_t hi = std::min(lo + job.grain, job.end);
    if (!job.cancelled.load(std::memory_order_relaxed)) {
      try {
        for (std::size_t i = lo; i < hi; ++i) (*job.body)(i);
      } catch (...) {
        record_error(job, lo);
        job.cancelled.store(true, std::memory_order_relaxed);
      }
    }
  }
  if (claimed == 0) return;
  if (traced) telemetry::parallel_worker_end(job.region, t0, claimed);
  count_done(job);
}

/// Persistent worker pool. One job runs at a time (run() serializes callers);
/// workers sleep between jobs. Sized at thread_count() - 1: the caller is
/// always the remaining participant.
class Pool {
 public:
  explicit Pool(std::size_t n_workers) {
    workers_.reserve(n_workers);
    for (std::size_t i = 0; i < n_workers; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ~Pool() {
    {
      const LockGuard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  void run(const std::shared_ptr<Job>& job) STF_EXCLUDES(run_mutex_, mutex_) {
    const LockGuard serialize(run_mutex_);
    {
      const LockGuard lock(mutex_);
      current_ = job;
      ++seq_;
    }
    cv_.notify_all();

    // The caller works the job too; flag the region so nested loops inline.
    t_in_parallel_region = true;
    work_on(*job, /*worker=*/false);
    t_in_parallel_region = false;

    {
      UniqueLock done_lock(job->done_mutex);
      // Predicate touches only the job's atomics, never done_mutex-guarded
      // state, so the lambda needs no capability claim.
      job->done_cv.wait(done_lock.native(), [&] {
        return job->chunks_done.load(std::memory_order_acquire) ==
               job->chunks_total;
      });
    }

    {
      const LockGuard lock(mutex_);
      if (current_ == job) current_.reset();
    }
  }

 private:
  void worker_loop() STF_EXCLUDES(mutex_) {
    std::uint64_t seen = 0;
    t_in_parallel_region = true;
    while (true) {
      std::shared_ptr<Job> job;
      {
        UniqueLock lock(mutex_);
        // Explicit wait loop (not the predicate overload): the analysis does
        // not carry lock state into lambda bodies, while here it sees the
        // guarded reads happen with mutex_ held.
        while (!stop_ && (current_ == nullptr || seq_ == seen))
          cv_.wait(lock.native());
        if (stop_) return;
        job = current_;
        seen = seq_;
      }
      work_on(*job, /*worker=*/true);
    }
  }

  Mutex run_mutex_;
  Mutex mutex_;
  std::condition_variable cv_;
  std::shared_ptr<Job> current_ STF_GUARDED_BY(mutex_);
  std::uint64_t seq_ STF_GUARDED_BY(mutex_) = 0;
  bool stop_ STF_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

Mutex g_config_mutex;
std::unique_ptr<Pool> g_pool STF_GUARDED_BY(g_config_mutex);
std::size_t g_thread_count STF_GUARDED_BY(g_config_mutex) = 0;  // 0: unset

std::size_t resolve_from_environment() {
  if (const char* env = std::getenv("STF_THREADS"); env != nullptr)
    return parse_thread_count(env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? static_cast<std::size_t>(hw) : 1;
}

std::size_t thread_count_locked() STF_REQUIRES(g_config_mutex) {
  if (g_thread_count == 0) g_thread_count = resolve_from_environment();
  return g_thread_count;
}

}  // namespace

std::size_t parse_thread_count(const std::string& text) {
  // The overflow-safe digit accumulation now lives in core/env so every
  // STF_* variable shares it; this wrapper keeps the historical API and
  // the [1, kMaxThreads] range.
  return static_cast<std::size_t>(
      env::parse_u64("STF_THREADS", text, 1, kMaxThreads));
}

std::size_t thread_count() {
  const LockGuard lock(g_config_mutex);
  return thread_count_locked();
}

void set_thread_count(std::size_t n) {
  if (n > kMaxThreads) n = kMaxThreads;
  // Resolve outside the critical section: parse_thread_count may throw and
  // must leave the current configuration untouched.
  const std::size_t resolved = n != 0 ? n : resolve_from_environment();
  const LockGuard lock(g_config_mutex);
  if (resolved == g_thread_count) return;
  g_pool.reset();  // joins workers; rebuilt lazily at the new size
  g_thread_count = resolved;
}

bool in_parallel_region() noexcept { return t_in_parallel_region; }

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  STF_REQUIRE(body, "parallel_for: null body");
  if (begin >= end) return;
  const std::size_t n = end - begin;

  std::size_t threads = 1;
  Pool* pool = nullptr;
  if (!t_in_parallel_region) {
    const LockGuard lock(g_config_mutex);
    threads = thread_count_locked();
    if (threads > 1 && n > 1) {
      if (!g_pool) g_pool = std::make_unique<Pool>(threads - 1);
      pool = g_pool.get();
    }
  }

  if (grain == 0) {
    // ~4 chunks per participant balances load without drowning cheap bodies
    // in dispatch overhead.
    grain = std::max<std::size_t>(1, n / (threads * 4));
  }

  if (pool == nullptr || n <= grain) {
    // Serial fallback: 1 thread configured, nested call, or a range too
    // small to split. Runs inline; exceptions propagate naturally.
    const bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    try {
      for (std::size_t i = begin; i < end; ++i) body(i);
    } catch (...) {
      t_in_parallel_region = was_in_region;
      throw;
    }
    t_in_parallel_region = was_in_region;
    return;
  }

  auto job = std::make_shared<Job>();
  job->end = end;
  job->grain = grain;
  job->chunks_total = (n + grain - 1) / grain;
  job->body = &body;
  job->cursor.store(begin, std::memory_order_relaxed);
  job->region = telemetry::parallel_region_begin("parallel_for");

  pool->run(job);

  if (auto error = job->take_error(); error) std::rethrow_exception(error);
}

}  // namespace stf::core
