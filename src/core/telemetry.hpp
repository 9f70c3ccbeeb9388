// Telemetry: process-wide spans, counters and value histograms for the
// signature-test pipeline, with summary-table / JSON / Chrome trace_event
// exporters.
//
// The framework's pitch is economic -- a capture-plus-regression costs
// milliseconds on cheap hardware -- so the repo must be able to show *where*
// those milliseconds go. This layer provides three primitives:
//
//   STF_TRACE_SPAN("ga.generation");       // scoped RAII wall-time span
//   STF_COUNT("fft.plan_cache_hit");       // named monotonic counter (+n ok)
//   STF_RECORD("acq.capture_us", t_us);    // named value histogram
//
// Spans nest per thread (each thread keeps its own open-span stack), and the
// parallel execution core attaches worker participation to the span that
// spawned the loop: parallel_for captures the caller's innermost open span as
// a ParallelRegion, and every pool worker that claims chunks of that loop
// records a worker span carrying the region's name, a flow id linking it to
// the dispatching thread, and the number of chunks it executed. In the Chrome
// trace each thread is its own track, and flow events draw the dispatch
// arrows.
//
// Cost model (same pattern as contracts.hpp):
//   * compile-time gate: CMake option SIGTEST_TELEMETRY defines
//     STF_TELEMETRY=1/0; when 0, every macro expands to nothing (operands are
//     named unevaluated so -Werror sees them "used") and enabled() is a
//     constexpr false, so instrumented code compiles to exactly the
//     uninstrumented binary;
//   * runtime gate: even when compiled in, nothing is recorded until
//     set_enabled(true) (or the STF_TELEMETRY=1 environment variable); a
//     disabled call site costs one relaxed atomic load.
//
// Thread safety: everything here may be called concurrently. Span events go
// to per-thread logs (uncontended mutex per append); counters are atomics;
// exporters take the registry lock and snapshot. reset() clears collected
// data but never invalidates Counter references or thread logs; call it only
// while no spans are open.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#if !defined(STF_TELEMETRY)
#define STF_TELEMETRY 1
#endif

namespace stf::core::telemetry {

/// Whether telemetry is compiled into this translation unit.
constexpr bool compiled() noexcept { return STF_TELEMETRY != 0; }

#if STF_TELEMETRY
/// Runtime collection gate. Resolved lazily on first call: the STF_TELEMETRY
/// environment variable ("1"/"true"/"on" enables), default off.
bool enabled() noexcept;
#else
constexpr bool enabled() noexcept { return false; }
#endif

/// Turn collection on/off at runtime (overrides the environment).
void set_enabled(bool on);

/// Clear every collected span event, counter value and histogram. Counter
/// references and thread logs stay valid. Call only while no spans are open.
void reset();

/// Cap on buffered span events per thread; events past it are counted per
/// thread as dropped and surfaced by summary() ("N DROPPED") and to_json()
/// ("dropped_events"). Pass 0 to restore the built-in default (2^20).
/// Lowering the cap does not truncate already-buffered events.
void set_max_events_per_thread(std::size_t cap);

/// Current per-thread event-log cap.
std::size_t max_events_per_thread();

/// Monotonic clock in nanoseconds since the process's telemetry epoch (the
/// first telemetry touch). All span timestamps share this epoch.
std::uint64_t now_ns();

// ---------------------------------------------------------------------------
// Counters and histograms
// ---------------------------------------------------------------------------

/// A named monotonic counter. Obtained from counter(); lives for the whole
/// process (reset() zeroes the value, never destroys the object), so call
/// sites may cache references.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void zero() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Find-or-create the counter registered under `name`. The reference is
/// never invalidated.
Counter& counter(std::string_view name);

/// Current value of a counter, or 0 if it was never touched.
std::uint64_t counter_value(std::string_view name);

/// Increment a named counter by `delta` (registry lookup per call; cache a
/// counter() reference on hot paths if the lookup ever shows up).
void count_event(const char* name, std::uint64_t delta = 1);

/// Aggregated statistics of a value histogram (STF_RECORD).
struct HistogramStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean() const {
    return count != 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

/// Record one sample into the named histogram.
void record_value(const char* name, double value);

/// Snapshot of a histogram, or a zero struct if it was never touched.
HistogramStats histogram_stats(std::string_view name);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Scoped wall-time span. Use the STF_TRACE_SPAN macro; `name` must outlive
/// the telemetry registry (string literals only). Captures the runtime gate
/// at construction, so toggling mid-span still closes cleanly.
class SpanScope {
 public:
  explicit SpanScope(const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
  bool active_ = false;
};

/// Aggregated statistics of one span name (across all threads). Worker
/// participation spans aggregate under "<region>/workers".
struct SpanStats {
  std::uint64_t count = 0;      ///< Completed spans.
  std::uint64_t total_ns = 0;   ///< Summed wall time.
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint32_t max_depth = 0;  ///< Deepest nesting level observed.
  std::size_t threads = 0;      ///< Distinct threads that recorded it.
};

/// Snapshot of a span's statistics, or a zero struct if never recorded.
/// Worker spans of a region are keyed "<region>/workers".
SpanStats span_stats(std::string_view name);

/// Total completed span events (spans + worker spans) across all threads.
std::size_t span_event_count();

/// Events discarded because a per-thread log hit its size cap.
std::uint64_t dropped_event_count();

// ---------------------------------------------------------------------------
// Parallel-core integration (called by stf::core::parallel_for; not intended
// for direct use elsewhere)
// ---------------------------------------------------------------------------

/// A parallel loop's identity from the telemetry perspective: the caller's
/// innermost open span (or a fallback label) plus a flow id that links the
/// dispatching thread to every worker that participates.
struct ParallelRegion {
  const char* name = nullptr;
  std::uint64_t flow_id = 0;
  bool active = false;
};

/// Called on the dispatching thread before a loop fans out. Records a flow
/// origin on the caller and returns the region token workers tag their
/// participation spans with. Inactive (and free) when collection is off.
ParallelRegion parallel_region_begin(const char* fallback_name);

/// Called on a pool worker when it claims its first chunk of an active
/// `region`. Pushes the region onto this thread's span stack so spans opened
/// inside loop bodies nest under it. Returns the start timestamp.
std::uint64_t parallel_worker_begin(const ParallelRegion& region);

/// Closes the participation of a worker that executed `chunks` > 0 chunks
/// of an active `region`: pops the stack and records a "<region>/workers"
/// span. The pool calls it before counting the worker's last chunk done, so
/// the span is recorded by the time parallel_for returns.
void parallel_worker_end(const ParallelRegion& region, std::uint64_t start_ns,
                         std::size_t chunks);

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Human-readable summary: span table (count/total/mean/min/max), counters,
/// histograms, thread and drop accounting.
std::string summary();

/// Machine-readable aggregate: {"spans": {...}, "counters": {...},
/// "histograms": {...}, "threads": N, "dropped_events": N}.
std::string to_json();

/// Chrome trace_event JSON (the {"traceEvents": [...]} form) loadable in
/// chrome://tracing and Perfetto: one track per thread, "X" complete events
/// for spans, "s"/"t" flow events linking parallel dispatch to workers,
/// thread-name metadata, and final counter values as "C" events.
std::string chrome_trace();

/// Never defined: lets disabled macros name their operands unevaluated (the
/// contracts.hpp trick that keeps -Werror quiet about unused values).
template <class... Args>
bool unevaluated_use(Args&&...) noexcept;

}  // namespace stf::core::telemetry

#define STF_TELEM_CONCAT2_(a, b) a##b
#define STF_TELEM_CONCAT_(a, b) STF_TELEM_CONCAT2_(a, b)

#if STF_TELEMETRY

/// Scoped span covering the rest of the enclosing block.
#define STF_TRACE_SPAN(name)                     \
  const ::stf::core::telemetry::SpanScope STF_TELEM_CONCAT_( \
      stf_telem_span_, __LINE__)(name)

/// STF_COUNT("name") or STF_COUNT("name", delta).
#define STF_COUNT(...)                                  \
  do {                                                  \
    if (::stf::core::telemetry::enabled())              \
      ::stf::core::telemetry::count_event(__VA_ARGS__); \
  } while (false)

/// Record `value` into histogram `name`; the value expression is evaluated
/// only while collection is enabled.
#define STF_RECORD(name, value)                            \
  do {                                                     \
    if (::stf::core::telemetry::enabled())                 \
      ::stf::core::telemetry::record_value(name, (value)); \
  } while (false)

#else  // STF_TELEMETRY == 0: name the operands unevaluated, emit nothing.

#define STF_TELEM_IGNORE_(...) \
  static_cast<void>(sizeof(::stf::core::telemetry::unevaluated_use(__VA_ARGS__)))

#define STF_TRACE_SPAN(name) STF_TELEM_IGNORE_(name)
#define STF_COUNT(...) STF_TELEM_IGNORE_(__VA_ARGS__)
#define STF_RECORD(name, value) STF_TELEM_IGNORE_(name, value)

#endif  // STF_TELEMETRY
