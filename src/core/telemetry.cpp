#include "core/telemetry.hpp"

#include "core/annotations.hpp"
#include "core/contracts.hpp"
#include "core/env.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <vector>

namespace stf::core::telemetry {

namespace {

/// Per-thread event logs are capped so a runaway loop cannot exhaust memory;
/// further events are counted as dropped and reported by the exporters. The
/// cap is adjustable (set_max_events_per_thread) so tests and
/// memory-constrained deployments can shrink it.
constexpr std::size_t kDefaultMaxEventsPerThread = std::size_t{1} << 20;
std::atomic<std::size_t> g_max_events_per_thread{kDefaultMaxEventsPerThread};

enum class Kind : std::uint8_t {
  span,        ///< Closed STF_TRACE_SPAN.
  worker_span, ///< Pool worker's participation in a parallel region.
  flow_start,  ///< Dispatch point of a parallel region (flow origin).
};

struct Event {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t flow_id = 0;
  std::uint64_t chunks = 0;
  std::uint32_t depth = 0;
  Kind kind = Kind::span;
};

/// One thread's collected events plus its (owner-only) open-span stack.
struct ThreadLog {
  explicit ThreadLog(std::uint32_t tid) : tid(tid) {}

  const std::uint32_t tid;
  Mutex mutex;
  std::vector<Event> events STF_GUARDED_BY(mutex);
  std::uint64_t dropped STF_GUARDED_BY(mutex) = 0;
  std::vector<const char*> open;    // touched only by the owning thread
};

struct Histogram {
  Mutex mutex;
  HistogramStats stats STF_GUARDED_BY(mutex);
};

/// Global registry. Leaked on purpose: pool worker threads and thread_local
/// caches may outlive static destruction order, so the registry must never
/// be destroyed.
struct Registry {
  Mutex mutex;
  std::vector<std::unique_ptr<ThreadLog>> logs STF_GUARDED_BY(mutex);
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters
      STF_GUARDED_BY(mutex);
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms
      STF_GUARDED_BY(mutex);
  std::atomic<std::uint64_t> next_flow{1};
};

Registry& registry() {
  static Registry* r = new Registry();  // intentionally leaked, see above
  return *r;
}

ThreadLog& thread_log() {
  thread_local ThreadLog* t_log = nullptr;
  if (t_log == nullptr) {
    Registry& reg = registry();
    const LockGuard lock(reg.mutex);
    reg.logs.push_back(
        std::make_unique<ThreadLog>(static_cast<std::uint32_t>(reg.logs.size())));
    // stf-lint: checked -- the push_back on the previous line is the element.
    t_log = reg.logs.back().get();
  }
  return *t_log;
}

void append_event(ThreadLog& log, const Event& e) {
  const LockGuard lock(log.mutex);
  if (log.events.size() >=
      g_max_events_per_thread.load(std::memory_order_relaxed)) {
    ++log.dropped;
    return;
  }
  log.events.push_back(e);
}

std::atomic<int> g_enabled{-1};  // -1: resolve from the environment

bool resolve_enabled_from_env() {
  // core/env policy: unset/empty means off, recognized tokens toggle, and
  // garbage throws (at the first instrumented call) instead of silently
  // enabling collection.
  return env::read_flag("STF_TELEMETRY", false);
}

/// Aggregation key: worker spans fold under "<region>/workers".
std::string event_key(const Event& e) {
  std::string key(e.name);
  if (e.kind == Kind::worker_span) key += "/workers";
  return key;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream os;
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(static_cast<unsigned char>(c));
          out += os.str();
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt_duration(double ns) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2);
  if (ns >= 1e9) {
    os << ns / 1e9 << " s";
  } else if (ns >= 1e6) {
    os << ns / 1e6 << " ms";
  } else if (ns >= 1e3) {
    os << ns / 1e3 << " us";
  } else {
    os << ns << " ns";
  }
  return os.str();
}

struct SpanAccumulator {
  SpanStats stats;
  std::vector<std::uint32_t> tids;  // distinct threads, small
};

/// Snapshot every thread log and fold span/worker events into per-name
/// aggregates (ordered map so exporters print deterministically).
std::map<std::string, SpanAccumulator> aggregate_spans() {
  std::map<std::string, SpanAccumulator> agg;
  Registry& reg = registry();
  const LockGuard lock(reg.mutex);
  for (const auto& log : reg.logs) {
    const LockGuard log_lock(log->mutex);
    for (const Event& e : log->events) {
      if (e.kind == Kind::flow_start) continue;
      SpanAccumulator& acc = agg[event_key(e)];
      SpanStats& s = acc.stats;
      if (s.count == 0 || e.dur_ns < s.min_ns) s.min_ns = e.dur_ns;
      if (s.count == 0 || e.dur_ns > s.max_ns) s.max_ns = e.dur_ns;
      s.max_depth = std::max(s.max_depth, e.depth);
      s.total_ns += e.dur_ns;
      ++s.count;
      if (std::find(acc.tids.begin(), acc.tids.end(), log->tid) ==
          acc.tids.end())
        acc.tids.push_back(log->tid);
    }
  }
  for (auto& [key, acc] : agg) acc.stats.threads = acc.tids.size();
  return agg;
}

}  // namespace

#if STF_TELEMETRY
bool enabled() noexcept {
  int v = g_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    v = resolve_enabled_from_env() ? 1 : 0;
    int expected = -1;
    if (!g_enabled.compare_exchange_strong(expected, v,
                                           std::memory_order_relaxed))
      v = expected;
  }
  return v > 0;
}
#endif

void set_enabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

void set_max_events_per_thread(std::size_t cap) {
  g_max_events_per_thread.store(cap != 0 ? cap : kDefaultMaxEventsPerThread,
                                std::memory_order_relaxed);
}

std::size_t max_events_per_thread() {
  return g_max_events_per_thread.load(std::memory_order_relaxed);
}

void reset() {
  Registry& reg = registry();
  const LockGuard lock(reg.mutex);
  for (const auto& log : reg.logs) {
    const LockGuard log_lock(log->mutex);
    log->events.clear();
    log->dropped = 0;
  }
  for (const auto& [name, c] : reg.counters) c->zero();
  for (const auto& [name, h] : reg.histograms) {
    const LockGuard h_lock(h->mutex);
    h->stats = HistogramStats{};
  }
}

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

Counter& counter(std::string_view name) {
  Registry& reg = registry();
  const LockGuard lock(reg.mutex);
  auto it = reg.counters.find(std::string(name));
  if (it == reg.counters.end())
    it = reg.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

std::uint64_t counter_value(std::string_view name) {
  Registry& reg = registry();
  const LockGuard lock(reg.mutex);
  const auto it = reg.counters.find(std::string(name));
  return it != reg.counters.end() ? it->second->value() : 0;
}

void count_event(const char* name, std::uint64_t delta) {
  counter(name).add(delta);
}

void record_value(const char* name, double value) {
  STF_REQUIRE(name != nullptr, "telemetry::record_value: null name");
  Histogram* hist = nullptr;
  {
    Registry& reg = registry();
    const LockGuard lock(reg.mutex);
    auto it = reg.histograms.find(name);
    if (it == reg.histograms.end())
      it = reg.histograms.emplace(name, std::make_unique<Histogram>()).first;
    hist = it->second.get();
  }
  const LockGuard lock(hist->mutex);
  HistogramStats& s = hist->stats;
  if (s.count == 0 || value < s.min) s.min = value;
  if (s.count == 0 || value > s.max) s.max = value;
  s.sum += value;
  ++s.count;
}

// stf-analyze: allow(api-contract) -- unknown names read back empty stats.
HistogramStats histogram_stats(std::string_view name) {
  Histogram* hist = nullptr;
  {
    Registry& reg = registry();
    const LockGuard lock(reg.mutex);
    const auto it = reg.histograms.find(std::string(name));
    if (it == reg.histograms.end()) return HistogramStats{};
    hist = it->second.get();
  }
  const LockGuard lock(hist->mutex);
  return hist->stats;
}

SpanScope::SpanScope(const char* name) {
  active_ = enabled();
  if (!active_) return;
  name_ = name;
  ThreadLog& log = thread_log();
  depth_ = static_cast<std::uint32_t>(log.open.size());
  log.open.push_back(name);
  start_ns_ = now_ns();
}

SpanScope::~SpanScope() {
  if (!active_) return;
  const std::uint64_t end = now_ns();
  ThreadLog& log = thread_log();
  if (!log.open.empty()) log.open.pop_back();
  Event e;
  e.name = name_;
  e.start_ns = start_ns_;
  e.dur_ns = end - start_ns_;
  e.depth = depth_;
  e.kind = Kind::span;
  append_event(log, e);
}

ParallelRegion parallel_region_begin(const char* fallback_name) {
  STF_REQUIRE(fallback_name != nullptr, "parallel_region_begin: null name");
  ParallelRegion region;
  if (!enabled()) return region;
  ThreadLog& log = thread_log();
  region.name = log.open.empty() ? fallback_name : log.open.back();
  region.flow_id = registry().next_flow.fetch_add(1, std::memory_order_relaxed);
  region.active = true;
  Event e;
  e.name = region.name;
  e.start_ns = now_ns();
  e.flow_id = region.flow_id;
  e.depth = static_cast<std::uint32_t>(log.open.size());
  e.kind = Kind::flow_start;
  append_event(log, e);
  return region;
}

std::uint64_t parallel_worker_begin(const ParallelRegion& region) {
  STF_REQUIRE(region.active && region.name != nullptr,
              "parallel_worker_begin: region is not active");
  thread_log().open.push_back(region.name);
  return now_ns();
}

void parallel_worker_end(const ParallelRegion& region, std::uint64_t start_ns,
                         std::size_t chunks) {
  STF_REQUIRE(region.active && region.name != nullptr,
              "parallel_worker_end: region is not active");
  STF_REQUIRE(chunks != 0, "parallel_worker_end: worker claimed no chunk");
  const std::uint64_t end = now_ns();
  ThreadLog& log = thread_log();
  if (!log.open.empty()) log.open.pop_back();
  Event e;
  e.name = region.name;
  e.start_ns = start_ns;
  e.dur_ns = end - start_ns;
  e.flow_id = region.flow_id;
  e.chunks = chunks;
  e.depth = static_cast<std::uint32_t>(log.open.size());
  e.kind = Kind::worker_span;
  append_event(log, e);
}

SpanStats span_stats(std::string_view name) {
  const auto agg = aggregate_spans();
  const auto it = agg.find(std::string(name));
  return it != agg.end() ? it->second.stats : SpanStats{};
}

std::size_t span_event_count() {
  std::size_t n = 0;
  Registry& reg = registry();
  const LockGuard lock(reg.mutex);
  for (const auto& log : reg.logs) {
    const LockGuard log_lock(log->mutex);
    for (const Event& e : log->events)
      if (e.kind != Kind::flow_start) ++n;
  }
  return n;
}

std::uint64_t dropped_event_count() {
  std::uint64_t n = 0;
  Registry& reg = registry();
  const LockGuard lock(reg.mutex);
  for (const auto& log : reg.logs) {
    const LockGuard log_lock(log->mutex);
    n += log->dropped;
  }
  return n;
}

std::string summary() {
  const auto spans = aggregate_spans();

  std::size_t threads = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramStats> hists;
  {
    Registry& reg = registry();
    const LockGuard lock(reg.mutex);
    threads = reg.logs.size();
    for (const auto& [name, c] : reg.counters) counters[name] = c->value();
    for (const auto& [name, h] : reg.histograms) {
      const LockGuard h_lock(h->mutex);
      hists[name] = h->stats;
    }
  }

  std::ostringstream os;
  os << "telemetry summary: " << threads << " thread(s), "
     << span_event_count() << " span event(s)";
  const std::uint64_t dropped = dropped_event_count();
  if (dropped != 0) os << ", " << dropped << " DROPPED";
  os << '\n';

  if (!spans.empty()) {
    std::size_t width = 4;
    for (const auto& [name, acc] : spans) width = std::max(width, name.size());
    os << "  " << std::left << std::setw(static_cast<int>(width)) << "span"
       << std::right << std::setw(9) << "count" << std::setw(12) << "total"
       << std::setw(12) << "mean" << std::setw(12) << "min" << std::setw(12)
       << "max" << std::setw(5) << "thr" << '\n';
    for (const auto& [name, acc] : spans) {
      const SpanStats& s = acc.stats;
      os << "  " << std::left << std::setw(static_cast<int>(width)) << name
         << std::right << std::setw(9) << s.count << std::setw(12)
         << fmt_duration(static_cast<double>(s.total_ns)) << std::setw(12)
         << fmt_duration(static_cast<double>(s.total_ns) /
                         static_cast<double>(s.count))
         << std::setw(12) << fmt_duration(static_cast<double>(s.min_ns))
         << std::setw(12) << fmt_duration(static_cast<double>(s.max_ns))
         << std::setw(5) << s.threads << '\n';
    }
  }
  if (!counters.empty()) {
    os << "  counters:\n";
    for (const auto& [name, v] : counters)
      os << "    " << name << " = " << v << '\n';
  }
  if (!hists.empty()) {
    os << "  histograms (count / mean / min / max):\n";
    os << std::setprecision(6);
    for (const auto& [name, h] : hists)
      os << "    " << name << " = " << h.count << " / " << h.mean() << " / "
         << h.min << " / " << h.max << '\n';
  }
  return os.str();
}

std::string to_json() {
  const auto spans = aggregate_spans();

  std::ostringstream os;
  os << "{";
  os << "\"threads\":";
  {
    Registry& reg = registry();
    const LockGuard lock(reg.mutex);
    os << reg.logs.size();
  }
  os << ",\"dropped_events\":" << dropped_event_count();

  os << ",\"spans\":{";
  bool first = true;
  for (const auto& [name, acc] : spans) {
    const SpanStats& s = acc.stats;
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":{\"count\":" << s.count
       << ",\"total_ns\":" << s.total_ns << ",\"mean_ns\":"
       << (s.count != 0 ? s.total_ns / s.count : 0)
       << ",\"min_ns\":" << s.min_ns << ",\"max_ns\":" << s.max_ns
       << ",\"max_depth\":" << s.max_depth << ",\"threads\":" << s.threads
       << "}";
  }
  os << "}";

  os << ",\"counters\":{";
  {
    std::map<std::string, std::uint64_t> counters;
    Registry& reg = registry();
    const LockGuard lock(reg.mutex);
    for (const auto& [name, c] : reg.counters) counters[name] = c->value();
    first = true;
    for (const auto& [name, v] : counters) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(name) << "\":" << v;
    }
  }
  os << "}";

  os << ",\"histograms\":{";
  {
    std::map<std::string, HistogramStats> hists;
    Registry& reg = registry();
    const LockGuard lock(reg.mutex);
    for (const auto& [name, h] : reg.histograms) {
      const LockGuard h_lock(h->mutex);
      hists[name] = h->stats;
    }
    first = true;
    os << std::setprecision(17);
    for (const auto& [name, h] : hists) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(name) << "\":{\"count\":" << h.count
         << ",\"sum\":" << h.sum << ",\"mean\":" << h.mean()
         << ",\"min\":" << h.min << ",\"max\":" << h.max << "}";
    }
  }
  os << "}}";
  return os.str();
}

std::string chrome_trace() {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit_sep = [&os, &first]() {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  std::uint64_t last_ts_ns = 0;
  Registry& reg = registry();
  const LockGuard lock(reg.mutex);
  for (const auto& log : reg.logs) {
    const LockGuard log_lock(log->mutex);
    emit_sep();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << log->tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"stf-thread-"
       << log->tid << "\"}}";
    for (const Event& e : log->events) {
      last_ts_ns = std::max(last_ts_ns, e.start_ns + e.dur_ns);
      const double ts_us = static_cast<double>(e.start_ns) / 1e3;
      const double dur_us = static_cast<double>(e.dur_ns) / 1e3;
      switch (e.kind) {
        case Kind::span:
          emit_sep();
          os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << log->tid
             << ",\"name\":\"" << json_escape(e.name)
             << "\",\"cat\":\"span\",\"ts\":" << ts_us << ",\"dur\":" << dur_us
             << ",\"args\":{\"depth\":" << e.depth << "}}";
          break;
        case Kind::worker_span:
          emit_sep();
          os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << log->tid
             << ",\"name\":\"" << json_escape(e.name)
             << "\",\"cat\":\"worker\",\"ts\":" << ts_us
             << ",\"dur\":" << dur_us << ",\"args\":{\"chunks\":" << e.chunks
             << ",\"flow\":" << e.flow_id << "}}";
          emit_sep();
          os << "{\"ph\":\"t\",\"pid\":1,\"tid\":" << log->tid
             << ",\"name\":\"" << json_escape(e.name)
             << "\",\"cat\":\"flow\",\"id\":" << e.flow_id
             << ",\"ts\":" << ts_us << "}";
          break;
        case Kind::flow_start:
          emit_sep();
          os << "{\"ph\":\"s\",\"pid\":1,\"tid\":" << log->tid
             << ",\"name\":\"" << json_escape(e.name)
             << "\",\"cat\":\"flow\",\"id\":" << e.flow_id
             << ",\"ts\":" << ts_us << "}";
          break;
      }
    }
  }
  // Final counter values as Chrome counter events at the trace's end time.
  {
    std::map<std::string, std::uint64_t> counters;
    for (const auto& [name, c] : reg.counters) counters[name] = c->value();
    const double ts_us = static_cast<double>(last_ts_ns) / 1e3;
    for (const auto& [name, v] : counters) {
      emit_sep();
      os << "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"" << json_escape(name)
         << "\",\"ts\":" << ts_us << ",\"args\":{\"value\":" << v << "}}";
    }
  }
  os << "\n]}";
  return os.str();
}

}  // namespace stf::core::telemetry
