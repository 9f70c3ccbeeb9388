// Helpers of the repository benchmark that carry no workload logic: the
// disposition digest behind the correctness gate, the percentile rule, the
// seeded Poisson schedule of the open-loop workload, and the metric report.
// They are kept apart so harness_test.cpp can pin their behaviour.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sigtest/guard.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The composed tester fault of the faulted lots (rf::FaultInjector::parse
/// grammar): hard clipping at 0.12 V plus intermittent contact noise.
inline constexpr const char* kFaultSpec = "clip:0.12,contact:0.02:0.05";

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// FNV-1a over every field of every disposition, in lot order: kind,
/// attempts, captures, the predicted vector (length and IEEE-754 bit
/// patterns), the outlier score's bit pattern and last_flaw. Each byte is
/// absorbed by a bijective step, so two lots that differ in one bit of any
/// field always digest differently.
std::uint64_t disposition_digest(
    std::span<const stf::sigtest::TestDisposition> lot);

/// Whether percentile `p` (0 < p < 100) of `n` samples leaves at least ten
/// samples above its nearest-rank position -- the rule for the highest
/// percentile a run may report.
bool percentile_reportable(double p, std::size_t n);

/// Nearest-rank percentile of `samples` (copied and sorted). 0 when empty.
double percentile(std::vector<double> samples, double p);

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// Percentile `p` that a transient stall cannot move: `samples`, in time
/// order, are cut into as many consecutive blocks (at most `max_blocks`) as
/// keep `p` reportable within each block, and the median of the blocks'
/// percentiles is returned. With too few samples for two blocks this is
/// percentile(samples, p).
double block_percentile(const std::vector<double>& samples, double p,
                        std::size_t max_blocks);

/// One completed unit of work: when it finished (seconds into the phase)
/// and how many items it delivered.
struct Completion {
  double at_s = 0.0;
  double items = 0.0;
};

/// Throughput that one transient stall cannot move: the completions, in
/// time order, are cut into `blocks` runs of consecutive units; each run's
/// rate is its items over the time since the previous run ended (the first
/// from time 0), and the median rate is returned. 0 when empty.
double median_block_rate(std::vector<Completion> done, std::size_t blocks);

/// What one open-loop arrival asks the service for.
enum class RequestClass { kClean, kFaulted, kReplay };

/// One scheduled request of the open-loop workload.
struct Arrival {
  double at_s = 0.0;  ///< Send time, seconds after the schedule starts.
  RequestClass kind = RequestClass::kClean;
  /// kClean / kFaulted: index into that class's lot pool. kReplay: the
  /// index of the earlier non-replay arrival it re-sends exactly.
  std::size_t pick = 0;
};

/// Poisson arrivals at `rate_per_s` over [0, duration_s), conditioned on
/// their count (exactly round(rate x duration) of them). Each is a fresh
/// clean lot (3/4, cycling over `clean_pool`), a fresh faulted lot (1/8,
/// cycling over `faulted_pool`) or an exact re-send (1/8) of the arrival
/// eight places back -- whose original has usually finished and sits in the
/// server's replay cache. The class counts are exact (a re-send with no
/// original yet becomes a clean lot); their order and the arrival times
/// come from the same seeded stream: one seed, one schedule.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                      double duration_s,
                                      std::size_t clean_pool,
                                      std::size_t faulted_pool);

/// Named metrics of one run, in insertion order.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Human-readable table, one metric per line.
  std::string table() const;
  /// The run's result object: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}}, on one line.
  std::string json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
