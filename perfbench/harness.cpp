#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "stats/rng.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

template <class T>
void absorb(std::uint64_t& h, const T& value) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
}

/// 1-based nearest-rank position of percentile p among n samples. The
/// product is formed before dividing and nudged down by a hair, so a rank
/// that is an exact integer (99.9% of 10000) never rounds up past it.
std::size_t nearest_rank(double p, std::size_t n) {
  return static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::uint64_t disposition_digest(
    std::span<const stf::sigtest::TestDisposition> lot) {
  std::uint64_t h = kFnvOffset;
  absorb(h, static_cast<std::uint64_t>(lot.size()));
  for (const auto& d : lot) {
    absorb(h, static_cast<std::int32_t>(d.kind));
    absorb(h, static_cast<std::int32_t>(d.attempts));
    absorb(h, static_cast<std::int32_t>(d.captures));
    absorb(h, static_cast<std::uint64_t>(d.predicted.size()));
    for (const double p : d.predicted) absorb(h, p);
    absorb(h, d.outlier_score);
    absorb(h, static_cast<std::int32_t>(d.last_flaw));
  }
  return h;
}

bool percentile_reportable(double p, std::size_t n) {
  if (n == 0 || p <= 0.0 || p >= 100.0) return false;
  return n >= nearest_rank(p, n) + 10;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = nearest_rank(p, samples.size());
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double block_percentile(const std::vector<double>& samples, double p,
                        std::size_t max_blocks) {
  std::size_t blocks = std::max<std::size_t>(max_blocks, 1);
  while (blocks > 1 && !percentile_reportable(p, samples.size() / blocks))
    --blocks;
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(
                                              b * samples.size() / blocks);
    const auto last = samples.begin() + static_cast<std::ptrdiff_t>(
                                             (b + 1) * samples.size() / blocks);
    per_block.push_back(percentile(std::vector<double>(first, last), p));
  }
  return median(per_block);
}

double median_block_rate(std::vector<Completion> done, std::size_t blocks) {
  if (done.empty() || blocks == 0) return 0.0;
  std::sort(done.begin(), done.end(),
            [](const Completion& a, const Completion& b) {
              return a.at_s < b.at_s;
            });
  blocks = std::min(blocks, done.size());
  std::vector<double> rates;
  double begin_s = 0.0;
  std::size_t first = 0;
  for (std::size_t b = 1; b <= blocks; ++b) {
    const std::size_t last = b * done.size() / blocks;  // exclusive
    double items = 0.0;
    for (std::size_t i = first; i < last; ++i) items += done[i].items;
    const double end_s = done[last - 1].at_s;
    if (end_s > begin_s) rates.push_back(items / (end_s - begin_s));
    begin_s = end_s;
    first = last;
  }
  return median(rates);
}

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                      double duration_s,
                                      std::size_t clean_pool,
                                      std::size_t faulted_pool) {
  constexpr double kClean = 0.75;
  constexpr double kFaulted = 0.125;
  constexpr std::size_t kReplayLag = 8;
  if (!(rate_per_s > 0.0) || clean_pool == 0 || faulted_pool == 0)
    throw std::invalid_argument("poisson_schedule: bad rate or empty pool");
  // A Poisson process conditioned on its count: exactly rate x duration
  // arrivals at uniform random times. The gaps stay exponential-like, and
  // every seed offers the same total load. The mix is conditioned the same
  // way -- exact class counts in a seeded order, each pool's lots used in
  // turn -- so every seed also offers the same work.
  stf::stats::Rng rng(seed);
  const auto count =
      static_cast<std::size_t>(std::llround(rate_per_s * duration_s));
  std::vector<double> times(count);
  for (double& t : times) t = rng.uniform(0.0, duration_s);
  std::sort(times.begin(), times.end());
  const auto share = [&](double frac) {
    return static_cast<std::size_t>(std::llround(frac * count));
  };
  const std::size_t n_clean = share(kClean);
  const std::size_t n_faulted = share(kFaulted);
  const std::vector<std::size_t> order = rng.permutation(count);
  std::size_t clean_seen = 0;
  std::size_t faulted_seen = 0;
  std::vector<Arrival> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Arrival a;
    a.at_s = times[i];
    if (order[i] < n_clean) {
      a.kind = RequestClass::kClean;
      a.pick = clean_seen++ % clean_pool;
    } else if (order[i] < n_clean + n_faulted) {
      a.kind = RequestClass::kFaulted;
      a.pick = faulted_seen++ % faulted_pool;
    } else {
      a.kind = RequestClass::kReplay;
    }
    if (a.kind == RequestClass::kReplay) {
      // Re-send the arrival kReplayLag places back, following earlier
      // replays to their original; with no original yet, send a fresh
      // clean lot instead.
      std::size_t target = out.size() >= kReplayLag
                               ? out.size() - kReplayLag
                               : out.size();
      while (target < out.size() && out[target].kind == RequestClass::kReplay)
        target = out[target].pick;
      if (target < out.size()) {
        a.pick = target;
      } else {
        a.kind = RequestClass::kClean;
        a.pick = clean_seen++ % clean_pool;
      }
    }
    out.push_back(a);
  }
  return out;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back({name, value, unit});
}

std::string Report::table() const {
  std::string out;
  for (const Entry& e : entries_) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-34s %16.6g  %s\n", e.name.c_str(),
                  e.value, e.unit.c_str());
    out += line;
  }
  return out;
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (!std::isfinite(e.value))
      throw std::runtime_error("Report: metric " + e.name + " is not finite");
    if (i != 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + number(e.value) +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
