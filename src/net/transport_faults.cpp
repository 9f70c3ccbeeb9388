#include "net/transport_faults.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/contracts.hpp"
#include "core/env.hpp"

namespace stf::net {

namespace {

const char* kind_name(TransportFaultKind kind) {
  switch (kind) {
    case TransportFaultKind::kTruncateFrame:
      return "trunc";
    case TransportFaultKind::kOversizeLength:
      return "oversize";
    case TransportFaultKind::kGarbageBytes:
      return "garbage";
    case TransportFaultKind::kDisconnect:
      return "disconnect";
    case TransportFaultKind::kSlowloris:
      return "slow";
    case TransportFaultKind::kDuplicateRequest:
      return "dup";
  }
  return "?";
}

TransportFaultKind kind_from_name(const std::string& name) {
  if (name == "trunc") return TransportFaultKind::kTruncateFrame;
  if (name == "oversize") return TransportFaultKind::kOversizeLength;
  if (name == "garbage") return TransportFaultKind::kGarbageBytes;
  if (name == "disconnect") return TransportFaultKind::kDisconnect;
  if (name == "slow") return TransportFaultKind::kSlowloris;
  if (name == "dup") return TransportFaultKind::kDuplicateRequest;
  throw std::invalid_argument("transport fault: unknown name '" + name + "'");
}

}  // namespace

TransportFaultInjector::TransportFaultInjector(
    std::vector<TransportFaultSpec> faults, int max_faulted_attempts)
    : faults_(std::move(faults)), max_faulted_attempts_(max_faulted_attempts) {
  STF_REQUIRE(max_faulted_attempts >= 0,
              "TransportFaultInjector: max_faulted_attempts < 0");
  for (const TransportFaultSpec& f : faults_)
    STF_REQUIRE(f.probability >= 0.0 && f.probability <= 1.0,
                "TransportFaultInjector: probability outside [0, 1]");
}

TransportFaultPlan TransportFaultInjector::plan_attempt(
    int attempt, stf::stats::Rng& rng) const {
  STF_REQUIRE(attempt >= 1, "plan_attempt: attempt is 1-based");
  TransportFaultPlan plan;
  if (attempt > max_faulted_attempts_) return plan;  // retries converge
  for (const TransportFaultSpec& f : faults_) {
    // One bernoulli per configured fault, in add order, whether or not it
    // fires -- the draw count is scenario-determined, never data-dependent,
    // so the stream stays aligned across runs.
    const bool fire = rng.bernoulli(f.probability);
    if (!fire) continue;
    switch (f.kind) {
      case TransportFaultKind::kTruncateFrame:
        plan.truncate = true;
        break;
      case TransportFaultKind::kOversizeLength:
        plan.oversize_length = true;
        break;
      case TransportFaultKind::kGarbageBytes:
        plan.garbage_bytes = static_cast<std::size_t>(rng.uniform_int(1, 16));
        break;
      case TransportFaultKind::kDisconnect:
        plan.disconnect_mid_lot = true;
        break;
      case TransportFaultKind::kSlowloris:
        plan.slowloris = true;
        break;
      case TransportFaultKind::kDuplicateRequest:
        plan.duplicate_request = true;
        break;
    }
  }
  // The truncation point depends on the frame length, which the planner
  // does not know; draw a fraction here so the client can scale it.
  if (plan.truncate)
    plan.truncate_keep = static_cast<std::size_t>(rng.uniform_int(1, 64));
  return plan;
}

TransportFaultInjector TransportFaultInjector::parse(const std::string& spec) {
  std::vector<TransportFaultSpec> faults;
  std::stringstream stream(spec);
  std::string term;
  while (std::getline(stream, term, ',')) {
    if (term.empty())
      throw std::invalid_argument("transport fault: empty term");
    TransportFaultSpec f;
    const std::size_t colon = term.find(':');
    f.kind = kind_from_name(term.substr(0, colon));
    if (colon != std::string::npos) {
      const std::string prob = term.substr(colon + 1);
      f.probability =
          stf::core::env::parse_double("transport fault: probability", prob);
      if (f.probability < 0.0 || f.probability > 1.0)
        throw std::invalid_argument("transport fault: bad probability '" +
                                    prob + "'");
    }
    faults.push_back(f);
  }
  if (faults.empty() && !spec.empty())
    throw std::invalid_argument("transport fault: malformed spec '" + spec +
                                "'");
  return TransportFaultInjector(std::move(faults));
}

std::string TransportFaultInjector::describe() const {
  if (faults_.empty()) return "clean";
  std::ostringstream out;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (i != 0) out << " + ";
    out << kind_name(faults_[i].kind) << "(p=" << faults_[i].probability
        << ")";
  }
  return out.str();
}

std::vector<std::uint8_t> mutate_frame_bytes(
    std::span<const std::uint8_t> frame, stf::stats::Rng& rng) {
  STF_REQUIRE(!frame.empty(), "mutate_frame_bytes: empty frame");
  std::vector<std::uint8_t> bytes(frame.begin(), frame.end());
  // 1-3 mutations per call: single corruptions are the common production
  // failure, stacked ones probe parser state machines.
  const int mutations = rng.uniform_int(1, 3);
  for (int m = 0; m < mutations; ++m) {
    switch (rng.uniform_int(0, 4)) {
      case 0: {  // flip one bit anywhere
        if (bytes.empty()) break;
        const std::size_t at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(bytes.size()) - 1));
        bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
        break;
      }
      case 1: {  // truncate to a strict prefix
        if (bytes.empty()) break;
        bytes.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(bytes.size()) - 1)));
        break;
      }
      case 2: {  // rewrite the length prefix (incl. over-ceiling values)
        while (bytes.size() < 4) bytes.push_back(0);
        for (int b = 0; b < 4; ++b)
          bytes[static_cast<std::size_t>(b)] =
              static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        break;
      }
      case 3: {  // rewrite the type byte (incl. unknown types)
        while (bytes.size() < 5) bytes.push_back(0);
        bytes[4] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        break;
      }
      case 4: {  // insert garbage at a random point
        const int n = rng.uniform_int(1, 24);
        const std::size_t at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(bytes.size())));
        std::vector<std::uint8_t> garbage(static_cast<std::size_t>(n));
        for (auto& g : garbage)
          g = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                     garbage.begin(), garbage.end());
        break;
      }
    }
  }
  return bytes;
}

}  // namespace stf::net
