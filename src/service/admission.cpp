#include "service/admission.hpp"

#include <algorithm>

#include "core/contracts.hpp"
#include "core/telemetry.hpp"

namespace stf::service {

TokenBucket::TokenBucket(double rate_per_second, double burst)
    : rate_per_second_(rate_per_second),
      burst_(burst),
      tokens_(burst) {
  STF_REQUIRE(burst >= 1.0 || rate_per_second <= 0.0,
              "TokenBucket: burst < 1 with a rate gate enabled");
}

// Any u64 clock value is valid input: a backwards step clamps to zero
// elapsed time below, so there is no precondition to state.
// stf-analyze: allow(api-contract) -- every input is in-contract
bool TokenBucket::try_acquire(std::uint64_t now_us) {
  if (rate_per_second_ <= 0.0) return true;
  if (!seeded_) {
    seeded_ = true;
    last_us_ = now_us;
  }
  const std::uint64_t elapsed_us = now_us >= last_us_ ? now_us - last_us_ : 0;
  // Never move the refill anchor backwards: adopting a rewound clock would
  // credit the same wall-clock interval twice once the clock recovers
  // (rewind to t-d, then any later now >= t manufactures d extra seconds
  // of refill). Hold the high-water mark instead.
  last_us_ = std::max(last_us_, now_us);
  tokens_ = std::min(
      burst_, tokens_ + rate_per_second_ * static_cast<double>(elapsed_us) /
                            1e6);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

AdmissionController::AdmissionController(const AdmissionPolicy& policy,
                                         std::size_t compute_slots,
                                         std::size_t wait_capacity)
    : policy_(policy),
      compute_slots_(compute_slots),
      wait_capacity_(wait_capacity),
      bucket_(policy.lots_per_second, policy.burst_lots) {
  STF_REQUIRE(compute_slots >= 1, "AdmissionController: compute_slots < 1");
  STF_REQUIRE(policy.max_clients >= 1,
              "AdmissionController: max_clients < 1");
}

bool AdmissionController::try_admit_client() {
  const stf::core::LockGuard lock(mutex_);
  if (n_clients_ >= policy_.max_clients) {
    STF_COUNT("svc.clients_refused");
    return false;
  }
  ++n_clients_;
  return true;
}

void AdmissionController::release_client() {
  const stf::core::LockGuard lock(mutex_);
  STF_ASSERT(n_clients_ >= 1, "AdmissionController: client underflow");
  --n_clients_;
}

// Any u64 clock value is valid input (TokenBucket::try_acquire clamps a
// backwards step), so there is no precondition to state.
// stf-analyze: allow(api-contract) -- every input is in-contract
stf::net::RejectCode AdmissionController::admit_lot(std::uint64_t now_us) {
  stf::core::UniqueLock lock(mutex_);
  if (!bucket_.try_acquire(now_us)) {
    STF_COUNT("svc.shed_rate_limit");
    return stf::net::RejectCode::kShedOverload;
  }
  if (computing_ < compute_slots_) {
    ++computing_;
    return stf::net::RejectCode::kNone;
  }
  if (tickets_ - granted_ >= wait_capacity_) {
    STF_COUNT("svc.shed_queue_full");
    return stf::net::RejectCode::kShedOverload;
  }
  const std::uint64_t ticket = tickets_++;
  // Explicit wait loop: the analysis does not carry lock state into lambda
  // bodies. complete_lot grants tickets in order, so this is arrival order.
  while (granted_ <= ticket) slot_granted_.wait(lock.native());
  return stf::net::RejectCode::kNone;
}

void AdmissionController::complete_lot() {
  {
    const stf::core::LockGuard lock(mutex_);
    STF_ASSERT(computing_ >= 1,
               "AdmissionController: completion without admission");
    if (granted_ == tickets_) {
      --computing_;
      return;
    }
    ++granted_;  // the slot passes to the oldest waiter
  }
  slot_granted_.notify_all();
}

std::size_t AdmissionController::inflight() const {
  const stf::core::LockGuard lock(mutex_);
  return computing_ + static_cast<std::size_t>(tickets_ - granted_);
}

std::size_t AdmissionController::clients() const {
  const stf::core::LockGuard lock(mutex_);
  return n_clients_;
}

}  // namespace stf::service
