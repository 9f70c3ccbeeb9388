// Admission control of the signature-test service: the overload-safety
// layer between the socket readers and the lots they compute.
//
// Three gates, checked in order, each with a typed outcome
// (net::RejectCode) -- an overloaded server always answers, it never hangs
// a client and never grows unbounded state:
//
//   1. connection cap    -- at accept time (kTooManyClients)
//   2. token-bucket rate -- lots/second with a burst allowance
//                           (kShedOverload)
//   3. compute slots     -- at most `compute_slots` lots compute at once;
//                           up to `wait_capacity` more wait for a slot and
//                           get one in arrival order, and a lot that finds
//                           the wait line full is shed (kShedOverload)
//
// A session computes one lot at a time (its reader runs it), so a session
// holds at most one slot and max_clients bounds the sessions: one greedy
// client cannot take every slot.
//
// The bucket is caller-clocked: admit_lot() takes `now_us` as a parameter,
// so the policy itself is a pure deterministic function and tests drive it
// with a synthetic clock (the server's single wall-clock read lives in
// server.cpp, explicitly suppressed for the nondet-source lint).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>

#include "core/annotations.hpp"
#include "net/frame.hpp"

namespace stf::service {

/// Admission knobs. Defaults are effectively "no rate limit" (tests and
/// small deployments); the shed paths stay exercised via the caps.
struct AdmissionPolicy {
  /// Token refill rate in lots/second; <= 0 disables the rate gate.
  double lots_per_second = 0.0;
  /// Bucket capacity (burst allowance, in lots).
  double burst_lots = 8.0;
  /// Concurrent client sessions (gate 1; enforced by the server's accept
  /// loop through try_admit_client()).
  std::size_t max_clients = 8;
};

/// Deterministic caller-clocked token bucket.
class TokenBucket {
 public:
  /// rate <= 0 disables the gate (try_acquire always succeeds).
  TokenBucket(double rate_per_second, double burst);

  /// Take one token at time `now_us`; false = shed. Monotonic input is the
  /// caller's contract (the server's clock is monotonic by construction).
  bool try_acquire(std::uint64_t now_us);

 private:
  double rate_per_second_;
  double burst_;
  double tokens_;
  std::uint64_t last_us_ = 0;
  bool seeded_ = false;
};

/// The admission state machine. Thread-safe; every outcome typed.
class AdmissionController {
 public:
  /// `compute_slots` lots compute at once and `wait_capacity` more may
  /// wait for a slot (the server passes worker_threads and
  /// work_queue_capacity).
  AdmissionController(const AdmissionPolicy& policy, std::size_t compute_slots,
                      std::size_t wait_capacity);

  /// Gate 1: a new connection. False = kTooManyClients.
  bool try_admit_client();
  /// A session ended.
  void release_client();

  /// Gates 2+3 for one lot at time `now_us`. Returns kShedOverload at once
  /// when the bucket is empty or the wait line is full; otherwise blocks
  /// until every earlier waiter has a slot and one is free, and returns
  /// kNone: the caller holds a compute slot until complete_lot().
  stf::net::RejectCode admit_lot(std::uint64_t now_us);
  /// Free the caller's compute slot (the oldest waiter, if any, takes it).
  void complete_lot();

  /// Lots computing plus lots waiting for a slot.
  std::size_t inflight() const;
  /// Sessions currently admitted.
  std::size_t clients() const;

 private:
  const AdmissionPolicy policy_;
  const std::size_t compute_slots_;
  const std::size_t wait_capacity_;
  mutable stf::core::Mutex mutex_;
  std::condition_variable slot_granted_;
  TokenBucket bucket_ STF_GUARDED_BY(mutex_);
  /// Slots in use. A slot is free only while nobody waits: complete_lot
  /// hands a freed slot straight to the oldest waiter.
  std::size_t computing_ STF_GUARDED_BY(mutex_) = 0;
  /// Tickets handed to waiters, and how many of them hold a slot since;
  /// their difference is the wait line.
  std::uint64_t tickets_ STF_GUARDED_BY(mutex_) = 0;
  std::uint64_t granted_ STF_GUARDED_BY(mutex_) = 0;
  std::size_t n_clients_ STF_GUARDED_BY(mutex_) = 0;
};

}  // namespace stf::service
