// Client library of the signature-test service: one call per lot, with
// bounded timeouts, capped exponential backoff, and idempotent retry keyed
// by request id.
//
// run_lot() sends the request frame and reassembles the streamed
// disposition chunks into lot order. Each attempt runs on a kept idle
// connection when one is left, or on a new one: the server serves request
// after request on one connection, so a lot after the first pays for no
// handshake and no new server reader thread (the persistent connections of
// HTTP/1.1, RFC 9112 section 9.3). A connection goes back to the idle stack
// only after a clean exchange -- LotDone for this request, or a Reject that
// carries its request_id, with no bytes left over -- and is closed in every
// other case. Before reuse an idle connection must be quiet: a readable one
// has seen EOF or a reset (the server stopped) or holds stray bytes, and is
// closed. Transport loss (reset, timeout, injected fault, malformed server
// bytes) fails the ATTEMPT, not the call: the client retries with the SAME
// request_id -- the server recognizes a finished id and replays the cached
// response instead of recomputing -- until ClientOptions::max_attempts is
// exhausted. A typed server Reject is a final answer, never blind-retried.
//
// Determinism: the client needs no wall clock (timeouts ride on poll();
// backoff sleeps go through an injectable sleep_ms hook, which tests pin
// to a no-op), and injected transport faults draw from
// fault_base.derive(request_id).derive(attempt) -- so an end-to-end run
// with faults and retries still reproduces bit-identically from seeds.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/transport_faults.hpp"
#include "sigtest/guard.hpp"

namespace stf::net {

/// Knobs of the per-lot client call.
struct ClientOptions {
  std::string host = "127.0.0.1";
  int connect_timeout_ms = 2000;
  /// Bound on each wait for the next response frame (not the whole lot).
  int response_timeout_ms = 10000;
  /// Total attempts per run_lot call (first try + retries).
  int max_attempts = 5;
  /// Backoff before retry k (1-based) is min(base << (k-1), cap) ms.
  int backoff_base_ms = 1;
  int backoff_cap_ms = 50;
  /// Sleep hook for the backoff (tests inject a recorder; default sleeps).
  std::function<void(int ms)> sleep_ms;
};

/// How a run_lot call ended.
enum class ClientStatus {
  kOk,                ///< Full disposition set received.
  kRejected,          ///< Server answered with a typed Reject.
  kTransportFailure,  ///< Attempts exhausted without a complete answer.
};

/// Everything a run_lot call produced.
struct ClientLotResult {
  ClientStatus status = ClientStatus::kTransportFailure;
  RejectCode reject_code = RejectCode::kNone;  ///< Set iff kRejected.
  std::string message;        ///< Reject text or last transport error.
  std::vector<stf::sigtest::TestDisposition> dispositions;  ///< Lot order.
  std::uint32_t predicted = 0;  ///< LotDone tallies (iff kOk).
  std::uint32_t retried = 0;
  std::uint32_t routed = 0;
  int attempts = 0;  ///< Attempts consumed (>= 1).
};

/// Per-lot client. Thread-safe: threads issuing different requests may
/// share one instance. It holds its idle connections between calls, at
/// most one per concurrent caller, and each kept connection counts against
/// the server's max_clients until the client is destroyed; destruction
/// closes them, so the server's readers see EOF and exit.
class SigtestClient {
 public:
  explicit SigtestClient(std::uint16_t port, ClientOptions options = {});

  /// Arm deterministic transport fault injection. `faults` must outlive the
  /// client; pass nullptr to disarm. `fault_seed` is the base of the
  /// per-(request, attempt) derivation chain. While a non-empty injector is
  /// armed the client keeps no connections: every attempt connects anew,
  /// and arming closes the idle ones.
  void set_transport_faults(const TransportFaultInjector* faults,
                            std::uint64_t fault_seed);

  /// Run one lot end to end (send request, collect every disposition).
  /// Never throws on transport loss -- that is a typed kTransportFailure.
  /// Throws std::invalid_argument only on malformed local input.
  ClientLotResult run_lot(const LotRequest& request) const;

  const ClientOptions& options() const { return options_; }

 private:
  /// Pop the most recently kept connection that is still quiet, or
  /// connect when none is left.
  Socket take_connection() const;

  std::uint16_t port_;
  ClientOptions options_;
  const TransportFaultInjector* faults_ = nullptr;
  std::uint64_t fault_seed_ = 0;
  mutable stf::core::Mutex idle_mutex_;
  mutable std::vector<Socket> idle_ STF_GUARDED_BY(idle_mutex_);
};

}  // namespace stf::net
