#include "net/client.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>

#include "core/contracts.hpp"
#include "core/telemetry.hpp"
#include "net/socket.hpp"
#include "stats/rng.hpp"

namespace stf::net {

namespace {

using stf::sigtest::TestDisposition;

/// Apply the attempt's fault plan while sending the request frame. Throws
/// SocketError for plans that abandon the attempt (truncation).
void send_with_plan(Socket& socket, std::span<const std::uint8_t> frame,
                    const TransportFaultPlan& plan) {
  std::vector<std::uint8_t> bytes(frame.begin(), frame.end());
  if (plan.oversize_length) {
    // Declare a payload past the parser ceiling; the server must refuse
    // BEFORE allocating for it.
    const std::uint32_t declared =
        static_cast<std::uint32_t>(kMaxPayloadBytes) + 1;
    for (int b = 0; b < 4; ++b)
      bytes[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(declared >> (8 * b));
  }
  if (plan.garbage_bytes > 0) {
    // 0xA5 preamble: its length prefix decodes over-ceiling, desyncing the
    // server's framing deterministically.
    bytes.insert(bytes.begin(), plan.garbage_bytes,
                 static_cast<std::uint8_t>(0xA5));
  }
  if (plan.truncate) {
    const std::size_t keep =
        std::clamp<std::size_t>(plan.truncate_keep, 1, bytes.size() - 1);
    socket.send_all(std::span(bytes).first(keep));
    throw SocketError("transport fault: truncated request frame");
  }
  if (plan.slowloris) {
    for (std::size_t i = 0; i < bytes.size(); ++i)
      socket.send_all(std::span(bytes).subspan(i, 1));
  } else {
    socket.send_all(bytes);
  }
  if (plan.duplicate_request) socket.send_all(bytes);
}

}  // namespace

SigtestClient::SigtestClient(std::uint16_t port, ClientOptions options)
    : port_(port), options_(std::move(options)) {
  STF_REQUIRE(options_.max_attempts >= 1, "SigtestClient: max_attempts < 1");
  STF_REQUIRE(options_.connect_timeout_ms >= 1 &&
                  options_.response_timeout_ms >= 1,
              "SigtestClient: timeouts must be >= 1 ms");
  STF_REQUIRE(options_.backoff_base_ms >= 0 && options_.backoff_cap_ms >= 0,
              "SigtestClient: negative backoff");
  if (!options_.sleep_ms)
    options_.sleep_ms = [](int ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
}

void SigtestClient::set_transport_faults(const TransportFaultInjector* faults,
                                         std::uint64_t fault_seed) {
  faults_ = faults;
  fault_seed_ = fault_seed;
  if (faults_ != nullptr && !faults_->empty()) {
    const stf::core::LockGuard lock(idle_mutex_);
    idle_.clear();
  }
}

namespace {

/// Open a new connection, counted so exported data shows which lots paid
/// for a handshake.
Socket connect_new(const ClientOptions& options, std::uint16_t port) {
  Socket socket = connect_to(options.host, port, options.connect_timeout_ms);
  STF_COUNT("net.client.connects");
  return socket;
}

/// One attempt over `socket`: send, reassemble responses. Puts the final
/// answer (kOk or kRejected) in `result` and returns whether the exchange
/// ended clean, so the server keeps the session open and the connection
/// may be reused: LotDone for this request, or a Reject that carries its
/// request_id, with no bytes left in the reader. Throws
/// SocketError/ProtocolError when the attempt must be retried.
bool run_attempt(Socket& socket, const ClientOptions& options,
                 const LotRequest& request,
                 std::span<const std::uint8_t> frame_bytes,
                 const TransportFaultPlan& plan, ClientLotResult& result) {
  send_with_plan(socket, frame_bytes, plan);

  FrameReader reader;
  std::vector<TestDisposition> slots(request.lot_size);
  std::vector<char> filled(request.lot_size, 0);
  std::size_t n_filled = 0;
  std::size_t chunks_seen = 0;
  std::uint8_t buffer[4096];
  Frame frame;
  while (true) {
    if (!socket.wait_readable(options.response_timeout_ms))
      throw SocketError("client: response timed out");
    const std::size_t n = socket.recv_some(buffer);
    if (n == 0) throw SocketError("client: server closed mid-lot");
    reader.feed(std::span<const std::uint8_t>(buffer, n));
    while (reader.next(frame)) {
      switch (frame.type) {
        case FrameType::kReject: {
          const Reject reject = decode_reject(frame.payload);
          // request_id 0 is a session-level refusal (e.g. connection cap)
          // sent before the server read any request.
          if (reject.request_id != request.request_id &&
              reject.request_id != 0)
            throw ProtocolError("client: reject for a different request");
          result.status = ClientStatus::kRejected;
          result.reject_code = reject.code;
          result.message = reject.message;
          STF_COUNT("net.client.rejects");
          // After a session-level refusal the server closes its side.
          return reject.request_id != 0 && reader.buffered() == 0;
        }
        case FrameType::kDispositions: {
          DispositionChunk chunk = decode_dispositions(frame.payload);
          if (chunk.request_id != request.request_id)
            throw ProtocolError("client: chunk for a different request");
          if (chunk.first_index > request.lot_size ||
              chunk.dispositions.size() >
                  request.lot_size - chunk.first_index)
            throw ProtocolError("client: chunk outside the lot");
          for (std::size_t i = 0; i < chunk.dispositions.size(); ++i) {
            const std::size_t at = chunk.first_index + i;
            if (filled[at] == 0) ++n_filled;  // re-delivery is idempotent
            filled[at] = 1;
            slots[at] = std::move(chunk.dispositions[i]);
          }
          ++chunks_seen;
          if (plan.disconnect_mid_lot && chunks_seen >= 1)
            throw SocketError("transport fault: mid-lot disconnect");
          break;
        }
        case FrameType::kLotDone: {
          const LotDone done = decode_lot_done(frame.payload);
          if (done.request_id != request.request_id)
            throw ProtocolError("client: completion for a different request");
          if (done.lot_size != request.lot_size)
            throw ProtocolError("client: completion lot_size mismatch");
          if (n_filled != request.lot_size)
            throw ProtocolError("client: lot done with missing dispositions");
          result.status = ClientStatus::kOk;
          result.dispositions = std::move(slots);
          result.predicted = done.predicted;
          result.retried = done.retried;
          result.routed = done.routed;
          return reader.buffered() == 0;
        }
        case FrameType::kRequest:
          throw ProtocolError("client: server sent a request frame");
      }
    }
  }
}

}  // namespace

Socket SigtestClient::take_connection() const {
  while (true) {
    Socket idle;
    {
      const stf::core::LockGuard lock(idle_mutex_);
      if (idle_.empty()) break;
      idle = std::move(idle_.back());
      idle_.pop_back();
    }
    // A readable idle connection has seen EOF or a reset (the server
    // stopped) or holds stray bytes; its destructor closes it.
    if (!idle.wait_readable(0)) {
      STF_COUNT("net.client.reuses");
      return idle;
    }
    STF_COUNT("net.client.stale_closed");
  }
  return connect_new(options_, port_);
}

ClientLotResult SigtestClient::run_lot(const LotRequest& request) const {
  STF_REQUIRE(request.lot_size >= 1 && request.lot_size <= kMaxLotSize,
              "run_lot: lot_size outside [1, kMaxLotSize]");
  // encode_request re-validates the full request (batch, string ceilings)
  // under STF_REQUIRE; malformed local input fails loudly here rather than
  // as a server-side kBadRequest.
  const std::vector<std::uint8_t> frame_bytes = encode_request(request);
  // Injected faults leave connections in states a later lot must not
  // inherit, so a faulted client connects anew for every attempt.
  const bool keep = faults_ == nullptr || faults_->empty();
  ClientLotResult result;
  std::string last_error = "no attempts made";
  for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    result.attempts = attempt;
    STF_COUNT("net.client.attempts");
    TransportFaultPlan plan;
    if (faults_ != nullptr && !faults_->empty()) {
      stf::stats::Rng rng =
          stf::stats::Rng(fault_seed_).derive(request.request_id).derive(
              static_cast<std::uint64_t>(attempt));
      plan = faults_->plan_attempt(attempt, rng);
    }
    try {
      Socket socket = keep ? take_connection() : connect_new(options_, port_);
      if (run_attempt(socket, options_, request, frame_bytes, plan, result) &&
          keep) {
        const stf::core::LockGuard lock(idle_mutex_);
        idle_.push_back(std::move(socket));
      }
      return result;
    } catch (const SocketError& e) {
      last_error = e.what();
    } catch (const ProtocolError& e) {
      last_error = e.what();
    }
    if (attempt < options_.max_attempts) {
      STF_COUNT("net.client.retries");
      // 64-bit doubling: base << shift overflows int (UB) for base >= 2048
      // once shift reaches 20, so scale wide and only then apply the cap.
      const int shift = std::min(attempt - 1, 20);
      const std::int64_t scaled = static_cast<std::int64_t>(
                                      options_.backoff_base_ms)
                                  << shift;
      const int backoff = static_cast<int>(
          std::min<std::int64_t>(options_.backoff_cap_ms, scaled));
      if (backoff > 0) options_.sleep_ms(backoff);
    }
  }
  STF_COUNT("net.client.transport_failures");
  result.status = ClientStatus::kTransportFailure;
  result.message = last_error;
  return result;
}

}  // namespace stf::net
