#include "service/server.hpp"

#include <chrono>
#include <utility>

#include "core/contracts.hpp"
#include "core/env.hpp"
#include "core/telemetry.hpp"
#include "net/frame.hpp"
#include "rf/faults.hpp"
#include "stats/rng.hpp"

namespace stf::service {

namespace {

using stf::net::DispositionChunk;
using stf::net::FrameType;
using stf::net::LotDone;
using stf::net::LotRequest;
using stf::net::ProtocolError;
using stf::net::Reject;
using stf::net::RejectCode;
using stf::net::SocketError;

/// Devices per streamed dispositions chunk: small enough that worst-case
/// frames sit far under net::kMaxPayloadBytes, large enough to amortize
/// the framing, and deliberately < typical lot sizes so multi-chunk
/// reassembly is exercised on every run.
constexpr std::uint32_t kChunkDevices = 64;

/// Finished lots kept for replay: an idempotent retry arrives within a few
/// lots of its first attempt.
constexpr std::size_t kReplayLots = 16;

/// The admission clock. The ONE wall-clock read in the service: it feeds
/// only the token bucket (shed-or-admit), never a disposition, so the
/// determinism contract -- dispositions are a pure function of (seed, lot,
/// scenario) -- is untouched by it.
std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          // stf-analyze: allow(nondet-source) -- admission clock only
          std::chrono::steady_clock::now()
              .time_since_epoch())
          .count());
}

std::string clipped_message(const std::string& text) {
  return text.size() <= stf::net::kMaxStringBytes
             ? text
             : text.substr(0, stf::net::kMaxStringBytes);
}

}  // namespace

/// One connected client, owned by its reader thread: the only thread that
/// reads from or writes to the socket, so nothing here takes a lock.
struct SigtestServer::Session {
  stf::net::Socket socket;
  bool write_dead = false;  ///< A send failed; later frames are dropped.

  /// Send frames in order. A transport failure marks the session dead (the
  /// client will retry on a new connection) -- it never propagates.
  void send_frames(const Frames& frames) {
    if (write_dead) return;
    try {
      for (const std::vector<std::uint8_t>& frame : frames)
        socket.send_all(frame);
    } catch (const SocketError&) {
      write_dead = true;
      STF_COUNT("svc.send_failures");
    }
  }

  void send_reject(std::uint64_t request_id, RejectCode code,
                   const std::string& message) {
    send_frames({stf::net::encode_reject({request_id, code, message})});
  }
};

ServerConfig ServerConfig::from_environment() {
  namespace env = stf::core::env;
  ServerConfig config;
  config.port =
      static_cast<std::uint16_t>(env::read_u64("STF_PORT", 0, 0, 65535));
  config.admission.max_clients = static_cast<std::size_t>(
      env::read_u64("STF_MAX_CLIENTS", config.admission.max_clients, 1, 1024));
  return config;
}

SigtestServer::SigtestServer(
    std::shared_ptr<const stf::sigtest::TestCell> runtime,
    ServerConfig config)
    : SigtestServer(std::move(runtime), nullptr, std::move(config)) {}

SigtestServer::SigtestServer(std::shared_ptr<RuntimeRegistry> registry,
                             ServerConfig config)
    : SigtestServer(nullptr, std::move(registry), std::move(config)) {}

SigtestServer::SigtestServer(
    std::shared_ptr<const stf::sigtest::TestCell> runtime,
    std::shared_ptr<RuntimeRegistry> registry, ServerConfig config)
    : runtime_(std::move(runtime)),
      registry_(std::move(registry)),
      config_(std::move(config)),
      admission_(config_.admission, config_.worker_threads,
                 config_.work_queue_capacity),
      populations_(config_.population_cache_entries,
                   "svc.population_cache_hits", "svc.population_cache_misses"),
      replay_(kReplayLots) {
  STF_REQUIRE((runtime_ != nullptr) != (registry_ != nullptr),
              "SigtestServer: exactly one of runtime/registry");
  STF_REQUIRE(runtime_ == nullptr || runtime_->calibrated(),
              "SigtestServer: runtime not calibrated");
  STF_REQUIRE(config_.work_queue_capacity >= 1,
              "SigtestServer: work_queue_capacity < 1");
  STF_REQUIRE(config_.poll_interval_ms >= 1 && config_.send_timeout_ms >= 1,
              "SigtestServer: intervals must be >= 1 ms");
}

SigtestServer::~SigtestServer() { stop(); }

void SigtestServer::start() {
  // The state change stays outside the contract: an unchecked build
  // compiles the condition out, and stop() keys on started_.
  const bool already_started = started_.exchange(true);
  STF_REQUIRE(!already_started, "SigtestServer: started twice");
  listener_ = std::make_unique<stf::net::Listener>(config_.bind_address,
                                                   config_.port);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

std::uint16_t SigtestServer::port() const {
  STF_REQUIRE(listener_ != nullptr, "SigtestServer::port: not started");
  return listener_->port();
}

void SigtestServer::stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  // Stop admitting connections, then join the readers. A reader sees
  // stopping_ only between requests, so the lot it is computing or waiting
  // for completes and flushes first; the lots holding slots need nothing
  // but compute, so every waiter's turn comes.
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listener_ != nullptr) listener_->close();
  std::vector<ReaderSlot> readers;
  {
    const stf::core::LockGuard lock(readers_mutex_);
    readers.swap(readers_);
  }
  for (ReaderSlot& r : readers) r.thread.join();
}

std::size_t SigtestServer::reader_threads() const {
  const stf::core::LockGuard lock(readers_mutex_);
  return readers_.size();
}

void SigtestServer::reap_finished_readers() {
  std::vector<std::thread> finished;
  {
    const stf::core::LockGuard lock(readers_mutex_);
    auto it = readers_.begin();
    while (it != readers_.end()) {
      if (it->exited->load()) {
        finished.push_back(std::move(it->thread));
        it = readers_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join outside the lock: `exited` is the thread's last store, so these
  // joins return promptly and never hold up new connections.
  for (std::thread& t : finished) {
    t.join();
    STF_COUNT("svc.readers_reaped");
  }
}

void SigtestServer::accept_loop() {
  while (!stopping_.load()) {
    // Reap every wakeup (accept or timeout): a long-lived server with
    // short-lived sessions must not accumulate exited thread handles.
    reap_finished_readers();
    if (!listener_->wait_acceptable(config_.poll_interval_ms)) continue;
    stf::net::Socket socket = listener_->accept_connection();
    if (!socket.valid()) continue;
    STF_COUNT("svc.connections");
    socket.set_send_timeout(config_.send_timeout_ms);
    if (!admission_.try_admit_client()) {
      // Typed refusal, then close: the client learns WHY instead of
      // guessing from an EOF.
      try {
        socket.send_all(stf::net::encode_reject(
            {0, RejectCode::kTooManyClients, "connection cap reached"}));
      } catch (const SocketError&) {
      }
      continue;
    }
    ReaderSlot slot;
    slot.exited = std::make_shared<std::atomic<bool>>(false);
    slot.thread = std::thread(
        [this, session = Session{std::move(socket)},
         exited = slot.exited]() mutable {
          reader_loop(session);
          exited->store(true);
        });
    const stf::core::LockGuard lock(readers_mutex_);
    readers_.push_back(std::move(slot));
  }
}

void SigtestServer::reader_loop(Session& session) {
  stf::net::FrameReader reader;
  std::uint8_t buffer[4096];
  stf::net::Frame frame;
  try {
    while (!stopping_.load()) {
      if (!session.socket.wait_readable(config_.poll_interval_ms)) continue;
      const std::size_t n = session.socket.recv_some(buffer);
      if (n == 0) break;  // orderly EOF
      reader.feed(std::span<const std::uint8_t>(buffer, n));
      while (reader.next(frame)) {
        if (frame.type != FrameType::kRequest)
          throw ProtocolError("server: client sent a non-request frame");
        handle_request(session, stf::net::decode_request(frame.payload));
      }
    }
  } catch (const ProtocolError&) {
    // Malformed peer: drop this connection, nothing else. Its admitted
    // lots have already completed: this thread ran them.
    STF_COUNT("svc.protocol_errors");
  } catch (const SocketError&) {
    STF_COUNT("svc.transport_errors");
  }
  admission_.release_client();
}

// decode_request has validated every field, and the session is the calling
// reader's own; process_lot restates the ranges it relies on.
// stf-analyze: allow(api-contract) -- inputs validated by decode_request
void SigtestServer::handle_request(Session& session,
                                   const LotRequest& request) {
  STF_COUNT("svc.requests");
  // The replay key is the canonical request encoding; decode -> encode is
  // the identity for well-formed requests. A duplicate on this connection
  // is read only after its first run has finished, so it lands here too.
  const std::vector<std::uint8_t> encoded = stf::net::encode_request(request);
  const std::string key(encoded.begin(), encoded.end());
  if (const auto frames = replay_.find(key)) {
    STF_COUNT("svc.replays");
    session.send_frames(*frames);
    return;
  }
  if (stopping_.load()) {
    session.send_reject(request.request_id, RejectCode::kShuttingDown,
                        "server draining");
    return;
  }

  ScenarioSpec scenario;
  stf::rf::FaultInjector faults;  // empty() == clean tester
  try {
    scenario = parse_scenario(request.scenario);
    if (!request.fault_spec.empty())
      faults = stf::rf::FaultInjector::parse(request.fault_spec);
  } catch (const std::invalid_argument& e) {
    STF_COUNT("svc.bad_requests");
    session.send_reject(request.request_id, RejectCode::kBadRequest,
                        clipped_message(e.what()));
    return;
  }

  const RejectCode admitted = admission_.admit_lot(now_us());
  if (admitted != RejectCode::kNone) {
    STF_COUNT("svc.shed");
    session.send_reject(request.request_id, admitted,
                        "admission shed: rate limit or full wait line");
    return;
  }
  Frames frames;
  bool computed = false;
  try {
    frames = process_lot(request, scenario, faults);
    computed = true;
  } catch (const std::exception& e) {
    // A lot that fails to materialize (population build OOM, contract
    // failure surfaced as an exception) is answered, not dropped.
    STF_COUNT("svc.lot_failures");
    frames = {stf::net::encode_reject({request.request_id,
                                       RejectCode::kBadRequest,
                                       clipped_message(e.what())})};
  }
  // The slot goes before the send: a stalled client holds none.
  admission_.complete_lot();
  // Only computed lots enter the replay cache: caching the reject of a
  // transient failure would replay a permanent-looking kBadRequest at
  // every retry of that request until LRU eviction. A retried failure
  // re-admits and recomputes instead.
  if (computed) replay_.put(key, std::make_shared<const Frames>(frames));
  session.send_frames(frames);
  lots_completed_.fetch_add(1);
}

SigtestServer::Frames SigtestServer::process_lot(
    const LotRequest& request, const ScenarioSpec& scenario,
    const stf::rf::FaultInjector& faults) {
  STF_REQUIRE(request.lot_size >= 1 &&
                  request.lot_size <= stf::net::kMaxLotSize &&
                  request.batch >= 1,
              "process_lot: lot_size or batch out of range");
  STF_TRACE_SPAN("svc.lot");
  const auto population = populations_.get_or_build(
      scenario.canonical() + ":n=" + std::to_string(request.lot_size),
      [&] {
        return std::make_shared<const std::vector<stf::rf::DeviceRecord>>(
            build_population(scenario, request.lot_size));
      });

  // The determinism contract's server side: base rng from the request
  // seed, per-device derivation inside test_lot, first_sequence 0 -- the
  // exact shape of sigtest::serial_reference (sigtest/cell.hpp).
  std::vector<const stf::rf::RfDut*> lot;
  lot.reserve(population->size());
  for (const stf::rf::DeviceRecord& record : *population)
    lot.push_back(record.dut.get());
  // Resolve the lot's runtime: the fixed single-scenario runtime, or the
  // registry's per-scenario one (cold-started / fitted on first touch).
  // Holding the shared_ptr pins the runtime for this lot even if the
  // registry LRU evicts the scenario mid-flight.
  std::shared_ptr<const stf::sigtest::TestCell> runtime = runtime_;
  if (registry_ != nullptr) runtime = registry_->get(scenario);
  stf::sigtest::BatchOptions batch = runtime->options();
  batch.batch_size = request.batch;
  const stf::sigtest::LotResult result = runtime->test_lot(
      lot, stf::stats::Rng(request.seed),
      faults.empty() ? nullptr : &faults, 0, batch);

  Frames frames;
  frames.reserve(result.dispositions.size() / kChunkDevices + 2);
  for (std::uint32_t first = 0; first < result.dispositions.size();
       first += kChunkDevices) {
    DispositionChunk chunk;
    chunk.request_id = request.request_id;
    chunk.first_index = first;
    const std::uint32_t count = std::min<std::uint32_t>(
        kChunkDevices,
        static_cast<std::uint32_t>(result.dispositions.size()) - first);
    chunk.dispositions.assign(
        result.dispositions.begin() + first,
        result.dispositions.begin() + first + count);
    frames.push_back(stf::net::encode_dispositions(chunk));
  }
  LotDone done;
  done.request_id = request.request_id;
  done.lot_size = static_cast<std::uint32_t>(result.dispositions.size());
  done.predicted = static_cast<std::uint32_t>(result.predicted);
  done.retried = static_cast<std::uint32_t>(result.retried);
  done.routed = static_cast<std::uint32_t>(result.routed);
  frames.push_back(stf::net::encode_lot_done(done));
  STF_COUNT("svc.lots");
  STF_COUNT("svc.devices", result.dispositions.size());
  // Which calibration epoch tested this lot (the hot-swap observability
  // hook: a trace shows exactly when lots moved to a new version).
  STF_RECORD("svc.model_version", static_cast<double>(result.model_version));
  return frames;
}

}  // namespace stf::service
