#include "service/server.hpp"

#include <chrono>
#include <condition_variable>
#include <set>
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

/// One connected client. The socket has two independent concerns: the
/// reader thread owns the receive direction outright (no lock), and the
/// send direction is shared by workers + reader under write_mutex.
struct SigtestServer::Session {
  std::uint64_t id = 0;
  stf::net::Socket socket;

  stf::core::Mutex write_mutex;
  bool write_dead STF_GUARDED_BY(write_mutex) = false;

  stf::core::Mutex state_mutex;
  std::condition_variable drained_cv;
  /// Request ids admitted on this session and not yet flushed.
  std::set<std::uint64_t> inflight STF_GUARDED_BY(state_mutex);

  /// Send frames in order under the write lock. A transport failure marks
  /// the session dead (the client will retry on a new connection) -- it
  /// never propagates into the worker.
  void send_frames(const std::vector<std::vector<std::uint8_t>>& frames) {
    const stf::core::LockGuard lock(write_mutex);
    if (write_dead) return;
    try {
      for (const std::vector<std::uint8_t>& frame : frames)
        socket.send_all(frame);
    } catch (const SocketError&) {
      write_dead = true;
      STF_COUNT("svc.send_failures");
    }
  }

  void add_inflight(std::uint64_t request_id) {
    const stf::core::LockGuard lock(state_mutex);
    inflight.insert(request_id);
  }

  bool is_inflight(std::uint64_t request_id) {
    const stf::core::LockGuard lock(state_mutex);
    return inflight.count(request_id) != 0;
  }

  void finish_inflight(std::uint64_t request_id) {
    {
      const stf::core::LockGuard lock(state_mutex);
      inflight.erase(request_id);
    }
    drained_cv.notify_all();
  }

  /// Block until every admitted lot of this session has flushed (the
  /// reader's exit barrier; workers signal via finish_inflight).
  void wait_drained() {
    stf::core::UniqueLock lock(state_mutex);
    while (!inflight.empty()) drained_cv.wait(lock.native());
  }
};

/// A validated, admitted lot waiting for a worker.
struct SigtestServer::Work {
  std::shared_ptr<Session> session;
  LotRequest request;
  ScenarioSpec scenario;
  stf::rf::FaultInjector faults;  ///< empty() == clean tester.
  std::string replay_key;
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
      admission_(config_.admission),
      populations_(config_.population_cache_entries,
                   "svc.population_cache_hits", "svc.population_cache_misses"),
      replay_(kReplayLots) {
  STF_REQUIRE((runtime_ != nullptr) != (registry_ != nullptr),
              "SigtestServer: exactly one of runtime/registry");
  STF_REQUIRE(runtime_ == nullptr || runtime_->calibrated(),
              "SigtestServer: runtime not calibrated");
  STF_REQUIRE(config_.worker_threads >= 1, "SigtestServer: no workers");
  STF_REQUIRE(config_.work_queue_capacity >= 1,
              "SigtestServer: work_queue_capacity < 1");
  STF_REQUIRE(config_.poll_interval_ms >= 1 && config_.send_timeout_ms >= 1,
              "SigtestServer: intervals must be >= 1 ms");
}

SigtestServer::~SigtestServer() { stop(); }

void SigtestServer::start() {
  STF_REQUIRE(!started_.exchange(true), "SigtestServer: started twice");
  listener_ = std::make_unique<stf::net::Listener>(config_.bind_address,
                                                   config_.port);
  queue_ = std::make_unique<stf::core::BoundedQueue<Work>>(
      config_.work_queue_capacity);
  workers_.reserve(config_.worker_threads);
  for (std::size_t w = 0; w < config_.worker_threads; ++w)
    workers_.emplace_back([this] { worker_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

std::uint16_t SigtestServer::port() const {
  STF_REQUIRE(listener_ != nullptr, "SigtestServer::port: not started");
  return listener_->port();
}

void SigtestServer::stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  // Drain order matters: (1) stop admitting connections, (2) close the
  // queue so workers finish the admitted backlog and exit, (3) only then
  // join the readers -- their exit barrier is "every inflight lot flushed",
  // which the worker join guarantees is reachable -- and let the sessions
  // close as the last shared_ptrs die.
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listener_ != nullptr) listener_->close();
  if (queue_ != nullptr) queue_->close();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
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
    auto session = std::make_shared<Session>();
    session->id = next_client_id_.fetch_add(1) + 1;
    session->socket = std::move(socket);
    ReaderSlot slot;
    slot.exited = std::make_shared<std::atomic<bool>>(false);
    slot.thread = std::thread(
        [this, session = std::move(session), exited = slot.exited] {
          reader_loop(session);
          exited->store(true);
        });
    const stf::core::LockGuard lock(readers_mutex_);
    readers_.push_back(std::move(slot));
  }
}

void SigtestServer::reader_loop(std::shared_ptr<Session> session) {
  stf::net::FrameReader reader;
  std::uint8_t buffer[4096];
  stf::net::Frame frame;
  try {
    while (!stopping_.load()) {
      if (!session->socket.wait_readable(config_.poll_interval_ms)) continue;
      const std::size_t n = session->socket.recv_some(buffer);
      if (n == 0) break;  // orderly EOF
      reader.feed(std::span<const std::uint8_t>(buffer, n));
      while (reader.next(frame)) {
        if (frame.type != FrameType::kRequest)
          throw ProtocolError("server: client sent a non-request frame");
        handle_request(session, stf::net::decode_request(frame.payload));
      }
    }
  } catch (const ProtocolError&) {
    // Malformed peer: drop this connection, nothing else. The admitted
    // lots it already queued still complete and flush below.
    STF_COUNT("svc.protocol_errors");
  } catch (const SocketError&) {
    STF_COUNT("svc.transport_errors");
  }
  session->wait_drained();
  admission_.release_client(session->id);
}

void SigtestServer::handle_request(const std::shared_ptr<Session>& session,
                                   const LotRequest& request) {
  STF_REQUIRE(session != nullptr, "handle_request: null session");
  STF_COUNT("svc.requests");
  // The replay key is the canonical request encoding; decode -> encode is
  // the identity for well-formed requests.
  const std::vector<std::uint8_t> encoded = stf::net::encode_request(request);
  const std::string key(encoded.begin(), encoded.end());
  if (const auto frames = replay_.find(key)) {
    STF_COUNT("svc.replays");
    session->send_frames(*frames);
    return;
  }
  if (session->is_inflight(request.request_id)) {
    // Same-session duplicate while the lot is still running: the answer is
    // already on its way; answering twice would duplicate dispositions.
    STF_COUNT("svc.duplicates_dropped");
    return;
  }
  if (stopping_.load()) {
    send_reject(session, request.request_id, RejectCode::kShuttingDown,
                "server draining");
    return;
  }

  Work work;
  work.session = session;
  work.request = request;
  work.replay_key = key;
  try {
    work.scenario = parse_scenario(request.scenario);
    if (!request.fault_spec.empty())
      work.faults = stf::rf::FaultInjector::parse(request.fault_spec);
  } catch (const std::invalid_argument& e) {
    STF_COUNT("svc.bad_requests");
    send_reject(session, request.request_id, RejectCode::kBadRequest,
                clipped_message(e.what()));
    return;
  }

  const RejectCode admitted =
      admission_.admit_lot(session->id, now_us());
  if (admitted != RejectCode::kNone) {
    STF_COUNT("svc.shed");
    send_reject(session, request.request_id, admitted,
                "admission shed: rate or inflight cap");
    return;
  }

  session->add_inflight(request.request_id);
  const std::uint64_t request_id = request.request_id;
  switch (queue_->try_push(std::move(work))) {
    case stf::core::PushResult::kAccepted:
      return;
    case stf::core::PushResult::kFull:
      STF_COUNT("svc.shed_queue_full");
      admission_.complete_lot(session->id);
      session->finish_inflight(request_id);
      send_reject(session, request_id, RejectCode::kShedOverload,
                  "work queue full");
      return;
    case stf::core::PushResult::kClosed:
      admission_.complete_lot(session->id);
      session->finish_inflight(request_id);
      send_reject(session, request_id, RejectCode::kShuttingDown,
                  "server draining");
      return;
  }
}

void SigtestServer::worker_loop() {
  Work work;
  while (queue_->pop(work)) {
    std::vector<std::vector<std::uint8_t>> frames;
    bool computed = false;
    try {
      frames = process_lot(work);
      computed = true;
    } catch (const std::exception& e) {
      // A lot that fails to materialize (population build OOM, contract
      // failure surfaced as an exception) is answered, not dropped.
      STF_COUNT("svc.lot_failures");
      frames.push_back(stf::net::encode_reject(
          {work.request.request_id, RejectCode::kBadRequest,
           clipped_message(e.what())}));
    }
    // Only computed lots enter the replay cache: caching the reject of a
    // transient failure would replay a permanent-looking kBadRequest at
    // every retry of that request until LRU eviction. A retried failure
    // re-admits and recomputes instead.
    if (computed)
      replay_.put(work.replay_key, std::make_shared<const Frames>(frames));
    work.session->send_frames(frames);
    admission_.complete_lot(work.session->id);
    work.session->finish_inflight(work.request.request_id);
    lots_completed_.fetch_add(1);
    work = Work();  // drop the session reference before the next pop blocks
  }
}

std::vector<std::vector<std::uint8_t>> SigtestServer::process_lot(
    const Work& work) {
  STF_REQUIRE(work.session != nullptr, "process_lot: work has no session");
  STF_TRACE_SPAN("svc.lot");
  const LotRequest& request = work.request;
  const auto population = populations_.get_or_build(
      work.scenario.canonical() + ":n=" + std::to_string(request.lot_size),
      [&] {
        return std::make_shared<const std::vector<stf::rf::DeviceRecord>>(
            build_population(work.scenario, request.lot_size));
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
  if (registry_ != nullptr) runtime = registry_->get(work.scenario);
  stf::sigtest::BatchOptions batch = runtime->options();
  batch.batch_size = request.batch;
  const stf::sigtest::LotResult result = runtime->test_lot(
      lot, stf::stats::Rng(request.seed),
      work.faults.empty() ? nullptr : &work.faults, 0, batch);

  std::vector<std::vector<std::uint8_t>> frames;
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

void SigtestServer::send_reject(const std::shared_ptr<Session>& session,
                                std::uint64_t request_id, RejectCode code,
                                const std::string& message) {
  std::vector<std::vector<std::uint8_t>> frames;
  frames.push_back(stf::net::encode_reject({request_id, code, message}));
  session->send_frames(frames);
}

}  // namespace stf::service
