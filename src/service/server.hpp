// SigtestServer: the overload-safe network front end of the signature-test
// framework. Accepts framed lot requests (net/frame.hpp) from concurrent
// clients and multiplexes them onto one shared sigtest::TestCell.
//
// Thread structure (all I/O threads; device testing itself happens inside
// TestCell::test_lot, which the lot workers run on the shared
// parallel_for pool, taking turns like any other pool caller):
//
//   accept thread   -- admits connections (kTooManyClients past the cap)
//                      and spawns one reader per session
//   reader threads  -- reassemble frames, validate + admit requests, and
//                      feed a BoundedQueue<Work>; try_push, never push, so
//                      a full queue is a typed kShedOverload, not a hang
//   worker threads  -- pop lots, run TestCell::test_lot, stream the
//                      disposition chunks back under the session's write
//                      lock
//
// Robustness contract:
//   * Overload always answers: rate limit, per-client cap, queue-full and
//     connection cap each produce a typed Reject; memory stays bounded by
//     the queue capacity, the replay cache cap and the population LRU.
//   * Malformed bytes (ProtocolError) drop that connection only.
//   * Idempotent retry: a finished request's response frames are cached
//     (keyed by the full encoded request, so a colliding request_id with
//     different parameters can never replay the wrong lot) and replayed
//     without recomputation or re-admission.
//   * stop() drains: admitted lots complete and their dispositions flush
//     before the sockets close; nothing is lost or duplicated.
//
// Determinism contract (CI-gated by tests/service_test.cpp and the
// service-smoke job): the dispositions streamed for (seed, lot_size,
// scenario, fault_spec) are BIT-identical to the in-process serial
// reference -- sigtest::serial_reference: TestCell::test_device per device
// with derived rng streams -- no matter how many clients, how requests
// interleave, what the transport faults do, or how often retries and
// shedding occur.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/annotations.hpp"
#include "core/pipeline.hpp"
#include "net/socket.hpp"
#include "service/admission.hpp"
#include "service/registry.hpp"
#include "service/scenario.hpp"
#include "sigtest/cell.hpp"

namespace stf::service {

/// Server knobs. from_environment() routes STF_PORT / STF_MAX_CLIENTS
/// through core/env with the same reject-don't-wrap guarantees as every
/// other STF_* variable.
struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read the choice via port().
  AdmissionPolicy admission;
  std::size_t work_queue_capacity = 8;  ///< Lots queued across all clients.
  std::size_t worker_threads = 2;
  std::size_t replay_cache_lots = 16;  ///< Finished lots kept for replay.
  std::size_t population_cache_entries = 4;
  int poll_interval_ms = 50;   ///< Accept/reader wakeup cadence.
  int send_timeout_ms = 10000; ///< Bound on a stalled client's write path.

  /// Defaults overridden by STF_PORT (0..65535) and STF_MAX_CLIENTS
  /// (1..1024). Throws std::invalid_argument on garbage, like every STF_*.
  static ServerConfig from_environment();
};

/// The service front end. One instance per process/runtime; start() binds
/// and spawns, stop() (or the destructor) drains and joins everything.
class SigtestServer {
 public:
  /// The runtime must already be calibrated and must outlive the server
  /// (shared_ptr enforces it). It is shared state: test_lot is const and
  /// reentrant, which is what lets workers run lots concurrently.
  SigtestServer(std::shared_ptr<const stf::sigtest::TestCell> runtime,
                ServerConfig config = {});

  /// Multi-scenario mode: every lot resolves its runtime through the
  /// registry (store cold start or scratch fit on first touch), so one
  /// server serves any scenario the grammar can name, each on its own
  /// calibration version -- and the maintenance plane can hot-swap a
  /// scenario's model mid-service through the same registry handle.
  SigtestServer(std::shared_ptr<RuntimeRegistry> registry,
                ServerConfig config = {});
  ~SigtestServer();
  SigtestServer(const SigtestServer&) = delete;
  SigtestServer& operator=(const SigtestServer&) = delete;

  /// Bind, then spawn workers + accept loop. Throws net::SocketError when
  /// the port is taken. Call at most once.
  void start();

  /// Graceful drain (idempotent): stop accepting, let every admitted lot
  /// complete and flush, join every thread, then close the sockets.
  void stop();

  /// The bound port (valid after start(); ephemeral binds resolved).
  std::uint16_t port() const;

  bool running() const { return started_.load() && !stopping_.load(); }

  /// Lots fully processed and flushed (test/ops visibility).
  std::uint64_t lots_completed() const { return lots_completed_.load(); }

  /// Reader threads currently tracked (tests assert that threads of
  /// long-gone sessions are reaped, not accumulated until stop()).
  std::size_t reader_threads() const;

 private:
  struct Session;
  struct Work;
  class ReplayCache;

  /// One reader thread plus its exit flag. `exited` is stored to as the
  /// thread's last action, so the accept loop can join-and-discard finished
  /// readers promptly instead of holding every handle until stop().
  struct ReaderSlot {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> exited;
  };

  void accept_loop();
  /// Join and drop reader threads whose sessions have ended (called from
  /// the accept loop each wakeup, so a long-lived server never accumulates
  /// exited-but-unjoined thread handles).
  void reap_finished_readers();
  void reader_loop(std::shared_ptr<Session> session);
  void worker_loop();
  void handle_request(const std::shared_ptr<Session>& session,
                      const stf::net::LotRequest& request);
  /// Compute one lot and encode its response frames (dispositions chunks +
  /// completion marker).
  std::vector<std::vector<std::uint8_t>> process_lot(const Work& work);
  void send_reject(const std::shared_ptr<Session>& session,
                   std::uint64_t request_id, stf::net::RejectCode code,
                   const std::string& message);
  /// The shared tail of both public constructors; exactly one of
  /// runtime/registry must be non-null.
  SigtestServer(std::shared_ptr<const stf::sigtest::TestCell> runtime,
                std::shared_ptr<RuntimeRegistry> registry,
                ServerConfig config);

  std::shared_ptr<const stf::sigtest::TestCell> runtime_;
  std::shared_ptr<RuntimeRegistry> registry_;
  ServerConfig config_;
  AdmissionController admission_;
  PopulationCache populations_;
  std::unique_ptr<ReplayCache> replay_;
  std::unique_ptr<stf::net::Listener> listener_;
  std::unique_ptr<stf::core::BoundedQueue<Work>> queue_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> lots_completed_{0};
  std::atomic<std::uint64_t> next_client_id_{0};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  mutable stf::core::Mutex readers_mutex_;
  std::vector<ReaderSlot> readers_ STF_GUARDED_BY(readers_mutex_);
};

}  // namespace stf::service
