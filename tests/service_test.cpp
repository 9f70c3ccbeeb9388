// End-to-end tests of the signature-test service (service/server.hpp,
// service/admission.hpp, service/scenario.hpp): the CI-gated determinism
// contract -- dispositions streamed over TCP are BIT-identical to the
// in-process serial guarded reference for any client count, interleaving,
// transport fault scenario, retry pattern and STF_THREADS setting -- plus
// typed overload shedding, idempotent replay, bad-request rejection,
// malformed-peer isolation, graceful drain, kept client connections, and
// the admission/scenario units with a synthetic clock.
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <clocale>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "circuit/lna900.hpp"
#include "core/parallel.hpp"
#include "core/telemetry.hpp"
#include "dsp/pwl.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/transport_faults.hpp"
#include "rf/faults.hpp"
#include "rf/population.hpp"
#include "service/admission.hpp"
#include "service/registry.hpp"
#include "service/scenario.hpp"
#include "sigtest/cell.hpp"
#include "stats/rng.hpp"
#include "store/calibration_store.hpp"

namespace {

using namespace stf;

constexpr std::uint32_t kLotSize = 24;
constexpr const char* kScenario = "lna:spread=0.2:pop=77";

/// Pin the pool width for one test and restore the environment-resolved
/// default afterwards, so tests compose in any order.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t n) { core::set_thread_count(n); }
  ~ThreadCountGuard() { core::set_thread_count(0); }
};

/// Scoped setenv/unsetenv (for the STF_PORT / STF_MAX_CLIENTS routing).
class EnvVarGuard {
 public:
  EnvVarGuard(const char* name, const char* value) : name_(name) {
    if (value != nullptr)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~EnvVarGuard() { ::unsetenv(name_.c_str()); }

 private:
  std::string name_;
};

/// Telemetry on and zeroed for one test, off and zeroed after it (counters
/// are process-wide). Counter checks run only when telemetry is compiled in.
class CountersOn {
 public:
  CountersOn() {
    core::telemetry::set_enabled(true);
    core::telemetry::reset();
  }
  ~CountersOn() {
    core::telemetry::set_enabled(false);
    core::telemetry::reset();
  }
  CountersOn(const CountersOn&) = delete;
  CountersOn& operator=(const CountersOn&) = delete;

  static std::uint64_t count(const char* name) {
    return core::telemetry::counter_value(name);
  }
};

/// Poll `done` every 5 ms for up to 10 s (thread exits and reaping are
/// asynchronous, but bounded by the server's 5 ms poll interval).
template <class Pred>
bool eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  return done();
}

class ServiceTest : public ::testing::Test {
 protected:
  /// One calibrated runtime + the lot the scenario string names, shared by
  /// every test (characterization dominates, so build it once). The lot is
  /// make_lna_population(24, 0.2, 77) -- exactly what the server rebuilds
  /// from kScenario, so in-process references and served lots are the same
  /// physical devices.
  struct World {
    std::shared_ptr<sigtest::TestCell> runtime;
    std::vector<rf::DeviceRecord> lot;

    World()
        : runtime(std::make_shared<sigtest::TestCell>(
              sigtest::SignatureTestConfig::simulation_study(), stimulus(),
              circuit::LnaSpecs::names(), policy(),
              sigtest::BatchOptions{5})),
          lot(rf::make_lna_population(kLotSize, 0.2, 77)) {
      const auto cal = rf::make_lna_population(40, 0.2, 21);
      stats::Rng cal_rng(7);
      runtime->calibrate(cal, cal_rng);
    }

    static dsp::PwlWaveform stimulus() {
      const auto cfg = sigtest::SignatureTestConfig::simulation_study();
      return dsp::PwlWaveform::uniform(
          cfg.capture_s, {0.0, 0.2, -0.2, 0.1, -0.05, 0.2, 0.0, -0.2, 0.1});
    }

    static sigtest::GuardPolicy policy() {
      sigtest::GuardPolicy p;
      p.outlier_threshold = 2.5;
      return p;
    }
  };

  static World& world() {
    static World w;
    return w;
  }

  /// The serial guarded reference of the determinism contract: device i
  /// tested with the derived child stream rng.derive(i), sequence i.
  static std::vector<sigtest::TestDisposition> serial_reference(
      std::uint64_t seed, const rf::FaultInjector* faults) {
    World& w = world();
    return sigtest::serial_reference(*w.runtime, w.lot, stats::Rng(seed),
                                     faults);
  }

  static void expect_identical(
      const std::vector<sigtest::TestDisposition>& reference,
      const std::vector<sigtest::TestDisposition>& served,
      const std::string& label) {
    ASSERT_EQ(reference.size(), served.size()) << label;
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_TRUE(reference[i] == served[i]) << label << " device " << i;
  }

  static service::ServerConfig fast_config() {
    service::ServerConfig config;
    config.poll_interval_ms = 5;
    return config;
  }

  static net::LotRequest request_for(std::uint64_t request_id,
                                     std::uint64_t seed,
                                     const std::string& fault_spec = "") {
    net::LotRequest request;
    request.request_id = request_id;
    request.seed = seed;
    request.lot_size = kLotSize;
    request.batch = 5;
    request.scenario = kScenario;
    request.fault_spec = fault_spec;
    return request;
  }

  static net::ClientOptions quiet_client() {
    net::ClientOptions options;
    options.sleep_ms = [](int) {};  // retries need no real backoff in tests
    options.response_timeout_ms = 30000;
    return options;
  }
};

TEST_F(ServiceTest, SingleClientMatchesSerialReferenceAtBothThreadCounts) {
  const auto clean_reference = serial_reference(9001, nullptr);
  const auto faults = rf::FaultInjector::parse("clip:0.12,contact:0.05:0.05");
  const auto faulted_reference = serial_reference(9001, &faults);
  // A smaller lot of the same scenario is its own population, not a prefix
  // of the cached 24-device one.
  constexpr std::uint32_t kSmallLot = 8;
  const auto small_reference = sigtest::serial_reference(
      *world().runtime, rf::make_lna_population(kSmallLot, 0.2, 77),
      stats::Rng(9001));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadCountGuard guard(threads);
    service::SigtestServer server(world().runtime, fast_config());
    server.start();
    net::SigtestClient client(server.port(), quiet_client());

    const auto clean = client.run_lot(request_for(1, 9001));
    ASSERT_EQ(clean.status, net::ClientStatus::kOk) << clean.message;
    EXPECT_EQ(clean.attempts, 1);
    expect_identical(clean_reference, clean.dispositions,
                     "clean t" + std::to_string(threads));
    EXPECT_EQ(clean.predicted + clean.retried + clean.routed, kLotSize);

    const auto faulted =
        client.run_lot(request_for(2, 9001, "clip:0.12,contact:0.05:0.05"));
    ASSERT_EQ(faulted.status, net::ClientStatus::kOk) << faulted.message;
    expect_identical(faulted_reference, faulted.dispositions,
                     "faulted t" + std::to_string(threads));

    auto small_request = request_for(3, 9001);
    small_request.lot_size = kSmallLot;
    const auto small = client.run_lot(small_request);
    ASSERT_EQ(small.status, net::ClientStatus::kOk) << small.message;
    expect_identical(small_reference, small.dispositions,
                     "small lot t" + std::to_string(threads));
    server.stop();
  }
}

TEST_F(ServiceTest, ConcurrentClientsAreBitIdenticalAtAnyInterleaving) {
  // A mix of duplicate and distinct seeds across 4 then 8 concurrent
  // clients: interleaving on the shared runtime and queue must not leak
  // between lots.
  const std::uint64_t seeds[3] = {9001, 424242, 7};
  std::vector<std::vector<sigtest::TestDisposition>> references;
  for (const std::uint64_t seed : seeds)
    references.push_back(serial_reference(seed, nullptr));
  for (const std::size_t n_clients : {std::size_t{4}, std::size_t{8}}) {
    ThreadCountGuard guard(4);
    service::ServerConfig config = fast_config();
    config.work_queue_capacity = 16;  // no shedding in this test
    service::SigtestServer server(world().runtime, config);
    server.start();
    std::vector<net::ClientLotResult> results(n_clients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < n_clients; ++c)
      clients.emplace_back([&, c] {
        net::SigtestClient client(server.port(), quiet_client());
        results[c] =
            client.run_lot(request_for(100 + c, seeds[c % 3]));
      });
    for (std::thread& t : clients) t.join();
    for (std::size_t c = 0; c < n_clients; ++c) {
      ASSERT_EQ(results[c].status, net::ClientStatus::kOk)
          << "client " << c << ": " << results[c].message;
      expect_identical(references[c % 3], results[c].dispositions,
                       "client " + std::to_string(c));
    }
    server.stop();
  }
}

TEST_F(ServiceTest, TransportFaultsWithRetriesStayBitIdentical) {
  // Every transport fault class armed at once, at both thread counts. The
  // server sees truncated frames, garbage, oversized lengths, duplicated
  // requests, slowloris dribbles and mid-lot disconnects -- and the final
  // dispositions must still be the serial reference, bit for bit.
  const auto reference = serial_reference(31337, nullptr);
  const auto transport_faults = net::TransportFaultInjector::parse(
      "trunc:0.5,oversize:0.5,garbage:0.5,disconnect:0.5,slow:0.5,dup:0.5");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadCountGuard guard(threads);
    service::SigtestServer server(world().runtime, fast_config());
    server.start();
    constexpr std::size_t kClients = 4;
    std::vector<net::ClientLotResult> results(kClients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        net::SigtestClient client(server.port(), quiet_client());
        client.set_transport_faults(&transport_faults, 555 + c);
        results[c] = client.run_lot(request_for(200 + c, 31337));
      });
    for (std::thread& t : clients) t.join();
    int total_attempts = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
      ASSERT_EQ(results[c].status, net::ClientStatus::kOk)
          << "client " << c << ": " << results[c].message;
      expect_identical(reference, results[c].dispositions,
                       "faulted client " + std::to_string(c));
      total_attempts += results[c].attempts;
    }
    // The scenario must actually bite, or the equivalence proves nothing.
    EXPECT_GT(total_attempts, static_cast<int>(kClients))
        << "no transport fault ever forced a retry";
    server.stop();
  }
}

TEST_F(ServiceTest, DuplicateRequestIdReplaysInsteadOfRecomputing) {
  ThreadCountGuard guard(4);
  service::SigtestServer server(world().runtime, fast_config());
  server.start();
  net::SigtestClient client(server.port(), quiet_client());
  const auto first = client.run_lot(request_for(77, 9001));
  ASSERT_EQ(first.status, net::ClientStatus::kOk) << first.message;
  // Same request again (a client-level retry after a lost response): the
  // server must replay its cached frames, not burn a second computation.
  const auto second = client.run_lot(request_for(77, 9001));
  ASSERT_EQ(second.status, net::ClientStatus::kOk) << second.message;
  expect_identical(first.dispositions, second.dispositions, "replay");
  // Counter is final once stop() has joined the workers: one computation.
  server.stop();
  EXPECT_EQ(server.lots_completed(), 1u) << "replay recomputed the lot";
}

TEST_F(ServiceTest, SameConnectionDuplicateIsAnsweredFromTheReplayCache) {
  // The `dup` transport fault: one request sent twice, back to back, on one
  // connection. The reader runs the first copy before it reads the second,
  // so the second replays the first's frames.
  ThreadCountGuard guard(4);
  const CountersOn counters;
  service::SigtestServer server(world().runtime, fast_config());
  server.start();
  net::Socket raw = net::connect_to("127.0.0.1", server.port(), 2000);
  const std::vector<std::uint8_t> request =
      net::encode_request(request_for(9, 9001));
  std::vector<std::uint8_t> bytes = request;
  bytes.insert(bytes.end(), request.begin(), request.end());
  raw.send_all(bytes);

  net::FrameReader reader;
  std::uint8_t buffer[4096];
  // One answer: the dispositions chunks in order, up to the LotDone.
  const auto read_answer = [&] {
    std::vector<sigtest::TestDisposition> served;
    net::Frame frame;
    for (;;) {
      while (reader.next(frame)) {
        if (frame.type == net::FrameType::kLotDone) return served;
        if (frame.type != net::FrameType::kDispositions) {
          ADD_FAILURE() << "unexpected frame type "
                        << static_cast<int>(frame.type);
          return served;
        }
        const auto chunk = net::decode_dispositions(frame.payload);
        EXPECT_EQ(chunk.first_index, served.size());
        served.insert(served.end(), chunk.dispositions.begin(),
                      chunk.dispositions.end());
      }
      if (!raw.wait_readable(30000)) {
        ADD_FAILURE() << "no complete answer within 30 s";
        return served;
      }
      const std::size_t n = raw.recv_some(buffer);
      if (n == 0) {
        ADD_FAILURE() << "server closed the connection";
        return served;
      }
      reader.feed(std::span<const std::uint8_t>(buffer, n));
    }
  };
  const auto reference = serial_reference(9001, nullptr);
  expect_identical(reference, read_answer(), "first copy");
  expect_identical(reference, read_answer(), "second copy");
  raw.close();
  server.stop();
  EXPECT_EQ(server.lots_completed(), 1u) << "the duplicate was recomputed";
  if (core::telemetry::compiled()) {
    EXPECT_EQ(counters.count("svc.replays"), 1u);
  }
}

TEST_F(ServiceTest, OverloadShedsTypedAndAdmittedLotsStillComplete) {
  ThreadCountGuard guard(4);
  service::ServerConfig config = fast_config();
  // Token bucket with a 2-lot burst and (practically) no refill: exactly
  // two of the eight concurrent lots are admitted, six get a typed shed.
  config.admission.lots_per_second = 1e-9;
  config.admission.burst_lots = 2.0;
  config.work_queue_capacity = 8;
  service::SigtestServer server(world().runtime, config);
  server.start();
  const auto reference = serial_reference(9001, nullptr);
  constexpr std::size_t kClients = 8;
  std::vector<net::ClientLotResult> results(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      net::SigtestClient client(server.port(), quiet_client());
      results[c] = client.run_lot(request_for(300 + c, 9001));
    });
  for (std::thread& t : clients) t.join();
  std::size_t oks = 0;
  std::size_t sheds = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    if (results[c].status == net::ClientStatus::kOk) {
      ++oks;
      expect_identical(reference, results[c].dispositions,
                       "admitted client " + std::to_string(c));
    } else {
      ASSERT_EQ(results[c].status, net::ClientStatus::kRejected)
          << "client " << c << " got an untyped failure: "
          << results[c].message;
      EXPECT_EQ(results[c].reject_code, net::RejectCode::kShedOverload)
          << "client " << c;
      ++sheds;
    }
  }
  EXPECT_EQ(oks, 2u);
  EXPECT_EQ(sheds, kClients - 2);
  // Counter is final once stop() has joined the workers.
  server.stop();
  EXPECT_EQ(server.lots_completed(), 2u);
}

TEST_F(ServiceTest, ConnectionCapRefusesTyped) {
  ThreadCountGuard guard(1);
  const CountersOn counters;
  service::ServerConfig config = fast_config();
  config.admission.max_clients = 1;
  service::SigtestServer server(world().runtime, config);
  server.start();
  // Occupy the single slot with a raw idle connection, and wait until the
  // accept loop has admitted it (its reader runs)...
  net::Socket occupier = net::connect_to("127.0.0.1", server.port(), 2000);
  ASSERT_TRUE(eventually([&] { return server.reader_threads() == 1; }));
  // ...then a real client must get the typed refusal, not a hang.
  net::ClientOptions options = quiet_client();
  options.max_attempts = 1;
  net::SigtestClient client(server.port(), options);
  const auto result = client.run_lot(request_for(1, 9001));
  ASSERT_EQ(result.status, net::ClientStatus::kRejected) << result.message;
  EXPECT_EQ(result.reject_code, net::RejectCode::kTooManyClients);
  // Once the occupier has left, the same client is served on a new
  // connection: the refused one was closed, not kept.
  occupier.close();
  ASSERT_TRUE(eventually([&] { return server.reader_threads() == 0; }));
  const auto served = client.run_lot(request_for(2, 9001));
  ASSERT_EQ(served.status, net::ClientStatus::kOk) << served.message;
  EXPECT_EQ(served.attempts, 1);
  expect_identical(serial_reference(9001, nullptr), served.dispositions,
                   "after the refusal");
  if (core::telemetry::compiled()) {
    EXPECT_EQ(counters.count("net.client.connects"), 2u);
    EXPECT_EQ(counters.count("net.client.reuses"), 0u);
    EXPECT_EQ(counters.count("net.client.stale_closed"), 0u);
  }
  server.stop();
}

TEST_F(ServiceTest, ExitedSessionsReaderThreadsAreReapedWhileRunning) {
  ThreadCountGuard guard(1);
  service::SigtestServer server(world().runtime, fast_config());
  server.start();
  // Several short-lived sessions: one real lot plus a handful of idle
  // connects that close immediately. Their reader threads must be joined
  // by the running accept loop -- regression: handles (and stacks) of
  // long-gone sessions accumulated without bound until stop().
  {
    net::SigtestClient client(server.port(), quiet_client());
    const auto result = client.run_lot(request_for(700, 9001));
    ASSERT_EQ(result.status, net::ClientStatus::kOk) << result.message;
    // The client keeps its connection, so its session's reader lives on
    // until the client is destroyed and closes it.
    EXPECT_EQ(server.reader_threads(), 1u);
  }
  for (int c = 0; c < 4; ++c) {
    net::Socket idle = net::connect_to("127.0.0.1", server.port(), 2000);
  }  // closed here: each session's reader sees EOF and exits
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.reader_threads() != 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server.reader_threads(), 0u);
  EXPECT_TRUE(server.running());  // reaping happened in flight, not in stop
  server.stop();
}

TEST_F(ServiceTest, BadRequestsAreTypedAndNeverKillTheServer) {
  ThreadCountGuard guard(1);
  service::SigtestServer server(world().runtime, fast_config());
  server.start();
  net::SigtestClient client(server.port(), quiet_client());

  net::LotRequest bad_scenario = request_for(1, 9001);
  bad_scenario.scenario = "warp:spread=0.2";
  const auto r1 = client.run_lot(bad_scenario);
  ASSERT_EQ(r1.status, net::ClientStatus::kRejected);
  EXPECT_EQ(r1.reject_code, net::RejectCode::kBadRequest);
  EXPECT_NE(r1.message.find("warp"), std::string::npos);

  net::LotRequest bad_faults = request_for(2, 9001);
  bad_faults.fault_spec = "bogus:1";
  const auto r2 = client.run_lot(bad_faults);
  ASSERT_EQ(r2.status, net::ClientStatus::kRejected);
  EXPECT_EQ(r2.reject_code, net::RejectCode::kBadRequest);

  // A well-formed spec whose probability bernoulli_distribution cannot take.
  net::LotRequest bad_probability = request_for(4, 9001);
  bad_probability.fault_spec = "contact:1.5:0.05";
  const auto r3 = client.run_lot(bad_probability);
  ASSERT_EQ(r3.status, net::ClientStatus::kRejected);
  EXPECT_EQ(r3.reject_code, net::RejectCode::kBadRequest);

  // Malformed bytes on a raw connection: that connection dies, the server
  // does not.
  {
    net::Socket raw = net::connect_to("127.0.0.1", server.port(), 2000);
    const std::vector<std::uint8_t> garbage = {0xFF, 0xFF, 0xFF, 0xFF, 0x01};
    raw.send_all(garbage);
    std::uint8_t buffer[64];
    // The server drops us: orderly EOF (or a reset surfaced as an error).
    try {
      ASSERT_TRUE(raw.wait_readable(2000));
      EXPECT_EQ(raw.recv_some(buffer), 0u);
    } catch (const net::SocketError&) {
    }
  }
  const auto alive = client.run_lot(request_for(3, 9001));
  ASSERT_EQ(alive.status, net::ClientStatus::kOk) << alive.message;
  server.stop();
}

// Regression: FaultInjector::parse read numbers with std::stod, which
// throws std::out_of_range on "1e999" and on the subnormal "1e-320". The
// request handler caught only std::invalid_argument and the reader thread
// only transport errors, so one such request aborted the server process.
TEST_F(ServiceTest, OutOfRangeFaultNumbersGetATypedAnswer) {
  ThreadCountGuard guard(1);
  service::SigtestServer server(world().runtime, fast_config());
  server.start();
  net::SigtestClient client(server.port(), quiet_client());

  const auto huge = client.run_lot(request_for(1, 9001, "clip:1e999"));
  ASSERT_EQ(huge.status, net::ClientStatus::kRejected) << huge.message;
  EXPECT_EQ(huge.reject_code, net::RejectCode::kBadRequest);
  EXPECT_NE(huge.message.find("1e999"), std::string::npos) << huge.message;

  // A subnormal clip rail is a finite number, so the lot runs; a library
  // whose from_chars reports the underflow makes it a typed bad request.
  const auto tiny = client.run_lot(request_for(2, 9001, "clip:1e-320"));
  if (tiny.status == net::ClientStatus::kRejected)
    EXPECT_EQ(tiny.reject_code, net::RejectCode::kBadRequest);
  else
    EXPECT_EQ(tiny.status, net::ClientStatus::kOk) << tiny.message;

  const auto clean = client.run_lot(request_for(3, 9001));
  ASSERT_EQ(clean.status, net::ClientStatus::kOk) << clean.message;
  expect_identical(serial_reference(9001, nullptr), clean.dispositions,
                   "clean lot after the out-of-range specs");
  server.stop();
}

TEST_F(ServiceTest, GracefulStopDrainsAdmittedLotsWithoutLossOrDuplication) {
  ThreadCountGuard guard(4);
  service::ServerConfig config = fast_config();
  config.work_queue_capacity = 8;
  config.worker_threads = 1;  // an actual backlog forms
  service::SigtestServer server(world().runtime, config);
  server.start();
  constexpr std::size_t kClients = 6;
  std::vector<net::ClientLotResult> results(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      net::ClientOptions options = quiet_client();
      options.max_attempts = 1;
      options.response_timeout_ms = 30000;
      net::SigtestClient client(server.port(), options);
      results[c] = client.run_lot(request_for(400 + c, 9001));
    });
  // Stop while the backlog is (very likely) still draining: admitted lots
  // must complete and flush; late requests get typed answers or EOF.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.stop();
  for (std::thread& t : clients) t.join();
  const auto reference = serial_reference(9001, nullptr);
  std::size_t oks = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    switch (results[c].status) {
      case net::ClientStatus::kOk:
        ++oks;
        expect_identical(reference, results[c].dispositions,
                         "drained client " + std::to_string(c));
        break;
      case net::ClientStatus::kRejected:
        EXPECT_TRUE(
            results[c].reject_code == net::RejectCode::kShuttingDown ||
            results[c].reject_code == net::RejectCode::kShedOverload)
            << "client " << c;
        break;
      case net::ClientStatus::kTransportFailure:
        break;  // request never admitted; typed at the client
    }
  }
  // Every admitted lot completed (lots_completed counts flushes) and no
  // client saw a duplicated or partial disposition set (expect_identical
  // above plus the client's all-slots-filled check).
  EXPECT_EQ(server.lots_completed(), oks);
}

TEST_F(ServiceTest, SequentialLotsShareOneConnection) {
  ThreadCountGuard guard(4);
  const CountersOn counters;
  service::SigtestServer server(world().runtime, fast_config());
  server.start();
  net::SigtestClient client(server.port(), quiet_client());
  for (std::uint64_t k = 0; k < 5; ++k) {
    const auto served = client.run_lot(request_for(1 + k, 9001 + k));
    ASSERT_EQ(served.status, net::ClientStatus::kOk) << served.message;
    EXPECT_EQ(served.attempts, 1);
    expect_identical(serial_reference(9001 + k, nullptr), served.dispositions,
                     "lot " + std::to_string(k));
  }
  server.stop();
  if (!core::telemetry::compiled())
    GTEST_SKIP() << "telemetry compiled out: connection counts unchecked";
  EXPECT_EQ(counters.count("svc.connections"), 1u);
  EXPECT_EQ(counters.count("net.client.connects"), 1u);
  EXPECT_EQ(counters.count("net.client.reuses"), 4u);
  EXPECT_EQ(counters.count("net.client.stale_closed"), 0u);
}

TEST_F(ServiceTest, SharedClientKeepsAtMostOneConnectionPerCaller) {
  // Three threads share one client, as the benchmark's open-loop callers
  // do; the idle stack is the state they share.
  ThreadCountGuard guard(4);
  const CountersOn counters;
  const std::uint64_t seeds[3] = {9001, 424242, 7};
  std::vector<std::vector<sigtest::TestDisposition>> references;
  for (const std::uint64_t seed : seeds)
    references.push_back(serial_reference(seed, nullptr));
  service::SigtestServer server(world().runtime, fast_config());
  server.start();
  const net::SigtestClient client(server.port(), quiet_client());
  constexpr std::size_t kCallers = 3;
  constexpr std::size_t kLots = 3;
  std::vector<net::ClientLotResult> results(kCallers * kLots);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c)
    callers.emplace_back([&, c] {
      for (std::size_t k = 0; k < kLots; ++k)
        results[c * kLots + k] =
            client.run_lot(request_for(500 + c * kLots + k, seeds[k]));
    });
  for (std::thread& t : callers) t.join();
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].status, net::ClientStatus::kOk)
        << "lot " << i << ": " << results[i].message;
    expect_identical(references[i % kLots], results[i].dispositions,
                     "lot " + std::to_string(i));
  }
  server.stop();
  if (!core::telemetry::compiled())
    GTEST_SKIP() << "telemetry compiled out: connection counts unchecked";
  EXPECT_LE(counters.count("svc.connections"), kCallers);
  EXPECT_LE(counters.count("net.client.connects"), kCallers);
  EXPECT_EQ(counters.count("net.client.connects") +
                counters.count("net.client.reuses"),
            kCallers * kLots);
}

TEST_F(ServiceTest, KeptConnectionOutlivesAServerRestartOnTheSamePort) {
  // The first server's stop closes the kept connection; the client sees
  // its EOF before reuse and connects to the restarted server instead of
  // spending an attempt on a dead connection.
  ThreadCountGuard guard(1);
  const CountersOn counters;
  service::ServerConfig config = fast_config();
  service::SigtestServer first(world().runtime, config);
  first.start();
  net::SigtestClient client(first.port(), quiet_client());
  const auto before = client.run_lot(request_for(1, 9001));
  ASSERT_EQ(before.status, net::ClientStatus::kOk) << before.message;
  first.stop();

  config.port = first.port();  // the Listener binds with SO_REUSEADDR
  service::SigtestServer second(world().runtime, config);
  second.start();
  const auto after = client.run_lot(request_for(2, 424242));
  ASSERT_EQ(after.status, net::ClientStatus::kOk) << after.message;
  EXPECT_EQ(after.attempts, 1);
  expect_identical(serial_reference(424242, nullptr), after.dispositions,
                   "after the restart");
  second.stop();
  if (core::telemetry::compiled()) {
    EXPECT_EQ(counters.count("net.client.stale_closed"), 1u);
    EXPECT_EQ(counters.count("net.client.connects"), 2u);
  }
}

TEST_F(ServiceTest, ArmedTransportFaultsConnectAnewForEveryAttempt) {
  ThreadCountGuard guard(1);
  const CountersOn counters;
  const auto reference = serial_reference(31337, nullptr);
  const auto transport_faults = net::TransportFaultInjector::parse(
      "trunc:0.5,oversize:0.5,garbage:0.5,disconnect:0.5,slow:0.5,dup:0.5");
  service::SigtestServer server(world().runtime, fast_config());
  server.start();
  net::SigtestClient client(server.port(), quiet_client());
  // A clean lot first leaves an idle connection; arming closes it, and its
  // session's reader sees EOF and exits.
  const auto clean = client.run_lot(request_for(1, 31337));
  ASSERT_EQ(clean.status, net::ClientStatus::kOk) << clean.message;
  client.set_transport_faults(&transport_faults, 555);
  EXPECT_TRUE(eventually([&] { return server.reader_threads() == 0; }));
  int attempts = 0;
  for (std::uint64_t id = 2; id <= 3; ++id) {
    const auto faulted = client.run_lot(request_for(id, 31337));
    ASSERT_EQ(faulted.status, net::ClientStatus::kOk) << faulted.message;
    expect_identical(reference, faulted.dispositions,
                     "faulted lot " + std::to_string(id));
    attempts += faulted.attempts;
  }
  server.stop();
  if (!core::telemetry::compiled())
    GTEST_SKIP() << "telemetry compiled out: connection counts unchecked";
  EXPECT_EQ(counters.count("net.client.connects"),
            1u + static_cast<std::uint64_t>(attempts));
  EXPECT_EQ(counters.count("net.client.reuses"), 0u);
}

TEST_F(ServiceTest, ServerConfigRoutesStfPortAndMaxClients) {
  {
    const EnvVarGuard port("STF_PORT", "45123");
    const EnvVarGuard clients("STF_MAX_CLIENTS", "3");
    const auto config = service::ServerConfig::from_environment();
    EXPECT_EQ(config.port, 45123);
    EXPECT_EQ(config.admission.max_clients, 3u);
  }
  {
    const EnvVarGuard port("STF_PORT", "70000");  // > 65535
    EXPECT_THROW(service::ServerConfig::from_environment(),
                 std::invalid_argument);
  }
  {
    const EnvVarGuard clients("STF_MAX_CLIENTS", "0");
    EXPECT_THROW(service::ServerConfig::from_environment(),
                 std::invalid_argument);
  }
}

TEST(AdmissionTest, TokenBucketIsDeterministicUnderASyntheticClock) {
  service::TokenBucket bucket(2.0, 2.0);  // 2 lots/s, burst 2
  EXPECT_TRUE(bucket.try_acquire(0));
  EXPECT_TRUE(bucket.try_acquire(0));
  EXPECT_FALSE(bucket.try_acquire(0));        // burst exhausted
  EXPECT_FALSE(bucket.try_acquire(400'000));  // 0.4 s -> 0.8 tokens: still no
  EXPECT_TRUE(bucket.try_acquire(600'000));   // 1.2 tokens accumulated
  EXPECT_FALSE(bucket.try_acquire(600'000));
  // Disabled gate admits forever.
  service::TokenBucket open_bucket(0.0, 8.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(open_bucket.try_acquire(0));
}

// Regression: a clock that steps backwards (NTP correction, VM migration)
// must not inflate the refill. The buggy bucket re-anchored last_us_ on
// the rewound timestamp, so once the clock recovered the whole rewind
// distance was credited as freshly elapsed time -- phantom tokens.
TEST(AdmissionTest, TokenBucketClockRewindMintsNoPhantomTokens) {
  service::TokenBucket bucket(1.0, 1.0);  // 1 lot/s, burst 1
  EXPECT_TRUE(bucket.try_acquire(1'000'000));  // burst token at t = 1 s
  EXPECT_FALSE(bucket.try_acquire(0));         // clock rewinds: no refill
  // Clock recovers. Real elapsed time since the grant is 0.9 s -> 0.9
  // tokens; the bug saw 1.9 s "elapsed" from the rewound anchor and
  // admitted here.
  EXPECT_FALSE(bucket.try_acquire(1'900'000));
  // A genuine full second since the grant does refill.
  EXPECT_TRUE(bucket.try_acquire(2'000'001));
  // Repeated rewinds while draining never accumulate credit.
  service::TokenBucket strict(1.0, 1.0);
  EXPECT_TRUE(strict.try_acquire(5'000'000));
  for (int i = 0; i < 10; ++i)
    EXPECT_FALSE(strict.try_acquire(4'000'000 - 100'000 * i));
  EXPECT_FALSE(strict.try_acquire(5'500'000));
  EXPECT_TRUE(strict.try_acquire(6'000'000));
}

TEST(AdmissionTest, ClientSlotsAreTypedAndReleasable) {
  service::AdmissionPolicy policy;
  policy.max_clients = 2;
  service::AdmissionController admission(policy, 1, 1);
  EXPECT_TRUE(admission.try_admit_client());   // client 1
  EXPECT_TRUE(admission.try_admit_client());   // client 2
  EXPECT_FALSE(admission.try_admit_client());  // cap
  EXPECT_EQ(admission.clients(), 2u);
  admission.release_client();
  EXPECT_TRUE(admission.try_admit_client());  // the slot came back
}

/// admit_lot on its own thread: `started` is set once it returns kNone.
class WaitingLot {
 public:
  explicit WaitingLot(service::AdmissionController& admission)
      : thread_([this, &admission] {
          code_ = admission.admit_lot(0);
          started_.store(true);
        }) {}
  ~WaitingLot() { thread_.join(); }
  WaitingLot(const WaitingLot&) = delete;
  WaitingLot& operator=(const WaitingLot&) = delete;

  bool started() const { return started_.load(); }
  /// Valid once started() is true.
  net::RejectCode code() const { return code_; }

 private:
  std::atomic<bool> started_{false};
  net::RejectCode code_ = net::RejectCode::kShedOverload;
  std::thread thread_;
};

TEST(AdmissionTest, FullComputeSlotsMakeLotsWaitAndAFullWaitLineSheds) {
  const CountersOn counters;
  service::AdmissionController admission(service::AdmissionPolicy{}, 1, 1);
  EXPECT_EQ(admission.admit_lot(0), net::RejectCode::kNone);  // computes
  WaitingLot second(admission);
  ASSERT_TRUE(eventually([&] { return admission.inflight() == 2; }));
  EXPECT_FALSE(second.started());
  // One computing, one waiting: the third finds the wait line full.
  EXPECT_EQ(admission.admit_lot(0), net::RejectCode::kShedOverload);
  EXPECT_FALSE(second.started());
  admission.complete_lot();
  ASSERT_TRUE(eventually([&] { return second.started(); }));
  EXPECT_EQ(second.code(), net::RejectCode::kNone);
  EXPECT_EQ(admission.inflight(), 1u);
  admission.complete_lot();
  EXPECT_EQ(admission.inflight(), 0u);
  if (core::telemetry::compiled()) {
    EXPECT_EQ(CountersOn::count("svc.shed_queue_full"), 1u);
  }
}

TEST(AdmissionTest, WaitingLotsGetSlotsInArrivalOrder) {
  service::AdmissionController admission(service::AdmissionPolicy{}, 1, 2);
  EXPECT_EQ(admission.admit_lot(0), net::RejectCode::kNone);
  WaitingLot second(admission);
  ASSERT_TRUE(eventually([&] { return admission.inflight() == 2; }));
  WaitingLot third(admission);
  ASSERT_TRUE(eventually([&] { return admission.inflight() == 3; }));
  admission.complete_lot();
  ASSERT_TRUE(eventually([&] { return second.started(); }));
  // The slot went to the older waiter; the younger one still waits.
  EXPECT_FALSE(third.started());
  EXPECT_EQ(admission.inflight(), 2u);
  admission.complete_lot();
  ASSERT_TRUE(eventually([&] { return third.started(); }));
  admission.complete_lot();
  EXPECT_EQ(admission.inflight(), 0u);
}

TEST(ScenarioTest, ParsesTheGrammarAndRejectsGarbageTyped) {
  const auto defaults = service::parse_scenario("lna");
  EXPECT_EQ(defaults.spread, 0.2);
  EXPECT_EQ(defaults.pop_seed, 77u);
  const auto spec = service::parse_scenario("lna:pop=123:spread=0.1");
  EXPECT_EQ(spec.spread, 0.1);
  EXPECT_EQ(spec.pop_seed, 123u);
  EXPECT_EQ(spec.canonical(), "lna:spread=0.1:pop=123");
  for (const char* bad :
       {"", "warp", "lna:spread=2", "lna:spread=x", "lna:pop=-1",
        "lna:mystery=1", "lna:spread"})
    EXPECT_THROW(service::parse_scenario(bad), std::invalid_argument) << bad;
}

// Regression: spread parsing used std::stod, which honors the process
// locale -- under a comma-decimal locale (de_DE) every canonical()
// string, always '.'-formatted, failed to re-parse. std::from_chars is
// locale-independent and must round-trip every canonical form bitwise.
TEST(ScenarioTest, SpreadParsingIsLocaleIndependentAndRoundTripsCanonical) {
  for (const double spread :
       {0.0, 1e-3, 0.1, 0.2, 0.25, 1.0 / 3.0, 0.5, 0.875, 0.9999}) {
    service::ScenarioSpec spec;
    spec.spread = spread;
    spec.pop_seed = 9;
    const auto parsed = service::parse_scenario(spec.canonical());
    EXPECT_EQ(parsed.spread, spread) << spec.canonical();  // bitwise
    EXPECT_EQ(parsed.canonical(), spec.canonical());
  }
  // Under a comma-decimal locale the grammar must behave identically:
  // '.' parses, ',' is rejected. Skipped when the locale is not installed.
  if (std::setlocale(LC_ALL, "de_DE.UTF-8") == nullptr &&
      std::setlocale(LC_ALL, "de_DE.utf8") == nullptr)
    GTEST_SKIP() << "no de_DE locale installed";
  EXPECT_EQ(service::parse_scenario("lna:spread=0.25").spread, 0.25);
  EXPECT_THROW(service::parse_scenario("lna:spread=0,25"),
               std::invalid_argument);
  // Fault specs read their numbers through the same locale-free parse.
  const auto faults = rf::FaultInjector::parse("clip:0.12,contact:0.02:0.05");
  ASSERT_EQ(faults.faults().size(), 2u);
  EXPECT_EQ(faults.faults()[0].p1, 0.12);
  EXPECT_EQ(faults.faults()[1].p2, 0.05);
  std::setlocale(LC_ALL, "C");
}

/// The World's exact runtime recipe expressed as registry options, so a
/// registry-resolved runtime for kScenario is fit from the identical
/// inputs and serial_reference() applies to it unchanged.
service::RegistryOptions world_registry_options() {
  auto options = service::RegistryOptions::lna_defaults();
  options.batch = sigtest::BatchOptions{5};
  return options;
}

TEST_F(ServiceTest, RegistryServerMatchesSerialReferenceAndAddsScenarios) {
  const auto reference = serial_reference(9001, nullptr);
  auto registry =
      std::make_shared<service::RuntimeRegistry>(world_registry_options());
  service::SigtestServer server(registry, fast_config());
  server.start();
  net::SigtestClient client(server.port(), quiet_client());

  const auto served = client.run_lot(request_for(1, 9001));
  ASSERT_EQ(served.status, net::ClientStatus::kOk) << served.message;
  expect_identical(reference, served.dispositions, "registry-resolved");
  EXPECT_EQ(registry->scratch_calibrations(), 1u);

  // A scenario the server has never seen gets its own runtime on demand --
  // no restart, no operator, typed failure modes only.
  auto request = request_for(2, 424242);
  request.scenario = "lna:spread=0.1:pop=5";
  const auto other = client.run_lot(request);
  ASSERT_EQ(other.status, net::ClientStatus::kOk) << other.message;
  EXPECT_EQ(other.predicted + other.retried + other.routed, kLotSize);
  EXPECT_EQ(registry->size(), 2u);
  EXPECT_EQ(registry->scratch_calibrations(), 2u);
  server.stop();
}

TEST(RegistryTest, ColdStartsFromTheStoreInsteadOfRefitting) {
  namespace fs = std::filesystem;
  const std::string root =
      (fs::temp_directory_path() /
       ("stf_registry_test_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(root);

  auto options = service::RegistryOptions::lna_defaults();
  options.calibration_devices = 12;  // keep the scratch fit cheap
  const auto spec = service::parse_scenario("lna:spread=0.2:pop=77");

  // First boot: no persisted version exists, so the registry fits from
  // scratch and persists version 1.
  service::RuntimeRegistry first(
      options, std::make_shared<stf::store::CalibrationStore>(root));
  const auto fitted = first.get(spec);
  EXPECT_EQ(first.scratch_calibrations(), 1u);
  EXPECT_EQ(first.cold_starts(), 0u);
  EXPECT_EQ(first.store()->latest_version(first.store_key(spec)), 1u);
  (void)first.get(spec);  // LRU hit: no second fit
  EXPECT_EQ(first.scratch_calibrations(), 1u);

  // "Restart": a fresh registry + store over the same root must load the
  // persisted calibration instead of re-characterizing.
  service::RuntimeRegistry second(
      options, std::make_shared<stf::store::CalibrationStore>(root));
  const auto loaded = second.get(spec);
  EXPECT_EQ(second.cold_starts(), 1u);
  EXPECT_EQ(second.scratch_calibrations(), 0u);

  // And the loaded runtime is the fitted one, bit for bit.
  const auto lot = service::build_population(spec, 8);
  const auto a = fitted->test_lot(lot, stats::Rng(5));
  const auto b = loaded->test_lot(lot, stats::Rng(5));
  EXPECT_EQ(a.model_version, 1u);
  EXPECT_EQ(b.model_version, 1u);
  ASSERT_EQ(a.dispositions.size(), b.dispositions.size());
  for (std::size_t i = 0; i < a.dispositions.size(); ++i) {
    EXPECT_EQ(a.dispositions[i].kind, b.dispositions[i].kind) << i;
    EXPECT_EQ(a.dispositions[i].outlier_score, b.dispositions[i].outlier_score)
        << i;
    ASSERT_EQ(a.dispositions[i].predicted.size(),
              b.dispositions[i].predicted.size());
    for (std::size_t s = 0; s < a.dispositions[i].predicted.size(); ++s)
      EXPECT_EQ(a.dispositions[i].predicted[s], b.dispositions[i].predicted[s])
          << "device " << i << " spec " << s;
  }
  fs::remove_all(root);
}

TEST(RegistryTest, WarmHitDoesNotWaitForAnotherScenariosFit) {
  // A scenario's scratch fit runs outside the registry's lock, so a lot on
  // an already-fitted scenario is served while another scenario fits. Each
  // trial starts a fit of a fresh cold scenario X on thread B, waits until
  // B has counted its miss (it is then inside, or about to enter, its fit),
  // and asks for the warm scenario W: the hit must come back before B's fit
  // is counted. A fit takes milliseconds and a hit microseconds, so one
  // pass in five trials is asked; a registry that fits under its lock
  // fails every trial, because the hit cannot return before the fit ends.
  namespace telemetry = core::telemetry;
  if (!telemetry::compiled())
    GTEST_SKIP() << "built with SIGTEST_TELEMETRY=OFF";
  telemetry::set_enabled(true);
  auto options = service::RegistryOptions::lna_defaults();
  options.calibration_devices = 12;  // keep the scratch fits cheap
  service::RuntimeRegistry registry(options);
  const auto warm = service::parse_scenario("lna:spread=0.2:pop=77");
  (void)registry.get(warm);

  int trials = 0;
  int passes = 0;
  for (; trials < 5 && passes == 0; ++trials) {
    const auto cold = service::parse_scenario(
        "lna:spread=0.2:pop=" + std::to_string(1000 + trials));
    const std::uint64_t fits_before = registry.scratch_calibrations();
    const std::uint64_t misses_before =
        telemetry::counter_value("registry.misses");
    std::thread fitter([&] { (void)registry.get(cold); });
    while (telemetry::counter_value("registry.misses") == misses_before)
      std::this_thread::yield();
    (void)registry.get(warm);
    const bool fit_pending = registry.scratch_calibrations() == fits_before;
    fitter.join();
    if (fit_pending) ++passes;
  }
  telemetry::set_enabled(false);
  EXPECT_GE(passes, 1) << "every warm hit waited for another scenario's fit";
  // One fit per scenario: W once, then each trial's X.
  EXPECT_EQ(registry.scratch_calibrations(), 1u + trials);
}

}  // namespace
