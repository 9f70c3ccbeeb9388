// Unit tests for the net layer (net/frame.hpp, net/socket.hpp,
// net/transport_faults.hpp, net/client.hpp): frame round trips with
// bit-exact doubles, decoder rejection of malformed payloads, incremental
// FrameReader reassembly with ceiling-before-allocation, loopback socket
// plumbing, deterministic transport fault planning, and the client's capped
// exponential backoff through the injectable sleep hook, and which
// exchanges let the client keep its connection.
#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.hpp"
#include "net/socket.hpp"
#include "net/transport_faults.hpp"
#include "stats/rng.hpp"

namespace {

using namespace stf;
using sigtest::CaptureFlaw;
using sigtest::DispositionKind;
using sigtest::TestDisposition;

net::LotRequest sample_request() {
  net::LotRequest request;
  request.request_id = 42;
  request.seed = 9001;
  request.lot_size = 24;
  request.batch = 5;
  request.scenario = "lna:spread=0.2:pop=77";
  request.fault_spec = "clip:0.12,contact:0.05:0.05";
  return request;
}

TEST(Frame, RequestRoundTripsExactly) {
  const net::LotRequest request = sample_request();
  const auto bytes = net::encode_request(request);
  // Header: length excludes the 5 header bytes; type tags a request.
  ASSERT_GE(bytes.size(), 5u);
  EXPECT_EQ(bytes[4], static_cast<std::uint8_t>(net::FrameType::kRequest));
  const net::LotRequest decoded = net::decode_request(
      std::span<const std::uint8_t>(bytes).subspan(5));
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.seed, request.seed);
  EXPECT_EQ(decoded.lot_size, request.lot_size);
  EXPECT_EQ(decoded.batch, request.batch);
  EXPECT_EQ(decoded.scenario, request.scenario);
  EXPECT_EQ(decoded.fault_spec, request.fault_spec);
}

TEST(Frame, DispositionsRoundTripBitExactly) {
  net::DispositionChunk chunk;
  chunk.request_id = 7;
  chunk.first_index = 64;
  TestDisposition d;
  d.kind = DispositionKind::kPredictedAfterRetry;
  d.last_flaw = CaptureFlaw::kOutlier;
  d.attempts = 2;
  d.captures = 5;
  d.outlier_score = 3.25e-17;
  // Values chosen to catch any text/rounding path: denormal, -0.0, NaN.
  d.predicted = {1.0 / 3.0, -0.0, 5e-324,
                 std::numeric_limits<double>::quiet_NaN()};
  chunk.dispositions.push_back(d);
  const auto bytes = net::encode_dispositions(chunk);
  const net::DispositionChunk decoded = net::decode_dispositions(
      std::span<const std::uint8_t>(bytes).subspan(5));
  ASSERT_EQ(decoded.dispositions.size(), 1u);
  const TestDisposition& out = decoded.dispositions[0];
  EXPECT_EQ(out.kind, d.kind);
  EXPECT_EQ(out.last_flaw, d.last_flaw);
  EXPECT_EQ(out.attempts, d.attempts);
  EXPECT_EQ(out.captures, d.captures);
  // Bit equality, not ==: NaN != NaN but its bits must survive.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(out.outlier_score),
            std::bit_cast<std::uint64_t>(d.outlier_score));
  ASSERT_EQ(out.predicted.size(), d.predicted.size());
  for (std::size_t i = 0; i < d.predicted.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.predicted[i]),
              std::bit_cast<std::uint64_t>(d.predicted[i]))
        << "spec " << i;
}

TEST(Frame, LotDoneAndRejectRoundTrip) {
  net::LotDone done{11, 24, 20, 3, 1};
  const auto done_bytes = net::encode_lot_done(done);
  const net::LotDone done2 = net::decode_lot_done(
      std::span<const std::uint8_t>(done_bytes).subspan(5));
  EXPECT_EQ(done2.request_id, 11u);
  EXPECT_EQ(done2.lot_size, 24u);
  EXPECT_EQ(done2.predicted, 20u);
  EXPECT_EQ(done2.retried, 3u);
  EXPECT_EQ(done2.routed, 1u);

  net::Reject reject{5, net::RejectCode::kShedOverload, "work queue full"};
  const auto reject_bytes = net::encode_reject(reject);
  const net::Reject reject2 = net::decode_reject(
      std::span<const std::uint8_t>(reject_bytes).subspan(5));
  EXPECT_EQ(reject2.request_id, 5u);
  EXPECT_EQ(reject2.code, net::RejectCode::kShedOverload);
  EXPECT_EQ(reject2.message, "work queue full");
}

TEST(Frame, DecodersRejectMalformedPayloads) {
  // Truncated request payload.
  const auto request = net::encode_request(sample_request());
  EXPECT_THROW(net::decode_request(
                   std::span<const std::uint8_t>(request).subspan(5, 10)),
               net::ProtocolError);
  // Trailing bytes after a complete request.
  std::vector<std::uint8_t> padded(request.begin() + 5, request.end());
  padded.push_back(0);
  EXPECT_THROW(net::decode_request(padded), net::ProtocolError);
  // lot_size of zero and over-limit both refuse.
  net::LotRequest zero = sample_request();
  auto bytes = net::encode_request(zero);
  // lot_size is the u32 at payload offset 16 (after request_id + seed).
  for (int b = 0; b < 4; ++b) bytes[5 + 16 + b] = 0;
  EXPECT_THROW(
      net::decode_request(std::span<const std::uint8_t>(bytes).subspan(5)),
      net::ProtocolError);
  // Unknown reject code.
  auto reject =
      net::encode_reject({1, net::RejectCode::kBadRequest, "x"});
  reject[5 + 8] = 99;
  EXPECT_THROW(
      net::decode_reject(std::span<const std::uint8_t>(reject).subspan(5)),
      net::ProtocolError);
  // LotDone tallies that do not sum.
  auto done = net::encode_lot_done({1, 24, 20, 3, 1});
  done[5 + 12] = 7;  // predicted: 20 -> 7
  EXPECT_THROW(
      net::decode_lot_done(std::span<const std::uint8_t>(done).subspan(5)),
      net::ProtocolError);
}

TEST(FrameReader, ReassemblesByteAtATime) {
  const auto frame_bytes = net::encode_request(sample_request());
  net::FrameReader reader;
  net::Frame frame;
  for (std::size_t i = 0; i + 1 < frame_bytes.size(); ++i) {
    reader.feed(std::span<const std::uint8_t>(&frame_bytes[i], 1));
    EXPECT_FALSE(reader.next(frame)) << "byte " << i;
  }
  reader.feed(std::span<const std::uint8_t>(&frame_bytes.back(), 1));
  ASSERT_TRUE(reader.next(frame));
  EXPECT_EQ(frame.type, net::FrameType::kRequest);
  EXPECT_EQ(reader.buffered(), 0u);
  const net::LotRequest decoded = net::decode_request(frame.payload);
  EXPECT_EQ(decoded.seed, 9001u);
}

TEST(FrameReader, RejectsOversizedLengthBeforeBufferingThePayload) {
  net::FrameReader reader;
  // Header declaring kMaxPayloadBytes + 1: must throw on feed, with only
  // the 5 header bytes ever buffered -- no allocation for the payload.
  const std::uint32_t declared =
      static_cast<std::uint32_t>(net::kMaxPayloadBytes) + 1;
  std::vector<std::uint8_t> header = {
      static_cast<std::uint8_t>(declared),
      static_cast<std::uint8_t>(declared >> 8),
      static_cast<std::uint8_t>(declared >> 16),
      static_cast<std::uint8_t>(declared >> 24),
      static_cast<std::uint8_t>(net::FrameType::kRequest)};
  EXPECT_THROW(reader.feed(header), net::ProtocolError);
  EXPECT_LE(reader.buffered(), 5u);
}

TEST(FrameReader, RejectsUnknownFrameType) {
  net::FrameReader reader;
  const std::vector<std::uint8_t> header = {0, 0, 0, 0, 99};
  EXPECT_THROW(reader.feed(header), net::ProtocolError);
}

TEST(FrameReader, SplitsBackToBackFrames) {
  const auto a = net::encode_lot_done({1, 4, 4, 0, 0});
  const auto b = net::encode_reject({2, net::RejectCode::kShuttingDown, ""});
  std::vector<std::uint8_t> stream(a);
  stream.insert(stream.end(), b.begin(), b.end());
  net::FrameReader reader;
  reader.feed(stream);
  net::Frame frame;
  ASSERT_TRUE(reader.next(frame));
  EXPECT_EQ(frame.type, net::FrameType::kLotDone);
  ASSERT_TRUE(reader.next(frame));
  EXPECT_EQ(frame.type, net::FrameType::kReject);
  EXPECT_FALSE(reader.next(frame));
}

TEST(FrameReader, MaxSizeFrameWithPipelinedTrailingBytesParsesCleanly) {
  // Regression: a peer streaming a max-size-declared frame whose final
  // recv chunk also carries the first bytes of the NEXT frame pushes the
  // buffer past header + max_payload momentarily. That must parse as two
  // frames -- the old bound raised a process-fatal contract violation that
  // escaped the reader thread and terminated the server.
  std::vector<std::uint8_t> big(5 + net::kMaxPayloadBytes, 0);
  const std::uint32_t declared =
      static_cast<std::uint32_t>(net::kMaxPayloadBytes);
  for (int b = 0; b < 4; ++b)
    big[static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(declared >> (8 * b));
  big[4] = static_cast<std::uint8_t>(net::FrameType::kDispositions);
  std::vector<std::uint8_t> stream(big);
  const auto trailer = net::encode_lot_done({9, 4, 4, 0, 0});
  stream.insert(stream.end(), trailer.begin(), trailer.end());

  net::FrameReader reader;
  net::Frame frame;
  std::size_t frames = 0;
  std::size_t off = 0;
  while (off < stream.size()) {  // recv-sized chunks, drained after each
    const std::size_t n = std::min<std::size_t>(4096, stream.size() - off);
    reader.feed(std::span<const std::uint8_t>(stream.data() + off, n));
    off += n;
    while (reader.next(frame)) ++frames;
  }
  EXPECT_EQ(frames, 2u);
  EXPECT_EQ(frame.type, net::FrameType::kLotDone);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReader, FeedingPastTheCeilingWithoutDrainingIsATypedDrop) {
  // The memory ceiling still exists, but as a ProtocolError (connection
  // drop), never a contract failure: feeding again while a complete
  // max-size frame sits undrained breaks the drain-after-feed discipline.
  std::vector<std::uint8_t> big(5 + net::kMaxPayloadBytes + 1, 0);
  const std::uint32_t declared =
      static_cast<std::uint32_t>(net::kMaxPayloadBytes);
  for (int b = 0; b < 4; ++b)
    big[static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(declared >> (8 * b));
  big[4] = static_cast<std::uint8_t>(net::FrameType::kDispositions);
  net::FrameReader reader;
  reader.feed(big);  // one oversized feed is legal (pipelined trailing byte)
  const std::uint8_t more = 0;
  EXPECT_THROW(reader.feed(std::span<const std::uint8_t>(&more, 1)),
               net::ProtocolError);
}

TEST(Socket, LoopbackSendAllRecvSomeAndEphemeralPorts) {
  net::Listener listener("127.0.0.1", 0);
  ASSERT_NE(listener.port(), 0);  // kernel resolved an ephemeral port
  const auto payload = net::encode_lot_done({3, 8, 8, 0, 0});
  std::thread peer([&] {
    net::Socket client = net::connect_to("127.0.0.1", listener.port(), 2000);
    client.send_all(payload);
  });
  ASSERT_TRUE(listener.wait_acceptable(2000));
  net::Socket accepted = listener.accept_connection();
  ASSERT_TRUE(accepted.valid());
  net::FrameReader reader;
  std::uint8_t buffer[256];
  net::Frame frame;
  while (!reader.next(frame)) {
    ASSERT_TRUE(accepted.wait_readable(2000));
    const std::size_t n = accepted.recv_some(buffer);
    ASSERT_GT(n, 0u);
    reader.feed(std::span<const std::uint8_t>(buffer, n));
  }
  EXPECT_EQ(frame.type, net::FrameType::kLotDone);
  peer.join();
}

TEST(Socket, ConnectToClosedPortFailsTyped) {
  // Bind then immediately close to learn a port nobody listens on.
  std::uint16_t dead_port = 0;
  {
    net::Listener listener("127.0.0.1", 0);
    dead_port = listener.port();
  }
  EXPECT_THROW(net::connect_to("127.0.0.1", dead_port, 500),
               net::SocketError);
  EXPECT_THROW(net::connect_to("not-an-address", 1, 500), net::SocketError);
}

TEST(TransportFaults, ParseGrammarAndDescribe) {
  const auto injector =
      net::TransportFaultInjector::parse("trunc:0.5,disconnect,dup:0.25");
  ASSERT_EQ(injector.faults().size(), 3u);
  EXPECT_EQ(injector.faults()[0].kind,
            net::TransportFaultKind::kTruncateFrame);
  EXPECT_EQ(injector.faults()[0].probability, 0.5);
  EXPECT_EQ(injector.faults()[1].probability, 1.0);
  EXPECT_EQ(injector.describe(),
            "trunc(p=0.5) + disconnect(p=1) + dup(p=0.25)");
  for (const char* bad : {"warp", "trunc:1.5", "trunc:x", ",", "trunc:"})
    EXPECT_THROW(net::TransportFaultInjector::parse(bad),
                 std::invalid_argument)
        << bad;
}

TEST(TransportFaults, PlansAreSeedDeterministicAndConvergeAfterTheCap) {
  const auto injector = net::TransportFaultInjector::parse(
      "trunc:0.5,garbage:0.5,disconnect:0.5,slow:0.5,dup:0.5,oversize:0.5");
  auto plan_of = [&](std::uint64_t seed, int attempt) {
    stats::Rng rng = stats::Rng(seed).derive(1).derive(
        static_cast<std::uint64_t>(attempt));
    return injector.plan_attempt(attempt, rng);
  };
  // Same seed, same plan -- field by field.
  for (int attempt = 1; attempt <= 2; ++attempt) {
    const auto a = plan_of(33, attempt);
    const auto b = plan_of(33, attempt);
    EXPECT_EQ(a.truncate, b.truncate);
    EXPECT_EQ(a.truncate_keep, b.truncate_keep);
    EXPECT_EQ(a.oversize_length, b.oversize_length);
    EXPECT_EQ(a.garbage_bytes, b.garbage_bytes);
    EXPECT_EQ(a.disconnect_mid_lot, b.disconnect_mid_lot);
    EXPECT_EQ(a.slowloris, b.slowloris);
    EXPECT_EQ(a.duplicate_request, b.duplicate_request);
  }
  // Attempts past the cap are clean at ANY seed: that is what guarantees a
  // bounded retry loop converges under every scenario.
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    stats::Rng rng(seed);
    EXPECT_TRUE(injector.plan_attempt(3, rng).clean()) << seed;
  }
}

TEST(Client, BackoffIsCappedExponentialThroughTheInjectableSleep) {
  // A port with no listener: every attempt fails at connect, so the sleep
  // sequence is exactly the backoff schedule.
  std::uint16_t dead_port = 0;
  {
    net::Listener listener("127.0.0.1", 0);
    dead_port = listener.port();
  }
  std::vector<int> sleeps;
  net::ClientOptions options;
  options.max_attempts = 6;
  options.backoff_base_ms = 2;
  options.backoff_cap_ms = 10;
  options.connect_timeout_ms = 200;
  options.sleep_ms = [&sleeps](int ms) { sleeps.push_back(ms); };
  net::SigtestClient client(dead_port, options);
  net::LotRequest request = sample_request();
  request.fault_spec.clear();
  const net::ClientLotResult result = client.run_lot(request);
  EXPECT_EQ(result.status, net::ClientStatus::kTransportFailure);
  EXPECT_EQ(result.attempts, 6);
  // 2, 4, 8, then capped at 10 (one sleep per retry, none after the last).
  EXPECT_EQ(sleeps, (std::vector<int>{2, 4, 8, 10, 10}));
  EXPECT_FALSE(result.message.empty());
}

TEST(Client, LargeBackoffBaseNeverOverflowsTheDoubling) {
  // Regression: base << shift was computed in int, so base >= 2048 at
  // shift 20 (attempt 21) overflowed -- UB, and in practice a negative
  // backoff that silently skipped the sleep. The doubling must saturate at
  // the cap instead, for every attempt.
  std::uint16_t dead_port = 0;
  {
    net::Listener listener("127.0.0.1", 0);
    dead_port = listener.port();
  }
  std::vector<int> sleeps;
  net::ClientOptions options;
  options.max_attempts = 22;  // reaches the shift clamp of 20
  options.backoff_base_ms = 2048;
  options.backoff_cap_ms = 5000;
  options.connect_timeout_ms = 200;
  options.sleep_ms = [&sleeps](int ms) { sleeps.push_back(ms); };
  net::SigtestClient client(dead_port, options);
  net::LotRequest request = sample_request();
  request.fault_spec.clear();
  const net::ClientLotResult result = client.run_lot(request);
  EXPECT_EQ(result.status, net::ClientStatus::kTransportFailure);
  ASSERT_EQ(sleeps.size(), 21u);  // one per retry, including attempt 21
  EXPECT_EQ(sleeps[0], 2048);
  EXPECT_EQ(sleeps[1], 4096);
  for (std::size_t i = 2; i < sleeps.size(); ++i)
    EXPECT_EQ(sleeps[i], 5000) << "retry " << i;
}

/// How ScriptedServer answers one request.
enum class Reply {
  kLotDone,                ///< Dispositions and LotDone.
  kLotDoneThenStrayBytes,  ///< The same, then one byte no frame owns.
  kRejectRequest,          ///< A Reject carrying the request's id.
  kRejectSession,          ///< A session-level Reject (request_id 0).
};

/// A one-thread server on loopback that answers requests in turn with a
/// script of replies. It serves each connection until EOF or reset before
/// it accepts the next, never closes a connection itself, and records on
/// which connection (1-based, in accept order) each request arrived.
class ScriptedServer {
 public:
  explicit ScriptedServer(std::vector<Reply> script)
      : script_(std::move(script)), thread_([this] {
          try {
            serve();
          } catch (const std::exception& e) {
            ADD_FAILURE() << "scripted server: " << e.what();
          }
          arrivals_.resize(script_.size(), 0);
        }) {}
  ~ScriptedServer() {
    if (thread_.joinable()) thread_.join();
  }
  ScriptedServer(const ScriptedServer&) = delete;
  ScriptedServer& operator=(const ScriptedServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Wait for the script to finish; element k is request k's connection,
  /// 0 when it never arrived.
  std::vector<int> arrivals() {
    thread_.join();
    return arrivals_;
  }

 private:
  void serve() {
    net::Socket connection;
    int connection_no = 0;
    net::FrameReader reader;
    std::uint8_t buffer[4096];
    for (const Reply reply : script_) {
      net::Frame frame;
      bool got = false;
      while (!got) {
        if (!connection.valid()) {
          if (!listener_.wait_acceptable(5000)) break;
          connection = listener_.accept_connection();
          ++connection_no;
          reader = net::FrameReader();
          continue;
        }
        if (!connection.wait_readable(5000)) break;
        std::size_t n = 0;
        try {
          n = connection.recv_some(buffer);
        } catch (const net::SocketError&) {
        }  // a reset ends the connection like EOF
        if (n == 0) {
          connection.close();
          continue;
        }
        reader.feed(std::span<const std::uint8_t>(buffer, n));
        got = reader.next(frame);
      }
      if (!got) break;
      arrivals_.push_back(connection_no);
      const net::LotRequest request = net::decode_request(frame.payload);
      std::vector<std::uint8_t> bytes;
      if (reply == Reply::kRejectRequest || reply == Reply::kRejectSession) {
        const bool session = reply == Reply::kRejectSession;
        bytes = net::encode_reject(
            {session ? 0 : request.request_id,
             session ? net::RejectCode::kTooManyClients
                     : net::RejectCode::kShedOverload,
             "scripted"});
      } else {
        net::DispositionChunk chunk;
        chunk.request_id = request.request_id;
        chunk.dispositions.resize(request.lot_size);  // all routed
        bytes = net::encode_dispositions(chunk);
        const auto done = net::encode_lot_done(
            {request.request_id, request.lot_size, 0, 0, request.lot_size});
        bytes.insert(bytes.end(), done.begin(), done.end());
        if (reply == Reply::kLotDoneThenStrayBytes) bytes.push_back(0xA5);
      }
      connection.send_all(bytes);
    }
  }

  net::Listener listener_{"127.0.0.1", 0};
  std::vector<Reply> script_;
  std::vector<int> arrivals_;
  std::thread thread_;  // last: serve() uses every member above
};

std::vector<net::ClientLotResult> run_lots(std::uint16_t port, int n) {
  net::ClientOptions options;
  options.max_attempts = 1;
  const net::SigtestClient client(port, options);
  std::vector<net::ClientLotResult> results;
  for (int i = 0; i < n; ++i) {
    net::LotRequest request = sample_request();
    request.request_id = 1 + static_cast<std::uint64_t>(i);
    request.lot_size = 3;
    results.push_back(client.run_lot(request));
  }
  return results;
}

TEST(Client, KeepsItsConnectionAfterLotDoneAndARequestReject) {
  ScriptedServer server(
      {Reply::kLotDone, Reply::kRejectRequest, Reply::kLotDone});
  const auto results = run_lots(server.port(), 3);
  EXPECT_EQ(server.arrivals(), (std::vector<int>{1, 1, 1}));
  ASSERT_EQ(results[0].status, net::ClientStatus::kOk) << results[0].message;
  EXPECT_EQ(results[0].dispositions.size(), 3u);
  ASSERT_EQ(results[1].status, net::ClientStatus::kRejected);
  EXPECT_EQ(results[1].reject_code, net::RejectCode::kShedOverload);
  EXPECT_EQ(results[2].status, net::ClientStatus::kOk) << results[2].message;
}

TEST(Client, ClosesItsConnectionAfterStrayBytesOrASessionReject) {
  // Stray bytes after LotDone: whether they arrive with it or after it,
  // the connection is not reused. A session-level Reject means the server
  // closes its side, so the client does not wait for that.
  ScriptedServer server(
      {Reply::kLotDoneThenStrayBytes, Reply::kRejectSession, Reply::kLotDone});
  const auto results = run_lots(server.port(), 3);
  EXPECT_EQ(server.arrivals(), (std::vector<int>{1, 2, 3}));
  ASSERT_EQ(results[0].status, net::ClientStatus::kOk) << results[0].message;
  ASSERT_EQ(results[1].status, net::ClientStatus::kRejected);
  EXPECT_EQ(results[1].reject_code, net::RejectCode::kTooManyClients);
  EXPECT_EQ(results[2].status, net::ClientStatus::kOk) << results[2].message;
  for (const auto& r : results) EXPECT_EQ(r.attempts, 1);
}

}  // namespace
