// Signature-test-as-a-service, end to end in one process: start a
// SigtestServer on an ephemeral loopback port, point N concurrent clients
// at it -- half of them with every transport fault class armed (truncated
// and oversized frames, garbage preambles, slowloris writes, duplicated
// requests, mid-lot disconnects) -- and diff every streamed disposition
// against the in-process serial guarded reference, bit for bit.
//
// Exits 1 on any divergence, shed, or transport failure, so the same
// binary is the CI `service-smoke` gate for the determinism contract:
// (seed, lot, scenario) -> identical dispositions regardless of client
// count, interleaving, faults or retries (DESIGN.md section 13).
//
//     ./build/examples/signature_service [--clients N] [--no-faults]
//                                        [--trace-out FILE] [--stats]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuit/lna900.hpp"
#include "core/env.hpp"
#include "core/telemetry.hpp"
#include "dsp/pwl.hpp"
#include "net/client.hpp"
#include "net/transport_faults.hpp"
#include "rf/population.hpp"
#include "service/server.hpp"
#include "sigtest/cell.hpp"
#include "stats/rng.hpp"

namespace {

// Each client is a thread of this process.
constexpr std::uint64_t kMaxClients = 256;

int usage() {
  std::fprintf(stderr,
               "usage: signature_service [--clients N] [--no-faults]"
               " [--trace-out FILE] [--stats]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stf;

  std::size_t n_clients = 8;
  std::string clients_text;
  bool with_faults = true;
  std::string trace_path;
  bool stats = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--no-faults") with_faults = false;
    else if (a == "--stats") stats = true;
    else if (a.rfind("--clients=", 0) == 0)
      clients_text = a.substr(std::strlen("--clients="));
    else if (a == "--clients" && i + 1 < argc)
      clients_text = argv[++i];
    else if (a.rfind("--trace-out=", 0) == 0)
      trace_path = a.substr(std::strlen("--trace-out="));
    else if (a == "--trace-out" && i + 1 < argc)
      trace_path = argv[++i];
    else
      return usage();
  }
  if (!clients_text.empty()) {
    try {
      n_clients =
          core::env::parse_u64("--clients", clients_text, 1, kMaxClients);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "signature_service: %s\n", e.what());
      return usage();
    }
  }
  if (stats || !trace_path.empty()) core::telemetry::set_enabled(true);

  // --- the shared tester: one calibrated TestCell behind the server.
  const auto config = sigtest::SignatureTestConfig::simulation_study();
  const auto stimulus = dsp::PwlWaveform::uniform(
      config.capture_s, {0.0, 0.2, -0.2, 0.1, -0.05, 0.2, 0.0, -0.2, 0.1});
  sigtest::GuardPolicy policy;
  policy.outlier_threshold = 2.5;
  auto runtime = std::make_shared<sigtest::TestCell>(
      config, stimulus, circuit::LnaSpecs::names(), policy,
      sigtest::BatchOptions{8});
  {
    const auto cal = rf::make_lna_population(40, 0.2, 21);
    stats::Rng cal_rng(7);
    runtime->calibrate(cal, cal_rng);
  }

  // --- the lot every client will request, and its serial reference.
  constexpr std::uint32_t kLotSize = 24;
  constexpr std::uint64_t kSeed = 9001;
  const char* kScenario = "lna:spread=0.2:pop=77";
  const auto lot = rf::make_lna_population(kLotSize, 0.2, 77);
  const std::vector<sigtest::TestDisposition> reference =
      sigtest::serial_reference(*runtime, lot, stats::Rng(kSeed));

  // --- serve it.
  service::ServerConfig server_config;
  server_config.poll_interval_ms = 5;
  // A retrying client's new connection overlaps its dying one until the
  // server's reader drains the EOF, so size the session cap for 2x plus
  // slack, and let every session's lot wait for a compute slot: this
  // smoke must not shed.
  server_config.admission.max_clients = 2 * n_clients + 8;
  server_config.work_queue_capacity = 2 * n_clients;
  service::SigtestServer server(runtime, server_config);
  server.start();
  std::printf("signature_service: serving on 127.0.0.1:%u (%zu clients%s)\n",
              server.port(), n_clients,
              with_faults ? ", transport faults armed on odd clients" : "");

  const auto faults = net::TransportFaultInjector::parse(
      "trunc:0.5,oversize:0.5,garbage:0.5,disconnect:0.5,slow:0.5,dup:0.5");
  std::vector<net::ClientLotResult> results(n_clients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < n_clients; ++c)
    clients.emplace_back([&, c] {
      net::ClientOptions options;
      options.backoff_base_ms = 0;  // retry immediately; this is a smoke
      net::SigtestClient client(server.port(), options);
      if (with_faults && c % 2 == 1)
        client.set_transport_faults(&faults, 1000 + c);
      net::LotRequest request;
      request.request_id = 1 + c;
      request.seed = kSeed;
      request.lot_size = kLotSize;
      request.batch = 8;
      request.scenario = kScenario;
      results[c] = client.run_lot(request);
    });
  for (std::thread& t : clients) t.join();
  server.stop();

  // --- the verdict: every client, every device, every field, bitwise.
  std::size_t mismatches = 0;
  std::size_t failures = 0;
  int total_attempts = 0;
  for (std::size_t c = 0; c < n_clients; ++c) {
    const auto& r = results[c];
    total_attempts += r.attempts;
    if (r.status != net::ClientStatus::kOk) {
      std::fprintf(stderr, "client %zu: no lot (%s)\n", c,
                   r.message.c_str());
      ++failures;
      continue;
    }
    if (r.dispositions.size() != reference.size()) {
      ++mismatches;
      continue;
    }
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (reference[i] != r.dispositions[i]) {
        std::fprintf(stderr, "client %zu device %zu: diverged\n", c, i);
        ++mismatches;
      }
    }
  }
  std::printf(
      "%zu clients x %u devices: %d attempts total, %zu lots computed, "
      "%zu mismatches vs serial reference\n",
      n_clients, kLotSize, total_attempts, server.lots_completed(),
      mismatches);

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "signature_service: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
    out << core::telemetry::chrome_trace();
    std::fprintf(stderr, "signature_service: trace written to %s\n",
                 trace_path.c_str());
  }
  if (stats) std::fputs(core::telemetry::summary().c_str(), stderr);

  if (mismatches != 0 || failures != 0) {
    std::fprintf(stderr,
                 "signature_service: FAILED (%zu mismatches, %zu client "
                 "failures)\n",
                 mismatches, failures);
    return 1;
  }
  std::puts("signature_service: all lots bit-identical to the serial "
            "guarded reference");
  return 0;
}
