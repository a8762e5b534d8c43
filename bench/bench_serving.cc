// Closed-loop serving benchmark: an in-process natixd server (the real
// socket path — HTTP parse, admission, execution, serialization) under
// N concurrent keep-alive clients, over a mixed scenario set spanning
// the three generated corpora (DBLP bibliography, auction site, xdoc):
// point lookups, scans, aggregations and positional pages. Each load
// level runs the same request batch and reports throughput plus p50 /
// p99 client-observed latency; the registry snapshot at the end carries
// the server-side histograms for cross-checking.
//
// Writes BENCH_serving.json. NATIX_BENCH_SMALL shrinks documents and
// batch size for CI smoke runs. On a single-core container rising
// client counts mostly measure queueing, not parallelism — the JSON
// records hardware_threads so readers can tell. Each row also carries
// the phase's buffer-shard lock contention (obs::LockLedger::wait: the
// contended acquisitions and the ms they spent blocked; zero under
// NATIX_OBS=OFF).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "base/clock.h"
#include "base/logging.h"
#include "gen/auction_generator.h"
#include "gen/dblp_generator.h"
#include "gen/xdoc_generator.h"
#include "obs/lock_ledger.h"
#include "obs/metrics.h"
#include "server/http.h"
#include "server/server.h"

namespace {

/// One request shape of the mix. Targets are pre-encoded once.
struct Scenario {
  const char* name;
  std::string target;
};

std::vector<Scenario> BuildScenarios() {
  auto target = [](const char* doc, const char* xpath, const char* extra) {
    return "/query?doc=" + std::string(doc) +
           "&q=" + natix::server::UrlEncode(xpath) +
           "&deadline_ms=30000" + extra;
  };
  return {
      // Aggregations (scalar plans; count() drains inside the plan).
      {"dblp_agg", target("dblp", "count(//inproceedings)", "")},
      {"auction_agg", target("auction", "count(//item)", "")},
      // Scans serialized as counts (server-side drain, small response).
      {"dblp_scan", target("dblp", "//inproceedings/title", "&mode=count")},
      {"xdoc_scan", target("xdoc", "//*/@id", "&mode=count")},
      // Positional pages: the Limit operator closes the pipeline early.
      {"dblp_page",
       target("dblp", "//inproceedings/title", "&limit=10&mode=values")},
      {"auction_page",
       target("auction", "//person/name", "&limit=10&mode=values")},
      // Point-ish lookups (first match, early exit via limit=1).
      {"xdoc_point", target("xdoc", "/xdoc/n/n/@id", "&limit=1")},
      {"dblp_point",
       target("dblp", "//inproceedings[1]/author", "&mode=values")},
  };
}

struct PhaseResult {
  size_t clients = 0;
  size_t requests = 0;
  size_t failures = 0;
  double seconds = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t shard_contended = 0;
  double shard_wait_ms = 0;
};

double PercentileMs(std::vector<uint64_t>& latencies_ns, double q) {
  if (latencies_ns.empty()) return 0;
  std::sort(latencies_ns.begin(), latencies_ns.end());
  size_t rank = static_cast<size_t>(q * (latencies_ns.size() - 1));
  return latencies_ns[rank] / 1e6;
}

PhaseResult RunPhase(int port, const std::vector<Scenario>& scenarios,
                     size_t clients, size_t requests) {
  std::atomic<size_t> cursor{0};
  std::atomic<size_t> failures{0};
  std::vector<std::vector<uint64_t>> latencies(clients);
  const natix::obs::LockWait shard_before =
      natix::obs::LockLedger::Global().wait(
          natix::obs::LockClass::kBufferShard);

  const uint64_t begin_ns = natix::MonotonicNanos();
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      natix::server::HttpClient client(port);
      std::vector<uint64_t>& mine = latencies[c];
      for (size_t i = cursor.fetch_add(1); i < requests;
           i = cursor.fetch_add(1)) {
        const Scenario& scenario = scenarios[i % scenarios.size()];
        const uint64_t start = natix::MonotonicNanos();
        auto response = client.Get(scenario.target);
        mine.push_back(natix::MonotonicNanos() - start);
        if (!response.ok() || response->status != 200) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double seconds = (natix::MonotonicNanos() - begin_ns) / 1e9;

  std::vector<uint64_t> merged;
  merged.reserve(requests);
  for (const std::vector<uint64_t>& mine : latencies) {
    merged.insert(merged.end(), mine.begin(), mine.end());
  }

  PhaseResult result;
  result.clients = clients;
  result.requests = merged.size();
  result.failures = failures.load();
  result.seconds = seconds;
  result.qps = merged.empty() ? 0 : merged.size() / seconds;
  result.p50_ms = PercentileMs(merged, 0.50);
  result.p99_ms = PercentileMs(merged, 0.99);
  const natix::obs::LockWait shard_after =
      natix::obs::LockLedger::Global().wait(
          natix::obs::LockClass::kBufferShard);
  result.shard_contended = shard_after.contended - shard_before.contended;
  result.shard_wait_ms = (shard_after.wait_ns - shard_before.wait_ns) / 1e6;
  return result;
}

}  // namespace

int main() {
  const bool small = std::getenv("NATIX_BENCH_SMALL") != nullptr;

  natix::gen::DblpOptions dblp;
  dblp.publications = small ? 150 : 600;
  natix::gen::AuctionOptions auction;
  auction.people = small ? 40 : 150;
  natix::gen::XDocOptions xdoc;
  xdoc.max_elements = small ? 400 : 2000;
  xdoc.fanout = 6;
  xdoc.depth = 5;
  const size_t requests_per_phase = small ? 96 : 400;

  natix::Database::Options db_options;
  db_options.buffer_pages = 1024;
  auto db = natix::Database::CreateTemp(db_options);
  NATIX_CHECK(db.ok());
  NATIX_CHECK(
      (*db)->LoadDocument("dblp", natix::gen::GenerateDblp(dblp)).ok());
  NATIX_CHECK(
      (*db)
          ->LoadDocument("auction", natix::gen::GenerateAuctionSite(auction))
          .ok());
  NATIX_CHECK(
      (*db)->LoadDocument("xdoc", natix::gen::GenerateXDoc(xdoc)).ok());

  natix::server::ServerOptions server_options;
  server_options.max_concurrency = 4;
  server_options.queue_capacity = 64;
  natix::server::Server server(db->get(), server_options);
  NATIX_CHECK(server.Start().ok());

  const std::vector<Scenario> scenarios = BuildScenarios();

  // Warm the plan cache and buffer pool once so the measured phases see
  // steady-state hits (the registry still records the cold misses).
  {
    natix::server::HttpClient client(server.port());
    for (const Scenario& scenario : scenarios) {
      auto response = client.Get(scenario.target);
      NATIX_CHECK(response.ok() && response->status == 200);
    }
  }

  std::printf("# serving: %zu requests/phase over %zu scenarios, "
              "%u hardware threads\n",
              requests_per_phase, scenarios.size(),
              std::thread::hardware_concurrency());
  std::printf("%-8s %10s %10s %10s %10s %8s %12s %14s\n", "clients",
              "time[s]", "req/sec", "p50[ms]", "p99[ms]", "fail",
              "shard_cont", "shard_wait[ms]");

  std::vector<PhaseResult> phases;
  for (size_t clients : {1u, 2u, 4u, 8u}) {
    PhaseResult phase =
        RunPhase(server.port(), scenarios, clients, requests_per_phase);
    std::printf("%-8zu %10.3f %10.1f %10.3f %10.3f %8zu %12llu %14.3f\n",
                phase.clients, phase.seconds, phase.qps, phase.p50_ms,
                phase.p99_ms, phase.failures,
                static_cast<unsigned long long>(phase.shard_contended),
                phase.shard_wait_ms);
    std::fflush(stdout);
    phases.push_back(phase);

    // Scrape /metrics between phases like a Prometheus would; the body
    // must be non-empty exposition text (or the OBS=OFF stub).
    natix::server::HttpClient client(server.port());
    auto scrape = client.Get("/metrics");
    NATIX_CHECK(scrape.ok() && scrape->status == 200 &&
                !scrape->body.empty());
  }

  std::string out = "{\n  \"bench\": \"serving\",\n";
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "  \"requests_per_phase\": %zu,\n  \"scenarios\": %zu,\n"
                "  \"max_concurrency\": %zu,\n"
                "  \"hardware_threads\": %u,\n  \"rows\": [\n",
                requests_per_phase, scenarios.size(),
                server_options.max_concurrency,
                std::thread::hardware_concurrency());
  out += buf;
  for (size_t i = 0; i < phases.size(); ++i) {
    std::snprintf(
        buf, sizeof(buf),
        "    {\"clients\": %zu, \"requests\": %zu, \"seconds\": %.6f, "
        "\"qps\": %.2f, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
        "\"failures\": %zu, \"shard_contended\": %llu, "
        "\"shard_wait_ms\": %.4f}%s\n",
        phases[i].clients, phases[i].requests, phases[i].seconds,
        phases[i].qps, phases[i].p50_ms, phases[i].p99_ms,
        phases[i].failures,
        static_cast<unsigned long long>(phases[i].shard_contended),
        phases[i].shard_wait_ms, i + 1 < phases.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n  \"metrics\": " +
         natix::obs::MetricsRegistry::Global().SnapshotJson() + "\n}\n";
  std::FILE* f = std::fopen("BENCH_serving.json", "w");
  if (f != nullptr) {
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("# wrote BENCH_serving.json\n");
  }

  server.Shutdown();
  size_t total_failures = 0;
  for (const PhaseResult& phase : phases) total_failures += phase.failures;
  return total_failures == 0 ? 0 : 1;
}
