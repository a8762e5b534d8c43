// serve-mix: an in-process natixd (default options: 4 execution slots)
// over real loopback sockets, driven by a closed loop of keep-alive
// connections; each waits for its reply before sending the next
// request. The request mix spans the DBLP, auction and xdoc documents:
// point lookups, scans in count mode, limit=10 pages and aggregates. It
// has fewer distinct requests than the plan cache holds, so after
// warm-up every Prepare is a cache hit.

#include <algorithm>
#include <optional>
#include <random>
#include <thread>

#include "gen/auction_generator.h"
#include "gen/dblp_generator.h"
#include "gen/xdoc_generator.h"
#include "server/http.h"
#include "server/server.h"
#include "workloads.h"

namespace natixbench {

namespace {

// Three connections: the clients run in this process and share the
// hardware threads with the server's workers. With four on a 4-thread
// machine the run-to-run p99 spread was 1.9 (the tail measured thread
// scheduling); with three it was 0.07, at a higher request rate.
constexpr int kConnections = 3;
constexpr int kInstancesPerTemplate = 4;

struct Request {
  const char* tag;
  const char* doc;
  std::string xpath;
  std::string mode;  // values | count
  uint64_t limit = 0;
  std::string target;
};

struct Docs {
  std::string dblp;
  std::string auction;
  std::string xdoc;
};

Docs GenerateDocs(uint64_t seed) {
  Docs docs;
  natix::gen::DblpOptions dblp;
  dblp.publications = 2000;
  dblp.seed = static_cast<uint32_t>(seed);
  docs.dblp = natix::gen::GenerateDblp(dblp);
  natix::gen::AuctionOptions auction;
  auction.people = 400;
  auction.items = 800;
  auction.auctions = 600;
  auction.seed = static_cast<uint32_t>(seed);
  docs.auction = natix::gen::GenerateAuctionSite(auction);
  natix::gen::XDocOptions xdoc;
  xdoc.max_elements = 2000;
  xdoc.fanout = 6;
  xdoc.depth = 5;
  docs.xdoc = natix::gen::GenerateXDoc(xdoc);
  return docs;
}

/// Every @key value of the DBLP text, in document order.
std::vector<std::string> DblpKeys(const std::string& xml) {
  std::vector<std::string> keys;
  const std::string marker = " key=\"";
  for (size_t at = xml.find(marker); at != std::string::npos;
       at = xml.find(marker, at + 1)) {
    const size_t begin = at + marker.size();
    keys.push_back(xml.substr(begin, xml.find('"', begin) - begin));
  }
  return keys;
}

/// The seeded request mix: kInstancesPerTemplate instances of each
/// template, parameters whose cost does not depend on their value drawn
/// from the seed.
std::vector<Request> MakeRequests(uint64_t seed, const Docs& docs) {
  std::mt19937_64 rng(seed ^ 0x5e12e5ull);
  auto pick = [&rng](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  const std::vector<std::string> keys = DblpKeys(docs.dblp);
  const char* authors[] = {"Sven Helmer", "Torsten Grust", "Georg Gottlob",
                           "Goetz Graefe", "Jennifer Widom", "Alon Halevy"};
  const char* cities[] = {"Mannheim", "Karlsruhe", "Berlin",
                          "Zurich",   "Vienna",    "Paris"};
  std::vector<Request> out;
  for (int i = 0; i < kInstancesPerTemplate; ++i) {
    const std::string person = "person" + std::to_string(pick(400));
    out.push_back({"dblp_key", "dblp",
                   "/dblp/*[@key='" + keys[pick(keys.size())] + "']/title",
                   "values", 0, ""});
    // Positions and subtree ids are fixed per instance: their cost
    // grows with the value, and the mix's cost must not vary by seed.
    out.push_back({"dblp_pos", "dblp",
                   "/dblp/article[position()=" + std::to_string(50 + 100 * i) +
                       "]/title",
                   "values", 0, ""});
    out.push_back({"dblp_year_count", "dblp",
                   "/dblp/inproceedings[year='" +
                       std::to_string(1980 + pick(25)) + "']",
                   "count", 0, ""});
    out.push_back({"dblp_author_page", "dblp",
                   std::string("/dblp/*[author='") +
                       authors[pick(std::size(authors))] + "']/title",
                   "values", 10, ""});
    out.push_back({"auction_person", "auction",
                   "id('" + person + "')/name", "values", 0, ""});
    out.push_back({"auction_item", "auction",
                   "id('item" + std::to_string(pick(800)) + "')/description",
                   "values", 0, ""});
    out.push_back({"auction_seller_sum", "auction",
                   "sum(/site/auctions/auction[@seller='" + person +
                       "']/bid/amount)",
                   "values", 0, ""});
    out.push_back({"auction_city_page", "auction",
                   std::string("/site/people/person[city='") +
                       cities[pick(std::size(cities))] + "']/name",
                   "values", 10, ""});
    out.push_back({"xdoc_scan_count", "xdoc",
                   "/child::xdoc/desc::*[@id > " +
                       std::to_string(pick(2000)) + "]",
                   "count", 0, ""});
    out.push_back({"xdoc_agg", "xdoc",
                   "count(/child::xdoc/child::*[@id < " +
                       std::to_string(2 + i) + "]/desc::*/anc::*)",
                   "values", 0, ""});
  }
  for (Request& r : out) {
    r.target = "/query?doc=" + std::string(r.doc) +
               "&q=" + natix::server::UrlEncode(r.xpath) + "&mode=" + r.mode;
    if (r.limit > 0) r.target += "&limit=" + std::to_string(r.limit);
  }
  return out;
}

/// The result part of a /query response body: everything between the
/// echoed mode and the timing fields. Sets `elapsed_ns` and `tuples`.
std::string_view ResultFragment(std::string_view body, uint64_t* elapsed_ns,
                                uint64_t* tuples) {
  const std::string_view mode_key = "\"mode\":\"";
  const std::string_view elapsed_key = ",\"elapsed_ns\":";
  const std::string_view tuples_key = ",\"tuples\":";
  const size_t mode = body.find(mode_key);
  const size_t elapsed = body.rfind(elapsed_key);
  if (mode == std::string_view::npos || elapsed == std::string_view::npos) {
    return {};
  }
  const size_t begin = body.find("\",", mode + mode_key.size());
  if (begin == std::string_view::npos || begin + 2 > elapsed) return {};
  *elapsed_ns = std::strtoull(body.data() + elapsed + elapsed_key.size(),
                              nullptr, 10);
  const size_t t = body.rfind(tuples_key);
  *tuples = t == std::string_view::npos
                ? 0
                : std::strtoull(body.data() + t + tuples_key.size(), nullptr,
                                10);
  return body.substr(begin + 2, elapsed - begin - 2);
}

/// The fragment natixd must answer for `request`, from the oracle.
std::string ExpectedFragment(const Request& request,
                             const natix::interp::Object& oracle) {
  if (oracle.kind != natix::interp::Object::Kind::kNodeSet) {
    return "\"value\":\"" + JsonEscape(OracleString(oracle)) + "\"";
  }
  size_t n = oracle.nodes.size();
  if (request.limit > 0) n = std::min<size_t>(n, request.limit);
  std::string out = "\"count\":" + std::to_string(n);
  if (request.mode == "count") return out;
  out += ",\"results\":[";
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out += ',';
    out += '"' + JsonEscape(oracle.nodes[i]->StringValue()) + '"';
  }
  return out + "]";
}

struct Serving {
  std::unique_ptr<natix::Database> db;
  std::unique_ptr<natix::server::Server> server;
  double load_s = 0;
  double xml_mb = 0;
};

Serving Setup(uint64_t seed, const std::string& db_path,
              std::vector<Request>* requests) {
  Serving out;
  const Docs docs = GenerateDocs(seed);
  *requests = MakeRequests(seed, docs);
  out.db = Unwrap(natix::Database::Create(db_path), "create database");
  for (const auto& [name, xml] :
       {std::pair<const char*, const std::string*>{"dblp", &docs.dblp},
        {"auction", &docs.auction},
        {"xdoc", &docs.xdoc}}) {
    const uint64_t begin = NowNs();
    Unwrap(out.db->LoadDocument(name, *xml), "load document");
    out.load_s += static_cast<double>(NowNs() - begin) / 1e9;
    out.xml_mb += static_cast<double>(xml->size()) / (1024.0 * 1024.0);
  }
  out.server = std::make_unique<natix::server::Server>(
      out.db.get(), natix::server::ServerOptions());
  CheckOk(out.server->Start(), "server start");
  // Warm-up: every request once, filling the plan cache and the pool.
  natix::server::HttpClient client(out.server->port());
  for (const Request& r : *requests) {
    auto response = Unwrap(client.Get(r.target), "warm-up request");
    if (response.status != 200) {
      std::fprintf(stderr, "natixbench: warm-up %s -> %d %s\n",
                   r.target.c_str(), response.status, response.body.c_str());
      std::exit(3);
    }
  }
  return out;
}

struct ClientLog {
  std::vector<OpRecord> ops;
  std::vector<double> overhead_ms;  // round trip minus server elapsed
  uint64_t tuples = 0;
};

void ClientLoop(int port, int connection, uint64_t seed, bool trace,
                uint64_t start, uint64_t deadline,
                const std::vector<Request>* requests,
                Tracer* tracer, ClientLog* log) {
  natix::server::HttpClient client(port);
  std::mt19937_64 rng(seed * kConnections + connection);
  std::uniform_int_distribution<uint32_t> pick(
      0, static_cast<uint32_t>(requests->size() - 1));
  const uint64_t op_base = static_cast<uint64_t>(connection) << 32;
  for (uint64_t i = 0; NowNs() < deadline; ++i) {
    OpRecord op;
    op.query = pick(rng);
    op.traced = trace && i % 2 == 1;
    Tracer* tr = op.traced ? tracer : nullptr;
    std::optional<natix::StatusOr<natix::server::HttpResponse>> reply;
    const uint64_t begin = NowNs();
    {
      ScopedSpan op_span(tr, "op", op_base + i, (*requests)[op.query].tag);
      ScopedSpan span(tr, "server.roundtrip", op_base + i);
      reply.emplace(client.Get((*requests)[op.query].target));
    }
    const uint64_t end = NowNs();
    op.latency_ns = end - begin;
    op.end_ns = end - start;
    const natix::StatusOr<natix::server::HttpResponse>& response = *reply;
    if (!response.ok()) {
      op.status = OpStatus::kError;
    } else if (response->status == 503 || response->status == 504) {
      op.status = OpStatus::kRejected;
    } else if (response->status != 200) {
      op.status = OpStatus::kError;
    } else {
      uint64_t elapsed_ns = 0;
      uint64_t tuples = 0;
      op.digest =
          Fnv1a(ResultFragment(response->body, &elapsed_ns, &tuples));
      log->overhead_ms.push_back(
          (static_cast<double>(op.latency_ns) -
           static_cast<double>(elapsed_ns)) / 1e6);
      log->tuples += tuples;
    }
    log->ops.push_back(op);
  }
}

}  // namespace

RunResult RunServeMix(const RunConfig& config) {
  RunResult result;
  const std::string db_path = config.out_path + ".natix";
  std::vector<Request> requests;
  Serving serving;
  std::vector<double> load_mb_per_s;
  auto timed_setup = [&] {
    if (serving.server) serving.server->Shutdown();
    serving = Serving();
    const uint64_t begin = NowNs();
    serving = Setup(config.seed, db_path, &requests);
    result.setup_s.push_back(static_cast<double>(NowNs() - begin) / 1e9);
    load_mb_per_s.push_back(serving.xml_mb / serving.load_s);
  };
  for (int i = 0; i < kSetupsBefore; ++i) timed_setup();
  natix::Database* db = serving.db.get();
  const size_t nq = requests.size();

  // Traced runs: compile probe, stats-on counters, stats overhead, and
  // the warm plan-cache Prepare and NewExecution costs per distinct
  // request, off the serving path (the server makes these calls itself).
  Tracer probe_tracer;
  std::vector<QueryCounters> counters(nq);
  CompileProbeSums compile_sums;
  double stats_on_ms = 0;
  double stats_off_ms = 0;
  if (config.trace) {
    for (size_t q = 0; q < nq; ++q) {
      natix::translate::TranslatorOptions options;
      options.result_limit = requests[q].limit;
      const uint64_t op = kProbeOpBase + q;
      CompileProbe(requests[q].xpath, db->store(), &probe_tracer, op,
                   options, &compile_sums);
      std::shared_ptr<const natix::PreparedQuery> prepared;
      {
        ScopedSpan span(&probe_tracer, "api.prepare", op);
        prepared = Unwrap(db->Prepare(requests[q].xpath, options), "prepare");
      }
      {
        ScopedSpan span(&probe_tracer, "qe.instantiate", op);
        Unwrap(prepared->NewExecution(), "new execution");
      }
      const natix::storage::NodeId root =
          Unwrap(db->Root(requests[q].doc), "document root").id();
      counters[q] = StatsOnCounters(*prepared, root);
      auto [on, off] = StatsOverhead(*prepared, root, /*pairs=*/2);
      stats_on_ms += on;
      stats_off_ms += off;
    }
  }

  // Timed phase.
  natix::obs::MetricsRegistry& metrics = natix::obs::MetricsRegistry::Global();
  const auto queue_before = metrics.queue_wait_ns.NonZeroBuckets();
  const auto exec_before = metrics.exec_ns.NonZeroBuckets();
  const uint64_t rejected_before = metrics.requests_rejected.value();
  const uint64_t nvm_before = metrics.nvm_insns_retired.value();
  const natix::storage::BufferManager* pool = db->store()->buffer_manager();
  const auto pool_before = pool->Snapshot();
  const uint64_t cache_hits = db->plan_cache().hit_count();
  const uint64_t cache_misses = db->plan_cache().miss_count();

  std::vector<ClientLog> logs(kConnections);
  std::vector<std::unique_ptr<Tracer>> tracers;
  for (int c = 0; c < kConnections; ++c) {
    tracers.push_back(std::make_unique<Tracer>());
  }
  const uint64_t start = NowNs();
  const uint64_t deadline =
      start + static_cast<uint64_t>(config.seconds * 1e9);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kConnections; ++c) {
      clients.emplace_back(ClientLoop, serving.server->port(), c, config.seed,
                           config.trace, start, deadline, &requests,
                           tracers[c].get(), &logs[c]);
    }
    for (std::thread& t : clients) t.join();
  }
  result.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  uint64_t log_bytes = 0;
  for (const ClientLog& log : logs) {
    log_bytes += log.ops.size() * sizeof(OpRecord) +
                 log.overhead_ms.size() * sizeof(double);
  }
  result.rss_kb = ProgramRssKb(log_bytes);

  std::vector<double> overhead_ms;
  uint64_t tuples = 0;
  for (ClientLog& log : logs) {
    result.ops.insert(result.ops.end(), log.ops.begin(), log.ops.end());
    overhead_ms.insert(overhead_ms.end(), log.overhead_ms.begin(),
                       log.overhead_ms.end());
    tuples += log.tuples;
  }
  const uint64_t n = result.ops.size();
  const double per_op = n == 0 ? 1.0 : static_cast<double>(n);
  AddStorageDeltas(pool, pool_before, n, &result.layer);
  AddPlanCacheRatio(db->plan_cache(), cache_hits, cache_misses,
                    &result.layer);
  result.layer["server.queue_wait_p99_ms"] =
      HistogramDeltaPercentile(queue_before,
                               metrics.queue_wait_ns.NonZeroBuckets(), 0.99) /
      1e6;
  result.layer["server.exec_p50_ms"] =
      HistogramDeltaPercentile(exec_before, metrics.exec_ns.NonZeroBuckets(),
                               0.5) /
      1e6;
  result.layer["qe.exec_ms"] = result.layer["server.exec_p50_ms"];
  result.layer["server.rejected_ratio"] =
      static_cast<double>(metrics.requests_rejected.value() -
                          rejected_before) / per_op;
  result.layer["server.roundtrip_overhead_p50_ms"] =
      Median(std::move(overhead_ms));
  result.layer["qe.step_tuples"] = static_cast<double>(tuples) / per_op;
  result.layer["nvm.insns_retired"] =
      static_cast<double>(metrics.nvm_insns_retired.value() - nvm_before) /
      per_op;
  result.facts["xml_mb"] = serving.xml_mb;
  result.facts["distinct_requests"] = static_cast<double>(nq);
  result.facts["connections"] = kConnections;

  serving.server->Shutdown();

  // Oracle: expected response fragments from the interpreter.
  const Docs docs = GenerateDocs(config.seed);
  auto dblp = Unwrap(natix::dom::ParseDocument(docs.dblp), "oracle DOM");
  auto auction =
      Unwrap(natix::dom::ParseDocument(docs.auction), "oracle DOM");
  auto xdoc = Unwrap(natix::dom::ParseDocument(docs.xdoc), "oracle DOM");
  auto dom_of = [&](const Request& r) -> const natix::dom::Document* {
    const std::string_view doc = r.doc;
    return doc == "dblp" ? dblp.get() : doc == "auction" ? auction.get()
                                                         : xdoc.get();
  };
  std::vector<uint64_t> expected(nq);
  std::vector<std::string> labels(nq);
  for (size_t q = 0; q < nq; ++q) {
    const natix::dom::Document* dom = dom_of(requests[q]);
    natix::interp::EvaluatorOptions options;
    auto oracle = Unwrap(natix::interp::Evaluator::Run(
                             dom, requests[q].xpath, dom->root(), options),
                         "oracle");
    expected[q] = Fnv1a(ExpectedFragment(requests[q], oracle));
    labels[q] = requests[q].target;
  }
  CompareDigests(expected, labels, &result);

  if (config.trace) {
    AddOpWeightedCounters(counters, result.ops, &result.layer);
    AddCompileSums(compile_sums, &result.layer);
    result.layer["obs.stats_overhead_ratio"] =
        stats_off_ms > 0 ? stats_on_ms / stats_off_ms : 0;
    std::vector<double> interp_ms(nq);
    for (size_t q = 0; q < nq; ++q) {
      interp_ms[q] = InterpMedianMs(dom_of(requests[q]), requests[q].xpath, 3);
    }
    std::vector<double> per_op_interp;
    for (const OpRecord& op : result.ops) {
      per_op_interp.push_back(interp_ms[op.query]);
    }
    result.layer["interp.exec_ms"] = Median(std::move(per_op_interp));
    std::vector<const Tracer*> all = {&probe_tracer};
    for (const auto& t : tracers) all.push_back(t.get());
    WriteSpans(config.spans_path, all);
  }
  for (int i = 0; i < kSetupsAfter; ++i) timed_setup();
  result.layer["storage.load_mb_per_s"] = Median(load_mb_per_s);
  serving.server->Shutdown();
  serving = Serving();
  std::remove(db_path.c_str());
  return result;
}

}  // namespace natixbench
