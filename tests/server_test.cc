// End-to-end tests of the natixd serving core (src/server): query
// endpoints over real sockets, the observability plane (/metrics,
// /statusz), per-request deadlines with early pipeline close, and
// admission control. One shared server (default options) covers the
// happy paths; the admission test builds its own tiny-queue server
// over the same database.
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "analysis/plan_verifier.h"
#include "api/database.h"
#include "base/clock.h"
#include "gen/xdoc_generator.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "server/http.h"
#include "server/server.h"

namespace natix {
namespace {

constexpr char kBooksXml[] =
    "<catalog>"
    "<book id=\"b1\"><title>First</title><author>Ann</author>"
    "<price>10</price></book>"
    "<book id=\"b2\"><title>Second</title><author>Bob</author>"
    "<price>20</price></book>"
    "</catalog>";

// Quadratic axis navigation over the generated document — slow enough
// (tens of milliseconds and up: ~38 ms on a 4-core x86-64 container)
// that a 1 ms deadline reliably expires mid-drain and an execution slot
// stays visibly occupied. The predicate sits between the following step
// and its duplicate elimination, so the step runs once per context (the
// staircase-step rewrite needs the two adjacent).
constexpr char kHeavyQuery[] =
    "/child::xdoc/child::*/child::*/child::*/fol::*[@id]/@id";

// Fig. 6: its last step is a staircase step draining the ancestor set
// into a sorted spool before it produces the first tuple.
constexpr char kStaircaseQuery[] = "/child::xdoc/desc::*/anc::*/desc::*/@id";

// A positional filter over an unordered step: the Sort below the
// counter drains the whole step output before the first tuple.
constexpr char kSortQuery[] = "(/child::xdoc/desc::*/fol-sib::*)[last()]";

struct ServerFixture {
  std::unique_ptr<Database> db;
  storage::NodeId books_root;
  storage::NodeId xdoc_root;
  std::unique_ptr<server::Server> server;
};

ServerFixture* g_fixture = nullptr;

ServerFixture& Fixture() {
  static ServerFixture* fixture = [] {
    auto* f = new ServerFixture();
    g_fixture = f;
    auto db = Database::CreateTemp();
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    f->db = std::move(db).value();

    auto books = f->db->LoadDocument("books", kBooksXml);
    EXPECT_TRUE(books.ok()) << books.status().ToString();
    f->books_root = books->root;

    gen::XDocOptions options;
    options.max_elements = 2500;
    options.fanout = 6;
    options.depth = 5;
    auto xdoc = f->db->LoadDocument("xdoc", gen::GenerateXDoc(options));
    EXPECT_TRUE(xdoc.ok()) << xdoc.status().ToString();
    f->xdoc_root = xdoc->root;

    f->server = std::make_unique<server::Server>(f->db.get(),
                                                 server::ServerOptions());
    Status started = f->server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return f;
  }();
  return *fixture;
}

/// Stops the shared server after the last test. Shutdown joins the
/// acceptor and connection threads, which would otherwise still run
/// when the process exits (a thread leak under ThreadSanitizer).
class SharedServerEnvironment : public ::testing::Environment {
 public:
  void TearDown() override {
    if (g_fixture != nullptr && g_fixture->server != nullptr) {
      g_fixture->server->Shutdown();
    }
  }
};

[[maybe_unused]] ::testing::Environment* const kSharedServerEnvironment =
    ::testing::AddGlobalTestEnvironment(new SharedServerEnvironment);

#if !defined(NATIX_OBS_DISABLED)
/// Runs `query` on the fixture's xdoc to completion and then once more
/// against an already expired deadline, with plan verification (and so
/// the resource ledger) on. Returns the next_calls of both runs; the
/// aborted run must end in kDeadlineExceeded — an unbalanced ledger
/// would turn it into kInternal.
std::pair<uint64_t, uint64_t> FullAndAbortedNextCalls(const char* query) {
  ServerFixture& f = Fixture();
  const bool was_verifying = analysis::VerificationEnabled();
  analysis::SetVerificationEnabled(true);
  auto prepared = f.db->Prepare(query);
  EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
  if (!prepared.ok()) return {0, 0};

  auto full = (*prepared)->NewExecution(/*collect_stats=*/true);
  EXPECT_TRUE(full.ok());
  auto full_nodes = (*full)->EvaluateNodes(f.xdoc_root);
  EXPECT_TRUE(full_nodes.ok()) << full_nodes.status().ToString();
  const uint64_t full_next = (*full)->Stats()->ComputeTotals().next_calls;

  auto aborted = (*prepared)->NewExecution(/*collect_stats=*/true);
  EXPECT_TRUE(aborted.ok());
  (*aborted)->SetDeadlineNs(1);
  auto result = (*aborted)->EvaluateNodes(f.xdoc_root);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  const uint64_t aborted_next =
      (*aborted)->Stats()->ComputeTotals().next_calls;
  analysis::SetVerificationEnabled(was_verifying);
  return {full_next, aborted_next};
}
#endif  // !NATIX_OBS_DISABLED

std::string QueryTarget(const std::string& doc, const std::string& xpath,
                        const std::string& extra = "") {
  return "/query?doc=" + doc + "&q=" + server::UrlEncode(xpath) + extra;
}

TEST(ServerTest, HealthzOverKeepAliveConnection) {
  server::HttpClient client(Fixture().server->port());
  for (int i = 0; i < 2; ++i) {
    auto response = client.Get("/healthz");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(response->body, "ok\n");
  }
}

TEST(ServerTest, QueryStringValues) {
  server::HttpClient client(Fixture().server->port());
  auto response = client.Get(QueryTarget("books", "//title"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->content_type, "application/json");
  EXPECT_NE(response->body.find("\"count\":2"), std::string::npos)
      << response->body;
  EXPECT_NE(response->body.find("\"results\":[\"First\",\"Second\"]"),
            std::string::npos)
      << response->body;
}

TEST(ServerTest, QueryXmlMode) {
  server::HttpClient client(Fixture().server->port());
  auto response =
      client.Get(QueryTarget("books", "//book[@id='b2']/title",
                             "&mode=xml"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("<title>Second</title>"),
            std::string::npos)
      << response->body;
}

TEST(ServerTest, QueryCountModeOmitsResults) {
  server::HttpClient client(Fixture().server->port());
  auto response =
      client.Get(QueryTarget("books", "//book", "&mode=count"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("\"count\":2"), std::string::npos);
  EXPECT_EQ(response->body.find("\"results\""), std::string::npos)
      << response->body;
}

TEST(ServerTest, ScalarQueryReturnsValue) {
  server::HttpClient client(Fixture().server->port());
  auto response = client.Get(QueryTarget("books", "count(//book)"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("\"value\":\"2\""), std::string::npos)
      << response->body;
}

TEST(ServerTest, LimitCapsResultAndClosesPipelineEarly) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const uint64_t early_before = metrics.early_exits.value();
  server::HttpClient client(Fixture().server->port());
  auto response =
      client.Get(QueryTarget("xdoc", "//*/@id", "&limit=3&mode=values"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("\"count\":3"), std::string::npos)
      << response->body;
#if !defined(NATIX_OBS_DISABLED)
  // The Limit operator reached its bound and closed the input pipeline;
  // the process-wide counter sees it even though the serving execution
  // runs uninstrumented.
  EXPECT_GT(metrics.early_exits.value(), early_before);
#else
  (void)early_before;
#endif
}

TEST(ServerTest, BadRequestsGetStructuredErrors) {
  server::HttpClient client(Fixture().server->port());

  auto missing = client.Get("/query?doc=books");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 400);
  EXPECT_NE(missing->body.find("\"code\":\"InvalidArgument\""),
            std::string::npos);

  auto unknown_doc = client.Get(QueryTarget("nosuch", "//a"));
  ASSERT_TRUE(unknown_doc.ok());
  EXPECT_EQ(unknown_doc->status, 404);

  auto bad_xpath = client.Get(QueryTarget("books", "//["));
  ASSERT_TRUE(bad_xpath.ok());
  EXPECT_EQ(bad_xpath->status, 400);

  auto bad_mode = client.Get(QueryTarget("books", "//a", "&mode=wat"));
  ASSERT_TRUE(bad_mode.ok());
  EXPECT_EQ(bad_mode->status, 400);

  auto bad_endpoint = client.Get("/nosuch");
  ASSERT_TRUE(bad_endpoint.ok());
  EXPECT_EQ(bad_endpoint->status, 404);
  EXPECT_NE(bad_endpoint->body.find("\"code\":\"NotFound\""),
            std::string::npos);
}

TEST(ServerTest, MetricsEndpointServesExposition) {
  server::HttpClient client(Fixture().server->port());
  // At least one query first so the histograms are populated.
  auto warm = client.Get(QueryTarget("books", "//title"));
  ASSERT_TRUE(warm.ok());
  auto response = client.Get("/metrics");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
#if !defined(NATIX_OBS_DISABLED)
  EXPECT_EQ(response->content_type, obs::kPrometheusContentType);
  EXPECT_NE(response->body.find("# TYPE natix_exec_ns histogram"),
            std::string::npos);
  EXPECT_NE(response->body.find("natix_exec_ns_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(response->body.find("natix_exec_ns_sum "), std::string::npos);
  EXPECT_NE(response->body.find("natix_exec_ns_count "),
            std::string::npos);
  EXPECT_NE(response->body.find("# TYPE natix_http_requests_total "
                                "counter"),
            std::string::npos);
  EXPECT_NE(response->body.find("# TYPE natix_queue_wait_ns histogram"),
            std::string::npos);
  EXPECT_NE(response->body.find("# TYPE natix_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(response->body.find("natix_buffer_resident_pages"),
            std::string::npos);
  EXPECT_NE(response->body.find(
                "natix_lock_wait_seconds_total{class=\"buffer_shard\"} "),
            std::string::npos);
  EXPECT_NE(response->body.find(
                "natix_lock_contended_total{class=\"buffer_shard\"} "),
            std::string::npos);
#else
  // The zero-cost configuration keeps the endpoint but serves the
  // explicit stub instead of empty exposition.
  EXPECT_EQ(response->content_type, "application/json");
  EXPECT_EQ(response->body, "{\"disabled\":true}");
#endif
}

TEST(ServerTest, StatuszReportsServerState) {
  server::HttpClient client(Fixture().server->port());
  auto response = client.Get("/statusz");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->content_type, "application/json");
  EXPECT_NE(response->body.find("\"documents\":[\"books\",\"xdoc\"]"),
            std::string::npos)
      << response->body;
  EXPECT_NE(response->body.find("\"plan_cache\":{\"capacity\":"),
            std::string::npos);
  EXPECT_NE(response->body.find("\"buffer_pool\":{\"pages\":"),
            std::string::npos);
  EXPECT_NE(response->body.find("\"resident_pages\":"), std::string::npos);
  EXPECT_NE(response->body.find("\"admission\":{\"max_concurrency\":"),
            std::string::npos);
  EXPECT_NE(response->body.find("\"slow_queries\":["), std::string::npos);
  EXPECT_NE(response->body.find("\"lock_wait\":"), std::string::npos);
}

TEST(ServerTest, DeadlineExceededRequestGets504) {
#if !defined(NATIX_OBS_DISABLED)
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const uint64_t deadline_before = metrics.deadline_exceeded.value();
#endif
  server::HttpClient client(Fixture().server->port());
  auto response = client.Get(
      QueryTarget("xdoc", kHeavyQuery, "&deadline_ms=1&mode=count"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 504);
  EXPECT_NE(response->body.find("\"code\":\"DeadlineExceeded\""),
            std::string::npos)
      << response->body;
#if !defined(NATIX_OBS_DISABLED)
  EXPECT_GT(metrics.deadline_exceeded.value(), deadline_before);
#endif
}

#if !defined(NATIX_OBS_DISABLED)
// The acceptance check behind the 504: an expired deadline doesn't just
// fail the request, it closes the iterator pipeline after the first
// drain-loop check instead of draining the plan to exhaustion.
TEST(ServerTest, DeadlineClosesPipelineEarly) {
  ServerFixture& f = Fixture();
  auto prepared = f.db->Prepare(kHeavyQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  auto full = (*prepared)->NewExecution(/*collect_stats=*/true);
  ASSERT_TRUE(full.ok());
  auto full_nodes = (*full)->EvaluateNodes(f.xdoc_root);
  ASSERT_TRUE(full_nodes.ok()) << full_nodes.status().ToString();
  const uint64_t full_next = (*full)->Stats()->ComputeTotals().next_calls;
  ASSERT_GT(full_next, 0u);

  auto aborted = (*prepared)->NewExecution(/*collect_stats=*/true);
  ASSERT_TRUE(aborted.ok());
  // An absolute deadline in the distant past: Open and the first Next
  // still run (the checks live in the drain loop), then the first check
  // aborts and cascades Close() down the pipeline.
  (*aborted)->SetDeadlineNs(1);
  auto result = (*aborted)->EvaluateNodes(f.xdoc_root);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  const uint64_t aborted_next =
      (*aborted)->Stats()->ComputeTotals().next_calls;
  // "Provably early": producing the first tuple costs a sliver of the
  // full drain. Factor 4 leaves headroom for plan-shape changes.
  EXPECT_LT(aborted_next * 4, full_next)
      << "aborted=" << aborted_next << " full=" << full_next;
}

// A blocking drain inside the plan polls the deadline itself: the
// staircase step's context spool and Sort's row spool stop at their
// first check instead of spooling the whole input before the result
// drain loop could see the deadline.
TEST(ServerTest, DeadlineAbortsStaircaseDrain) {
  auto [full_next, aborted_next] = FullAndAbortedNextCalls(kStaircaseQuery);
  ASSERT_GT(full_next, 0u);
  EXPECT_LT(aborted_next * 4, full_next)
      << "aborted=" << aborted_next << " full=" << full_next;
}

TEST(ServerTest, DeadlineAbortsSortDrain) {
  auto [full_next, aborted_next] = FullAndAbortedNextCalls(kSortQuery);
  ASSERT_GT(full_next, 0u);
  EXPECT_LT(aborted_next * 4, full_next)
      << "aborted=" << aborted_next << " full=" << full_next;
}

TEST(ServerTest, CancelFlagAbortsExecution) {
  ServerFixture& f = Fixture();
  auto prepared = f.db->Prepare(kHeavyQuery);
  ASSERT_TRUE(prepared.ok());
  auto execution = (*prepared)->NewExecution();
  ASSERT_TRUE(execution.ok());
  std::atomic<bool> cancel{true};
  (*execution)->SetCancelFlag(&cancel);
  auto result = (*execution)->EvaluateNodes(f.xdoc_root);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}
#endif  // !NATIX_OBS_DISABLED

TEST(ServerTest, AdmissionRejectsWhenQueueIsFull) {
  ServerFixture& f = Fixture();
  // The first request parks inside the only execution slot until the
  // probe has been turned away: the probe must meet the full
  // (zero-capacity) queue, and the parked request cannot be shed itself.
  std::promise<void> slot_held;
  std::promise<void> release_slot;
  std::shared_future<void> released = release_slot.get_future().share();
  std::atomic<bool> first{true};
  server::ServerOptions options;
  options.max_concurrency = 1;
  options.queue_capacity = 0;
  options.on_admitted = [&] {
    if (!first.exchange(false)) return;
    slot_held.set_value();
    released.wait();
  };
  server::Server small(f.db.get(), options);
  ASSERT_TRUE(small.Start().ok());

  std::thread busy([&] {
    server::HttpClient client(small.port());
    auto response = client.Get(QueryTarget("books", "//title"));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 200);
  });
  const bool held = slot_held.get_future().wait_for(std::chrono::seconds(
                        30)) == std::future_status::ready;
  StatusOr<server::HttpResponse> rejected =
      Status::Internal("the busy request never took the slot");
  if (held) {
    server::HttpClient probe(small.port());
    rejected = probe.Get(QueryTarget("books", "//title"));
  }
  release_slot.set_value();
  busy.join();

  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->status, 503);
  EXPECT_NE(rejected->body.find("\"code\":\"ResourceExhausted\""),
            std::string::npos)
      << rejected->body;
#if !defined(NATIX_OBS_DISABLED)
  EXPECT_GT(obs::MetricsRegistry::Global().requests_rejected.value(), 0u);
#endif
  small.Shutdown();
}

TEST(ServerTest, UrlCodecRoundTrips) {
  EXPECT_EQ(server::UrlDecode("a%20b+c"), "a b c");
  EXPECT_EQ(server::UrlDecode("%2F%2Fbook%5B%40id%3D%27b1%27%5D"),
            "//book[@id='b1']");
  const std::string raw = "//n[@id='x 1']/desc::*";
  EXPECT_EQ(server::UrlDecode(server::UrlEncode(raw)), raw);
}

}  // namespace
}  // namespace natix
