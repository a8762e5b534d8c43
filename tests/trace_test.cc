// Span-level tests for the pipeline tracer, the process-wide metrics
// registry and the slow-query log (src/obs/trace.h, src/obs/metrics.h):
// the compile phases of Sec. 5.1 must appear as properly nested spans
// for the paper's query shapes, the registry must survive concurrent
// Executes, and the slow-query log must capture and bound its entries.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "gen/xdoc_generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace natix {
namespace {

// Span assertions are meaningless when tracing is compiled out; the
// OFF-configuration no-op surface is covered in option_matrix_test.cc.
#if defined(NATIX_OBS_DISABLED)
#define NATIX_REQUIRE_OBS() \
  GTEST_SKIP() << "observability compiled out (NATIX_OBS=OFF)"
#else
#define NATIX_REQUIRE_OBS() (void)0
#endif

constexpr char kXdoc[] =
    "<xdoc id=\"d0\"><a id=\"n1\"><b id=\"n2\"/><c id=\"n3\"/></a>"
    "<a id=\"n4\"><b id=\"n5\"><c id=\"n6\"/></b></a></xdoc>";

constexpr char kDblp[] =
    "<dblp><article key=\"a1\"><author>A</author><title>T1</title>"
    "</article><article key=\"a2\"><author>B</author><author>C</author>"
    "<title>T2</title></article><inproceedings key=\"p1\">"
    "<title>T3</title></inproceedings></dblp>";

struct Fixture {
  std::unique_ptr<Database> db;
  storage::NodeId root;
};

Fixture Load(const std::string& xml) {
  Fixture f;
  auto db = Database::CreateTemp();
  EXPECT_TRUE(db.ok());
  f.db = std::move(db.value());
  auto info = f.db->LoadDocument("doc", xml);
  EXPECT_TRUE(info.ok());
  f.root = info->root;
  return f;
}

/// Compiles and evaluates `query` under an active trace and returns the
/// collected spans.
std::vector<obs::TraceEvent> TraceQuery(const std::string& xml,
                                        const std::string& query) {
  Fixture f = Load(xml);
  Database::StartTrace();
  auto compiled = f.db->Compile(query);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto nodes = (*compiled)->EvaluateNodes(f.root);
  EXPECT_TRUE(nodes.ok());
  return obs::Tracer::Global().Stop();
}

const obs::TraceEvent* Find(const std::vector<obs::TraceEvent>& events,
                            const std::string& name) {
  for (const obs::TraceEvent& e : events) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

/// True when `inner` lies within `outer` on the same thread ([start,
/// start+dur] containment — how Perfetto infers nesting).
bool Within(const obs::TraceEvent& inner, const obs::TraceEvent& outer) {
  return inner.tid == outer.tid && inner.start_ns >= outer.start_ns &&
         inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns;
}

/// The five query shapes of the paper's figures (Fig. 6-10 families).
struct Shape {
  const char* doc;
  const char* query;
  // Whether the API must still sort the result: false when property
  // inference proves the result stream document-ordered already.
  bool sorts;
};
// Figs. 6, 7 and 9 end in a staircase step over descendant/following,
// whose output is in document order; Fig. 8 ends in ancestor.
const Shape kPaperShapes[] = {
    {kXdoc, "/child::xdoc/desc::*/anc::*/desc::*/@id", false},
    {kXdoc, "/child::xdoc/desc::*/pre-sib::*/fol::*/@id", false},
    {kXdoc, "/child::xdoc/desc::*/anc::*/anc::*/@id", true},
    {kXdoc, "/child::xdoc/child::*/par::*/desc::*/@id", false},
    {kDblp, "/dblp/article[position() = last()]/title", false},
};

TEST(TraceTest, CompilePhasesNestForPaperQueryShapes) {
  NATIX_REQUIRE_OBS();
  for (const Shape& shape : kPaperShapes) {
    SCOPED_TRACE(shape.query);
    std::vector<obs::TraceEvent> events = TraceQuery(shape.doc, shape.query);

    const obs::TraceEvent* compile = Find(events, "compile");
    ASSERT_NE(compile, nullptr);
    EXPECT_EQ(compile->detail, shape.query);

    // All seven pipeline phases, each nested inside the compile span.
    const char* phases[] = {"compile/parse",     "compile/sema",
                            "compile/fold",      "compile/normalize",
                            "compile/translate", "compile/verify",
                            "compile/codegen"};
    for (const char* phase : phases) {
      SCOPED_TRACE(phase);
      const obs::TraceEvent* span = Find(events, phase);
      ASSERT_NE(span, nullptr);
      EXPECT_TRUE(Within(*span, *compile));
      EXPECT_GT(span->depth, compile->depth);
    }

    // Phase order within the pipeline (by start time). Verify is
    // excluded: its spans float with the build's verification mode
    // (inside translate in debug, inside codegen when layers are
    // skipped).
    const char* ordered[] = {"compile/parse", "compile/sema",
                             "compile/fold", "compile/normalize",
                             "compile/translate", "compile/codegen"};
    for (size_t i = 0; i + 1 < std::size(ordered); ++i) {
      const obs::TraceEvent* a = Find(events, ordered[i]);
      const obs::TraceEvent* b = Find(events, ordered[i + 1]);
      EXPECT_LE(a->start_ns, b->start_ns)
          << ordered[i] << " must start before " << ordered[i + 1];
    }

    // The plan-simplification rewrite runs inside translation.
    const obs::TraceEvent* rewrite = Find(events, "compile/rewrite");
    ASSERT_NE(rewrite, nullptr);
    EXPECT_TRUE(Within(*rewrite, *Find(events, "compile/translate")));

    // Execution: open / first-next / drain / close inside exec/nodes.
    const obs::TraceEvent* exec = Find(events, "exec/nodes");
    ASSERT_NE(exec, nullptr);
    for (const char* span_name :
         {"exec/open", "exec/first-next", "exec/drain", "exec/close"}) {
      SCOPED_TRACE(span_name);
      const obs::TraceEvent* span = Find(events, span_name);
      ASSERT_NE(span, nullptr);
      EXPECT_TRUE(Within(*span, *exec));
    }
    if (shape.sorts) {
      EXPECT_NE(Find(events, "exec/sort"), nullptr);
    } else {
      EXPECT_EQ(Find(events, "exec/sort"), nullptr)
          << "provably ordered result must skip the final sort";
    }
  }
}

TEST(TraceTest, InactiveTracerRecordsNothing) {
  NATIX_REQUIRE_OBS();
  (void)obs::Tracer::Global().Stop();  // ensure stopped
  Fixture f = Load(kXdoc);
  auto compiled = f.db->Compile("/child::xdoc/desc::*/@id");
  ASSERT_TRUE(compiled.ok());
  ASSERT_TRUE((*compiled)->EvaluateNodes(f.root).ok());
  EXPECT_TRUE(obs::Tracer::Global().Stop().empty());
}

TEST(TraceTest, StopJsonIsChromeTraceShaped) {
  NATIX_REQUIRE_OBS();
  Fixture f = Load(kXdoc);
  Database::StartTrace();
  ASSERT_TRUE(f.db->QueryNodes("doc", "//a[@id=\"n1\"]").ok());
  std::string json = Database::StopTrace();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"compile/parse\""), std::string::npos);
  // The query text rides along as args.detail, quotes escaped.
  EXPECT_NE(json.find("//a[@id=\\\"n1\\\"]"), std::string::npos);
}

TEST(TraceTest, ConcurrentExecutesUnderTracingAndRegistry) {
  NATIX_REQUIRE_OBS();
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  gen::XDocOptions gen_options;
  gen_options.max_elements = 2000;
  gen_options.fanout = 6;
  gen_options.depth = 5;
  auto info = (*db)->LoadDocument("doc", gen::GenerateXDoc(gen_options));
  ASSERT_TRUE(info.ok());

  obs::MetricsRegistry::Global().Reset();
  Database::StartTrace();
  const char* workloads[] = {
      "count(//n)",
      "count(//*[@id])",
      "count(//n/parent::*)",
      "sum(/xdoc/n/@id)",
  };
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      // Each thread owns its compiled plans; the tracer and the
      // registry are the shared state under test.
      for (int round = 0; round < 5; ++round) {
        size_t i = static_cast<size_t>(t + round) % std::size(workloads);
        auto query = (*db)->Compile(workloads[i]);
        if (!query.ok() || !(*query)->EvaluateValue(info->root).ok()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<obs::TraceEvent> events = obs::Tracer::Global().Stop();

  EXPECT_EQ(failures.load(), 0);
  const obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  EXPECT_EQ(metrics.queries_executed.value(), 40u);
  // The plan cache dedupes the 40 Compile calls down to one compile per
  // unique workload, plus however many threads raced past the same miss.
  EXPECT_GE(metrics.queries_compiled.value(), std::size(workloads));
  EXPECT_LE(metrics.queries_compiled.value(), 40u);
  EXPECT_EQ(metrics.plan_cache_hits.value() +
                metrics.plan_cache_misses.value(),
            40u);
  EXPECT_EQ(metrics.plan_cache_misses.value(),
            metrics.queries_compiled.value());
  EXPECT_EQ(metrics.exec_ns.count(), 40u);

  // Every thread's spans are present and self-consistent: exactly one
  // compile span per actual (uncached) compile.
  size_t compiles = 0;
  for (const obs::TraceEvent& e : events) {
    if (std::string("compile") == e.name) ++compiles;
    EXPECT_GT(e.tid, 0u);
  }
  EXPECT_EQ(compiles, metrics.queries_compiled.value());
}

TEST(MetricsTest, HistogramPercentilesAreBucketAccurate) {
  NATIX_REQUIRE_OBS();
  obs::LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.sum(), 500500u);
  // Log buckets bound the error by a factor of two around the rank.
  uint64_t p50 = h.Percentile(0.50);
  EXPECT_GE(p50, 250u);
  EXPECT_LE(p50, 1000u);
  EXPECT_LE(h.Percentile(0.50), h.Percentile(0.90));
  EXPECT_LE(h.Percentile(0.90), h.Percentile(0.99));
  EXPECT_LE(h.Percentile(0.99), h.max());

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
  h.Record(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Percentile(0.50), 0u);  // bucket 0 holds the value 0
}

TEST(MetricsTest, RegistrySnapshotAfterQueries) {
  NATIX_REQUIRE_OBS();
  obs::MetricsRegistry::Global().Reset();
  Fixture f = Load(kXdoc);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(f.db->QueryNodes("doc", "/xdoc/a/b").ok());
  }
  ASSERT_FALSE(f.db->QueryNodes("doc", "/xdoc/(((").ok());

  const obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  // One real compile: the other nine QueryNodes hit the plan cache. The
  // malformed query misses the cache, then fails in the parser.
  EXPECT_EQ(metrics.queries_compiled.value(), 1u);
  EXPECT_EQ(metrics.plan_cache_hits.value(), 9u);
  EXPECT_EQ(metrics.plan_cache_misses.value(), 2u);
  EXPECT_EQ(metrics.queries_executed.value(), 10u);
  EXPECT_EQ(metrics.compile_errors.value(), 1u);
  EXPECT_EQ(metrics.exec_ns.count(), 10u);
  EXPECT_GT(metrics.exec_ns.Percentile(0.50), 0u);
  EXPECT_GT(metrics.compile_ns.Percentile(0.99), 0u);

  std::string json = metrics.SnapshotJson();
  for (const char* key :
       {"\"compile_ns\"", "\"exec_ns\"", "\"pages_per_query\"",
        "\"tuples_per_query\"", "\"queries_compiled\":1",
        "\"queries_executed\":10", "\"compile_errors\":1",
        "\"plan_cache_hits\":9", "\"plan_cache_misses\":2"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  std::string text = metrics.RenderText();
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
}

TEST(SlowQueryLogTest, CapturesQueryTextAndAnalyzeTree) {
  NATIX_REQUIRE_OBS();
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  metrics.slow_log().set_threshold_ns(0);  // log everything

  Fixture f = Load(kDblp);
  const std::string query = "/dblp/article[position() = last()]/title";
  auto compiled = f.db->Compile(
      query, translate::TranslatorOptions::Improved(),
      /*collect_stats=*/true);
  ASSERT_TRUE(compiled.ok());
  ASSERT_TRUE((*compiled)->EvaluateNodes(f.root).ok());

  std::vector<obs::SlowQueryEntry> entries = metrics.slow_log().Dump();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].xpath, query);
  EXPECT_EQ(entries[0].sequence, 1u);
  EXPECT_NE(entries[0].analyze.find("UnnestMap"), std::string::npos);
  EXPECT_EQ(metrics.slow_queries.value(), 1u);

  std::string text = metrics.slow_log().RenderText();
  EXPECT_NE(text.find(query), std::string::npos);
  EXPECT_NE(text.find("UnnestMap"), std::string::npos);

  metrics.slow_log().set_threshold_ns(obs::SlowQueryLog::kDisabled);
}

TEST(SlowQueryLogTest, RingBufferBoundsRetention) {
  NATIX_REQUIRE_OBS();
  obs::SlowQueryLog log;
  log.set_threshold_ns(0);
  const size_t admitted = obs::SlowQueryLog::kDefaultCapacity + 10;
  for (size_t i = 0; i < admitted; ++i) {
    obs::SlowQueryEntry entry;
    entry.xpath = "/q" + std::to_string(i);
    entry.exec_ns = i;
    log.Record(std::move(entry));
  }
  EXPECT_EQ(log.total_logged(), admitted);
  std::vector<obs::SlowQueryEntry> entries = log.Dump();
  ASSERT_EQ(entries.size(), obs::SlowQueryLog::kDefaultCapacity);
  // Oldest entries were evicted; retained entries stay in admission order.
  EXPECT_EQ(entries.front().xpath, "/q10");
  EXPECT_EQ(entries.back().xpath, "/q" + std::to_string(admitted - 1));
  EXPECT_EQ(entries.front().sequence, 11u);
}

TEST(SlowQueryLogTest, ThresholdFiltersFastQueries) {
  NATIX_REQUIRE_OBS();
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  // Nothing on this document takes an hour.
  metrics.slow_log().set_threshold_ns(uint64_t{3600} * 1000000000);
  Fixture f = Load(kXdoc);
  ASSERT_TRUE(f.db->QueryNodes("doc", "/xdoc/a").ok());
  EXPECT_EQ(metrics.slow_log().total_logged(), 0u);
  EXPECT_EQ(metrics.slow_queries.value(), 0u);
  metrics.slow_log().set_threshold_ns(obs::SlowQueryLog::kDisabled);
}

TEST(TraceJsonTest, EscapesDetailPayloads) {
  std::vector<obs::TraceEvent> events(1);
  events[0].name = "compile";
  events[0].detail = "//a[@id=\"x\\y\"]\nnext";
  events[0].start_ns = 1500;
  events[0].dur_ns = 2500;
  events[0].tid = 3;
  std::string json = obs::TraceEventsToJson(events);
  EXPECT_NE(json.find("\\\"x\\\\y\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
}

}  // namespace
}  // namespace natix
