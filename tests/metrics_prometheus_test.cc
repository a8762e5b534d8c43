// Satellite: pins the LatencyHistogram::Percentile estimator and its
// agreement with Prometheus's histogram_quantile() over the exposition
// rendering. The two must compute (near-)identical quantiles or
// dashboards and /statusz disagree about the same traffic.
//
// The exposition tests also pin the empty-boundary-bucket rule: every
// populated bucket is preceded by the `le` boundary just below it, so
// scrape-side interpolation spans the true bucket and not the gap back
// to the previous populated one.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/database.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"

namespace natix::obs {
namespace {

#if !defined(NATIX_OBS_DISABLED)

/// Reimplements promql histogram_quantile() over the exact bucket list
/// the renderer emits: (le, cumulative) pairs including the empty
/// boundary lines, linear interpolation between adjacent boundaries.
/// Kept independent of the production code on purpose — it is the
/// scrape-side contract, not a refactoring mirror.
double PromQuantile(const LatencyHistogram& h, double q) {
  struct Boundary {
    uint64_t le;
    uint64_t cumulative;
  };
  std::vector<Boundary> boundaries;
  uint64_t cumulative = 0;
  int last_emitted = -1;
  for (const auto& [bucket, count] : h.NonZeroBuckets()) {
    if (bucket > 0 && last_emitted != bucket - 1) {
      boundaries.push_back(
          {LatencyHistogram::BucketUpperBound(bucket - 1), cumulative});
    }
    cumulative += count;
    last_emitted = bucket;
    if (bucket >= LatencyHistogram::kBuckets - 1) continue;
    boundaries.push_back(
        {LatencyHistogram::BucketUpperBound(bucket), cumulative});
  }
  if (cumulative == 0) return 0;
  const double rank = q * static_cast<double>(cumulative);
  uint64_t previous_le = 0;
  uint64_t previous_cumulative = 0;
  for (const Boundary& boundary : boundaries) {
    if (static_cast<double>(boundary.cumulative) >= rank) {
      const double in_bucket =
          static_cast<double>(boundary.cumulative - previous_cumulative);
      const double fraction =
          in_bucket == 0
              ? 0
              : (rank - static_cast<double>(previous_cumulative)) /
                    in_bucket;
      return static_cast<double>(previous_le) +
             static_cast<double>(boundary.le - previous_le) * fraction;
    }
    previous_le = boundary.le;
    previous_cumulative = boundary.cumulative;
  }
  // Rank landed in +Inf: promql returns the highest finite boundary.
  return static_cast<double>(previous_le);
}

TEST(LatencyHistogramTest, PercentileInterpolatesInsideBucket) {
  LatencyHistogram h;
  for (uint64_t v = 0; v < 1024; ++v) h.Record(v);
  ASSERT_EQ(h.count(), 1024u);
  ASSERT_EQ(h.sum(), 1024u * 1023u / 2);
  ASSERT_EQ(h.max(), 1023u);

  // Continuous rank 512 lands exactly on the upper edge of bucket 9
  // ([256, 511], cumulative 512): fraction 1.0, no bucket-edge collapse.
  EXPECT_EQ(h.Percentile(0.50), 511u);
  // Rank 1013.76 in bucket 10 ([512, 1023], 512 wide): 512 + 0.98*511.
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 1012.0, 1.0);
  // q = 1 reaches the top of the last bucket, clamped to observed max.
  EXPECT_EQ(h.Percentile(1.0), 1023u);
}

TEST(LatencyHistogramTest, PercentileOfEmptyAndSingleton) {
  LatencyHistogram h;
  EXPECT_EQ(h.Percentile(0.5), 0u);
  h.Record(42);
  // One sample: every quantile is that sample (clamped to max).
  EXPECT_EQ(h.Percentile(0.5), 42u);
  EXPECT_EQ(h.Percentile(0.99), 42u);
}

TEST(LatencyHistogramTest, NativeAgreesWithPromQuantileUniform) {
  LatencyHistogram h;
  for (uint64_t v = 0; v < 1024; ++v) h.Record(v);
  for (double q : {0.50, 0.90, 0.99}) {
    // The renderer's `le` is the bucket's inclusive upper value, so the
    // scrape-side lower edge sits one below the native lower bound:
    // systematic disagreement is bounded by ~1 plus truncation.
    EXPECT_NEAR(static_cast<double>(h.Percentile(q)), PromQuantile(h, q),
                2.0)
        << "q=" << q;
  }
}

TEST(LatencyHistogramTest, NativeAgreesWithPromQuantileSkewed) {
  // A gap-heavy shape: a fast mode, a slow mode three decades away, and
  // one outlier. Without the empty boundary lines, promql would stretch
  // the p99 interpolation from le=127 up to le=8191.
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(100);
  for (int i = 0; i < 10; ++i) h.Record(5000);
  h.Record(1000000);
  for (double q : {0.50, 0.90, 0.99}) {
    const double native = static_cast<double>(h.Percentile(q));
    const double prom = PromQuantile(h, q);
    EXPECT_NEAR(native, prom, 2.0) << "q=" << q;
  }
}

TEST(PrometheusRenderTest, HistogramExpositionExactCounts) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(1);
  h.Record(3);
  h.Record(1000);
  std::string out;
  AppendPrometheusHistogram(&out, "t", "test histogram", h);

  EXPECT_NE(out.find("# HELP t test histogram\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE t histogram\n"), std::string::npos);
  // Populated buckets, cumulative.
  EXPECT_NE(out.find("t_bucket{le=\"0\"} 1\n"), std::string::npos) << out;
  EXPECT_NE(out.find("t_bucket{le=\"1\"} 2\n"), std::string::npos) << out;
  EXPECT_NE(out.find("t_bucket{le=\"3\"} 3\n"), std::string::npos) << out;
  // The empty boundary just below the 1000-bucket ([512, 1023]): still
  // cumulative 3, giving histogram_quantile its true lower edge.
  EXPECT_NE(out.find("t_bucket{le=\"511\"} 3\n"), std::string::npos)
      << out;
  EXPECT_NE(out.find("t_bucket{le=\"1023\"} 4\n"), std::string::npos)
      << out;
  EXPECT_NE(out.find("t_bucket{le=\"+Inf\"} 4\n"), std::string::npos)
      << out;
  // Exact, not bucket-approximated.
  EXPECT_NE(out.find("t_sum 1004\n"), std::string::npos) << out;
  EXPECT_NE(out.find("t_count 4\n"), std::string::npos) << out;
  // No boundary for buckets whose predecessor is populated.
  EXPECT_EQ(out.find("le=\"7\""), std::string::npos) << out;
}

TEST(PrometheusRenderTest, TopBucketFoldsIntoInf) {
  LatencyHistogram h;
  h.Record(~uint64_t{0});  // bucket 63: no finite upper bound
  std::string out;
  AppendPrometheusHistogram(&out, "t", "h", h);
  // Only the boundary below it and +Inf carry the count.
  EXPECT_NE(out.find("t_bucket{le=\"+Inf\"} 1\n"), std::string::npos)
      << out;
  EXPECT_EQ(out.find("le=\"18446744073709551615\""), std::string::npos)
      << out;
}

TEST(PrometheusRenderTest, CounterAndGaugeLines) {
  std::string out;
  AppendPrometheusCounter(&out, "natix_widgets_total", "widgets", 7);
  AppendPrometheusGauge(&out, "natix_depth", "depth", 3);
  EXPECT_NE(out.find("# TYPE natix_widgets_total counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("natix_widgets_total 7\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE natix_depth gauge\n"), std::string::npos);
  EXPECT_NE(out.find("natix_depth 3\n"), std::string::npos);
}

TEST(PrometheusRenderTest, RegistryRenderCoversContractInstruments) {
  const std::string out = RenderPrometheus(MetricsRegistry::Global());
  for (const char* needle :
       {"# TYPE natix_compile_ns histogram",
        "# TYPE natix_exec_ns histogram",
        "# TYPE natix_queue_wait_ns histogram",
        "# TYPE natix_queries_executed_total counter",
        "# TYPE natix_plan_cache_hits_total counter",
        "# TYPE natix_nvm_insns_retired_total counter",
        "# TYPE natix_string_values_total counter",
        "# TYPE natix_string_value_bytes_total counter",
        "# TYPE natix_early_exits_total counter",
        "# TYPE natix_deadline_exceeded_total counter",
        "# TYPE natix_requests_rejected_total counter",
        "# TYPE natix_queue_depth gauge",
        "# TYPE natix_requests_in_flight gauge"}) {
    EXPECT_NE(out.find(needle), std::string::npos) << needle;
  }
}

TEST(PrometheusRenderTest, StringValueCountersFollowExecutions) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument(
      "doc", "<r><a>x</a><a>y</a><a><b>x</b></a><a>xx</a></r>");
  ASSERT_TRUE(info.ok());
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const uint64_t values_before = metrics.string_values.value();
  const uint64_t bytes_before = metrics.string_value_bytes.value();

  // contains() builds every a's string-value: 4 strings, 5 bytes.
  auto query = (*db)->Compile("//a[contains(., 'x')]");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE((*query)->EvaluateNodes(info->root).ok());
  EXPECT_EQ(metrics.string_values.value() - values_before, 4u);
  EXPECT_EQ(metrics.string_value_bytes.value() - bytes_before, 5u);

  const std::string values = std::to_string(metrics.string_values.value());
  const std::string bytes =
      std::to_string(metrics.string_value_bytes.value());
  const std::string prom = RenderPrometheus(metrics);
  EXPECT_NE(prom.find("\nnatix_string_values_total " + values + "\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("\nnatix_string_value_bytes_total " + bytes + "\n"),
            std::string::npos)
      << prom;
  const std::string json = metrics.SnapshotJson();
  EXPECT_NE(json.find("\"string_values\":" + values + ","),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"string_value_bytes\":" + bytes + ","),
            std::string::npos)
      << json;
  const std::string text = metrics.RenderText();
  EXPECT_NE(text.find(" string_values=" + values + " "), std::string::npos)
      << text;
  EXPECT_NE(text.find(" string_value_bytes=" + bytes + " "),
            std::string::npos)
      << text;
}

#else  // NATIX_OBS_DISABLED

TEST(PrometheusRenderTest, DisabledConfigServesStub) {
  EXPECT_EQ(RenderPrometheus(MetricsRegistry::Global()),
            "{\"disabled\":true}");
  LatencyHistogram h;
  h.Record(5);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  std::string out;
  AppendPrometheusHistogram(&out, "t", "h", h);
  EXPECT_TRUE(out.empty());
}

#endif  // NATIX_OBS_DISABLED

}  // namespace
}  // namespace natix::obs
