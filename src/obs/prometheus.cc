#include "obs/prometheus.h"

#if !defined(NATIX_OBS_DISABLED)

#include <cinttypes>
#include <cstdio>

#include "obs/lock_ledger.h"

namespace natix::obs {

namespace {

void AppendMeta(std::string* out, std::string_view name,
                std::string_view help, const char* type) {
  *out += "# HELP ";
  *out += name;
  *out += " ";
  *out += help;
  *out += "\n# TYPE ";
  *out += name;
  *out += " ";
  *out += type;
  *out += "\n";
}

}  // namespace

void AppendPrometheusCounter(std::string* out, std::string_view name,
                             std::string_view help, uint64_t value) {
  AppendMeta(out, name, help, "counter");
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", value);
  *out += name;
  *out += buf;
}

void AppendPrometheusGauge(std::string* out, std::string_view name,
                           std::string_view help, int64_t value) {
  AppendMeta(out, name, help, "gauge");
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %" PRId64 "\n", value);
  *out += name;
  *out += buf;
}

void AppendPrometheusHistogram(std::string* out, std::string_view name,
                               std::string_view help,
                               const LatencyHistogram& histogram) {
  AppendMeta(out, name, help, "histogram");
  char buf[96];
  // Cumulative counts over the non-empty log2 buckets; the `le` label is
  // the bucket's inclusive upper value bound. The top bucket (index 63)
  // has no finite bound and folds into `+Inf`. Each populated bucket is
  // preceded by the boundary just below it (even when that bucket is
  // empty): histogram_quantile() interpolates between adjacent rendered
  // `le` boundaries, so without the lower edge it would stretch the
  // interpolation back to the previous populated bucket and disagree
  // with the native Percentile() estimator.
  uint64_t cumulative = 0;
  int last_emitted = -1;
  for (const auto& [bucket, count] : histogram.NonZeroBuckets()) {
    if (bucket > 0 && last_emitted != bucket - 1) {
      std::snprintf(buf, sizeof(buf), "_bucket{le=\"%" PRIu64 "\"} %" PRIu64
                    "\n",
                    LatencyHistogram::BucketUpperBound(bucket - 1),
                    cumulative);
      *out += name;
      *out += buf;
    }
    cumulative += count;
    last_emitted = bucket;
    if (bucket >= LatencyHistogram::kBuckets - 1) continue;
    std::snprintf(buf, sizeof(buf), "_bucket{le=\"%" PRIu64 "\"} %" PRIu64
                  "\n",
                  LatencyHistogram::BucketUpperBound(bucket), cumulative);
    *out += name;
    *out += buf;
  }
  std::snprintf(buf, sizeof(buf), "_bucket{le=\"+Inf\"} %" PRIu64 "\n",
                cumulative);
  *out += name;
  *out += buf;
  std::snprintf(buf, sizeof(buf), "_sum %" PRIu64 "\n", histogram.sum());
  *out += name;
  *out += buf;
  std::snprintf(buf, sizeof(buf), "_count %" PRIu64 "\n",
                histogram.count());
  *out += name;
  *out += buf;
}

std::string RenderPrometheus(const MetricsRegistry& registry) {
  std::string out;
  out.reserve(4096);
  AppendPrometheusHistogram(&out, "natix_compile_ns",
                            "Query compile latency in nanoseconds",
                            registry.compile_ns);
  AppendPrometheusHistogram(&out, "natix_exec_ns",
                            "Query execution latency in nanoseconds",
                            registry.exec_ns);
  AppendPrometheusHistogram(&out, "natix_pages_per_query",
                            "Pages faulted per executed query",
                            registry.pages_per_query);
  AppendPrometheusHistogram(&out, "natix_tuples_per_query",
                            "Location-step tuples per executed query",
                            registry.tuples_per_query);
  AppendPrometheusHistogram(&out, "natix_queue_wait_ns",
                            "Admission-queue wait per request in "
                            "nanoseconds",
                            registry.queue_wait_ns);
  AppendPrometheusCounter(&out, "natix_queries_compiled_total",
                          "Queries compiled through the full pipeline",
                          registry.queries_compiled.value());
  AppendPrometheusCounter(&out, "natix_queries_executed_total",
                          "Query executions completed",
                          registry.queries_executed.value());
  AppendPrometheusCounter(&out, "natix_compile_errors_total",
                          "Compilations that failed",
                          registry.compile_errors.value());
  AppendPrometheusCounter(&out, "natix_exec_errors_total",
                          "Executions that failed",
                          registry.exec_errors.value());
  AppendPrometheusCounter(&out, "natix_slow_queries_total",
                          "Executions admitted to the slow-query log",
                          registry.slow_queries.value());
  AppendPrometheusCounter(&out, "natix_plan_cache_hits_total",
                          "Prepared-plan cache hits",
                          registry.plan_cache_hits.value());
  AppendPrometheusCounter(&out, "natix_plan_cache_misses_total",
                          "Prepared-plan cache misses",
                          registry.plan_cache_misses.value());
  AppendPrometheusCounter(&out, "natix_nvm_insns_retired_total",
                          "NVM bytecode instructions retired",
                          registry.nvm_insns_retired.value());
  AppendPrometheusCounter(&out, "natix_string_values_total",
                          "Node string-values materialized",
                          registry.string_values.value());
  AppendPrometheusCounter(&out, "natix_string_value_bytes_total",
                          "Bytes of materialized node string-values",
                          registry.string_value_bytes.value());
  AppendPrometheusCounter(&out, "natix_early_exits_total",
                          "Pipelines closed early by the Limit operator",
                          registry.early_exits.value());
  AppendPrometheusCounter(&out, "natix_deadline_exceeded_total",
                          "Executions aborted by an expired deadline",
                          registry.deadline_exceeded.value());
  AppendPrometheusCounter(&out, "natix_queries_cancelled_total",
                          "Executions aborted by cooperative "
                          "cancellation",
                          registry.queries_cancelled.value());
  AppendPrometheusCounter(&out, "natix_requests_rejected_total",
                          "Requests refused at admission control",
                          registry.requests_rejected.value());
  AppendPrometheusCounter(&out, "natix_http_requests_total",
                          "HTTP requests served by natixd",
                          registry.http_requests.value());
  AppendPrometheusGauge(&out, "natix_queue_depth",
                        "Requests waiting for an execution slot",
                        registry.queue_depth.value());
  AppendPrometheusGauge(&out, "natix_requests_in_flight",
                        "Requests currently executing",
                        registry.requests_in_flight.value());
  // Lock contention per ledger class (process-wide, like the registry).
  char buf[128];
  AppendMeta(&out, "natix_lock_wait_seconds_total",
             "Time acquisitions spent blocked on a held mutex, per lock "
             "class",
             "counter");
  for (int c = 0; c < kLockClassCount; ++c) {
    const LockClass cls = static_cast<LockClass>(c);
    std::snprintf(buf, sizeof(buf),
                  "natix_lock_wait_seconds_total{class=\"%s\"} %.9f\n",
                  LockClassName(cls),
                  static_cast<double>(LockLedger::Global().wait(cls).wait_ns) /
                      1e9);
    out += buf;
  }
  AppendMeta(&out, "natix_lock_contended_total",
             "Acquisitions that found the mutex held, per lock class",
             "counter");
  for (int c = 0; c < kLockClassCount; ++c) {
    const LockClass cls = static_cast<LockClass>(c);
    std::snprintf(buf, sizeof(buf),
                  "natix_lock_contended_total{class=\"%s\"} %" PRIu64 "\n",
                  LockClassName(cls), LockLedger::Global().wait(cls).contended);
    out += buf;
  }
  return out;
}

}  // namespace natix::obs

#else  // NATIX_OBS_DISABLED

// The renderer is header-only stubs in this configuration
// (obs/prometheus.h); nothing to compile.

#endif  // NATIX_OBS_DISABLED
