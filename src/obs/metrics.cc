#include "obs/metrics.h"

#include "obs/lock_ledger.h"

#if !defined(NATIX_OBS_DISABLED)

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace natix::obs {

namespace {

void AppendHistogramJson(std::string* out, const char* name,
                         const LatencyHistogram& h) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                ",\"max\":%" PRIu64 ",\"p50\":%" PRIu64 ",\"p90\":%" PRIu64
                ",\"p99\":%" PRIu64 ",\"buckets\":[",
                name, h.count(), h.sum(), h.max(), h.Percentile(0.50),
                h.Percentile(0.90), h.Percentile(0.99));
  *out += buf;
  bool first = true;
  for (const auto& [bucket, count] : h.NonZeroBuckets()) {
    if (!first) *out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf), "[%d,%" PRIu64 "]", bucket, count);
    *out += buf;
  }
  *out += "]}";
}

void AppendHistogramText(std::string* out, const char* name,
                         const LatencyHistogram& h) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "  %-18s count=%-8" PRIu64 " p50=%-10" PRIu64
                " p90=%-10" PRIu64 " p99=%-10" PRIu64 " max=%" PRIu64 "\n",
                name, h.count(), h.Percentile(0.50), h.Percentile(0.90),
                h.Percentile(0.99), h.max());
  *out += buf;
}

}  // namespace

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void LatencyHistogram::Record(uint64_t value) {
  int bucket = value == 0 ? 0 : std::bit_width(value);
  buckets_[bucket >= kBuckets ? kBuckets - 1 : bucket].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t LatencyHistogram::BucketLowerBound(int b) {
  return b <= 0 ? 0 : uint64_t{1} << (b - 1);
}

uint64_t LatencyHistogram::BucketUpperBound(int b) {
  if (b <= 0) return 0;
  if (b >= 64) return ~uint64_t{0};
  return (uint64_t{1} << b) - 1;
}

uint64_t LatencyHistogram::Percentile(double q) const {
  // Snapshot the buckets once; concurrent Records make the answer
  // approximate, which is all a percentile over log buckets claims.
  uint64_t counts[kBuckets];
  uint64_t total = 0;
  for (int b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // The continuous rank q * total, interpolated linearly inside the
  // containing bucket — the estimator Prometheus's histogram_quantile()
  // applies to the same buckets, so the native p50/p90/p99 and the
  // scrape-side quantiles agree instead of collapsing to a bucket edge.
  const double rank = q * static_cast<double>(total);
  double cumulative = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (counts[b] == 0) continue;
    const double here = static_cast<double>(counts[b]);
    if (cumulative + here >= rank) {
      const uint64_t lower = BucketLowerBound(b);
      const uint64_t upper = BucketUpperBound(b);
      double fraction = (rank - cumulative) / here;
      if (fraction < 0) fraction = 0;
      // Clamped so the top bucket can't overshoot the observed max.
      uint64_t value =
          lower + static_cast<uint64_t>(
                      static_cast<double>(upper - lower) * fraction);
      return value > max() ? max() : value;
    }
    cumulative += here;
  }
  return max();
}

std::vector<std::pair<int, uint64_t>> LatencyHistogram::NonZeroBuckets()
    const {
  std::vector<std::pair<int, uint64_t>> out;
  for (int b = 0; b < kBuckets; ++b) {
    uint64_t count = buckets_[b].load(std::memory_order_relaxed);
    if (count > 0) out.emplace_back(b, count);
  }
  return out;
}

void LatencyHistogram::Reset() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

void SlowQueryLog::Record(SlowQueryEntry entry) {
  LedgeredMutexLock lock(mu_, LockClass::kSlowQueryLog);
  entry.sequence = total_.fetch_add(1, std::memory_order_relaxed) + 1;
  entries_.push_back(std::move(entry));
  while (entries_.size() > kDefaultCapacity) entries_.pop_front();
}

std::vector<SlowQueryEntry> SlowQueryLog::Dump() const {
  std::vector<SlowQueryEntry> out;
  {
    LedgeredMutexLock lock(mu_, LockClass::kSlowQueryLog);
    out.assign(entries_.begin(), entries_.end());
  }
  // Record appends under the same mutex, so the ring is already ordered;
  // the explicit sort makes the monotonic-order contract independent of
  // that implementation detail (and of future lock-free admission).
  std::sort(out.begin(), out.end(),
            [](const SlowQueryEntry& a, const SlowQueryEntry& b) {
              return a.sequence < b.sequence;
            });
  return out;
}

std::string SlowQueryLog::RenderText() const {
  std::vector<SlowQueryEntry> entries = Dump();
  std::string out;
  char buf[192];
  uint64_t threshold = threshold_ns();
  if (threshold == kDisabled) {
    out += "slow-query log: disabled (no threshold set)\n";
    return out;
  }
  std::snprintf(buf, sizeof(buf),
                "slow-query log: threshold=%.3fms, %" PRIu64
                " logged, %zu retained\n",
                static_cast<double>(threshold) / 1e6, total_logged(),
                entries.size());
  out += buf;
  for (const SlowQueryEntry& e : entries) {
    std::snprintf(buf, sizeof(buf),
                  "#%" PRIu64 " exec=%.3fms page_faults=%" PRIu64
                  " tuples=%" PRIu64 " query: ",
                  e.sequence, static_cast<double>(e.exec_ns) / 1e6,
                  e.page_faults, e.tuples);
    out += buf;
    out += e.xpath;
    out += "\n";
    if (!e.analyze.empty()) {
      // The EXPLAIN ANALYZE tree, indented under its entry.
      size_t start = 0;
      while (start < e.analyze.size()) {
        size_t end = e.analyze.find('\n', start);
        if (end == std::string::npos) end = e.analyze.size();
        out += "    ";
        out.append(e.analyze, start, end - start);
        out += "\n";
        start = end + 1;
      }
    }
  }
  return out;
}

void SlowQueryLog::Clear() {
  LedgeredMutexLock lock(mu_, LockClass::kSlowQueryLog);
  entries_.clear();
  total_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked
  return *registry;
}

std::string MetricsRegistry::SnapshotJson() const {
  std::string out = "{\"histograms\":{";
  AppendHistogramJson(&out, "compile_ns", compile_ns);
  out += ",";
  AppendHistogramJson(&out, "exec_ns", exec_ns);
  out += ",";
  AppendHistogramJson(&out, "pages_per_query", pages_per_query);
  out += ",";
  AppendHistogramJson(&out, "tuples_per_query", tuples_per_query);
  out += ",";
  AppendHistogramJson(&out, "queue_wait_ns", queue_wait_ns);
  out += "},\"counters\":{";
  char buf[768];
  std::snprintf(buf, sizeof(buf),
                "\"queries_compiled\":%" PRIu64
                ",\"queries_executed\":%" PRIu64
                ",\"compile_errors\":%" PRIu64 ",\"exec_errors\":%" PRIu64
                ",\"slow_queries\":%" PRIu64
                ",\"plan_cache_hits\":%" PRIu64
                ",\"plan_cache_misses\":%" PRIu64
                ",\"nvm_insns_retired\":%" PRIu64
                ",\"string_values\":%" PRIu64
                ",\"string_value_bytes\":%" PRIu64
                ",\"early_exits\":%" PRIu64
                ",\"deadline_exceeded\":%" PRIu64
                ",\"queries_cancelled\":%" PRIu64
                ",\"requests_rejected\":%" PRIu64
                ",\"http_requests\":%" PRIu64
                "},\"gauges\":{\"queue_depth\":%" PRId64
                ",\"requests_in_flight\":%" PRId64 "}}",
                queries_compiled.value(), queries_executed.value(),
                compile_errors.value(), exec_errors.value(),
                slow_queries.value(), plan_cache_hits.value(),
                plan_cache_misses.value(), nvm_insns_retired.value(),
                string_values.value(), string_value_bytes.value(),
                early_exits.value(), deadline_exceeded.value(),
                queries_cancelled.value(), requests_rejected.value(),
                http_requests.value(), queue_depth.value(),
                requests_in_flight.value());
  out += buf;
  return out;
}

std::string MetricsRegistry::RenderText() const {
  std::string out = "metrics (ns unless noted):\n";
  AppendHistogramText(&out, "compile_ns", compile_ns);
  AppendHistogramText(&out, "exec_ns", exec_ns);
  AppendHistogramText(&out, "pages_per_query", pages_per_query);
  AppendHistogramText(&out, "tuples_per_query", tuples_per_query);
  AppendHistogramText(&out, "queue_wait_ns", queue_wait_ns);
  char buf[768];
  std::snprintf(buf, sizeof(buf),
                "  counters: queries_compiled=%" PRIu64
                " queries_executed=%" PRIu64 " compile_errors=%" PRIu64
                " exec_errors=%" PRIu64 " slow_queries=%" PRIu64
                " plan_cache_hits=%" PRIu64 " plan_cache_misses=%" PRIu64
                " nvm_insns_retired=%" PRIu64 " string_values=%" PRIu64
                " string_value_bytes=%" PRIu64 " early_exits=%" PRIu64
                " deadline_exceeded=%" PRIu64 " queries_cancelled=%" PRIu64
                " requests_rejected=%" PRIu64 " http_requests=%" PRIu64
                "\n  gauges: queue_depth=%" PRId64
                " requests_in_flight=%" PRId64 "\n",
                queries_compiled.value(), queries_executed.value(),
                compile_errors.value(), exec_errors.value(),
                slow_queries.value(), plan_cache_hits.value(),
                plan_cache_misses.value(), nvm_insns_retired.value(),
                string_values.value(), string_value_bytes.value(),
                early_exits.value(), deadline_exceeded.value(),
                queries_cancelled.value(), requests_rejected.value(),
                http_requests.value(), queue_depth.value(),
                requests_in_flight.value());
  out += buf;
  return out;
}

void MetricsRegistry::Reset() {
  compile_ns.Reset();
  exec_ns.Reset();
  pages_per_query.Reset();
  tuples_per_query.Reset();
  queue_wait_ns.Reset();
  queries_compiled.Reset();
  queries_executed.Reset();
  compile_errors.Reset();
  exec_errors.Reset();
  slow_queries.Reset();
  plan_cache_hits.Reset();
  plan_cache_misses.Reset();
  nvm_insns_retired.Reset();
  string_values.Reset();
  string_value_bytes.Reset();
  early_exits.Reset();
  deadline_exceeded.Reset();
  queries_cancelled.Reset();
  requests_rejected.Reset();
  http_requests.Reset();
  queue_depth.Reset();
  requests_in_flight.Reset();
  slow_log_.Clear();
}

}  // namespace natix::obs

#else  // NATIX_OBS_DISABLED

// TraceEventsToJson lives in trace.cc and stays available; the metrics
// registry is header-only stubs in this configuration.

#endif  // NATIX_OBS_DISABLED
