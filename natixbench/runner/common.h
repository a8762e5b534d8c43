#ifndef NATIXBENCH_RUNNER_COMMON_H_
#define NATIXBENCH_RUNNER_COMMON_H_

// Shared pieces of the benchmark runner: the clock, result digests, the
// benchmark-side span tracer, per-op logs and the raw-result writer that
// run.py turns into metrics.

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/database.h"
#include "dom/dom_builder.h"
#include "interp/evaluator.h"
#include "obs/metrics.h"
#include "runtime/value.h"
#include "storage/stored_node.h"

namespace natixbench {

/// Steady-clock nanoseconds.
uint64_t NowNs();

/// 64-bit FNV-1a over `s`.
uint64_t Fnv1a(std::string_view s);

/// Resident set size of this process in KiB (/proc/self/status VmRSS),
/// read after the allocator has handed its free pages back
/// (malloc_trim), less `log_bytes`, the benchmark's own per-op logs.
/// So it counts the memory the program holds: not what glibc keeps after
/// a transient peak (one large result, plan-cache churn), which moved
/// compile-mix's reading by up to a fifth, and not the logs, which grow
/// with the op count. Called after the timed phase: a trim during it
/// would make the next ops fault their pages back in.
uint64_t ProgramRssKb(uint64_t log_bytes);

/// Aborts with `what` and the status message when `status` is not OK
/// (set-up failures are bugs in the benchmark or the program).
void CheckOk(const natix::Status& status, const char* what);

template <typename T>
T Unwrap(natix::StatusOr<T> value, const char* what) {
  CheckOk(value.status(), what);
  return std::move(value).value();
}

// -- result renderings: one canonical text per XPath result, shared by
// -- the engine side and the interpreter oracle so digests compare.

/// "nodes:" followed by the document-order rank of every node, relative
/// to the rank `base` of its document node (the store numbers documents
/// consecutively; the DOM numbers each from 0).
std::string RenderNodes(const std::vector<natix::storage::StoredNode>& nodes,
                        uint64_t base);
/// "bool: ...", "num: ..." or "str: ..." for a scalar engine result.
std::string RenderValue(const natix::runtime::Value& value);
/// The same rendering of an interpreter result.
std::string RenderOracle(const natix::interp::Object& object);

/// The XPath string() conversion of an interpreter result (what natixd
/// serializes for scalar queries).
std::string OracleString(const natix::interp::Object& object);

/// JSON string escaping as natixd applies it to result values.
std::string JsonEscape(std::string_view s);

// -- tracing: spans recorded around the benchmark's calls into each
// -- layer. One Tracer per thread; spans stay in memory until the run
// -- ends and are then written as JSON lines.

struct Span {
  const char* name;  ///< static string: the layer boundary
  const char* tag;   ///< static or query-table string; "" when untagged
  uint64_t op;       ///< the operation this span belongs to
  int32_t parent;    ///< index of the enclosing span in this tracer, -1
  uint64_t begin_ns;
  uint64_t end_ns;
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int32_t Begin(const char* name, const char* tag, uint64_t op);
  void End(int32_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null tracer records nothing (untraced ops).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op,
             const char* tag = "")
      : tracer_(tracer),
        index_(tracer == nullptr ? -1 : tracer->Begin(name, tag, op)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Writes the spans of all tracers to `path`, one JSON object per line
/// with parent indices rebased to the concatenated file.
void WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

/// Op ids of probe spans, which run outside the timed ops.
inline constexpr uint64_t kProbeOpBase = uint64_t{1} << 40;

// -- per-op log and the raw result ------------------------------------

enum class OpStatus : uint8_t { kOk = 0, kError = 1, kRejected = 2 };

struct OpRecord {
  uint64_t latency_ns = 0;
  /// Completion time since the start of the timed phase (run.py slices
  /// the run by it).
  uint64_t end_ns = 0;
  uint32_t query = 0;  ///< index into the workload's query table
  uint64_t digest = 0;
  OpStatus status = OpStatus::kOk;
  bool traced = false;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_path;
  std::string spans_path;
};

/// Everything a workload reports back; main.cc serializes it.
struct RunResult {
  std::vector<double> setup_s;
  double wall_s = 0;
  std::vector<OpRecord> ops;
  uint64_t mismatches = 0;
  /// Human-readable description of the first mismatches (stderr).
  std::vector<std::string> mismatch_notes;
  uint64_t rss_kb = 0;
  /// Per-layer values computed in the runner (counts, ratios, registry
  /// histogram deltas, interpreter control timings).
  std::map<std::string, double> layer;
  /// Per-workload facts stamped into the result (document sizes...).
  std::map<std::string, double> facts;
};

void WriteRawResult(const RunConfig& config, const RunResult& result);

/// Checks every op digest against the expected digest of its query and
/// records mismatches (statuses other than OK are counted by run.py).
void CompareDigests(const std::vector<uint64_t>& expected,
                    const std::vector<std::string>& labels,
                    RunResult* result);

/// Percentile (q in (0,1]) of the samples a LatencyHistogram gained
/// between two NonZeroBuckets() snapshots, interpolated inside the
/// containing log2 bucket like LatencyHistogram::Percentile.
double HistogramDeltaPercentile(
    const std::vector<std::pair<int, uint64_t>>& before,
    const std::vector<std::pair<int, uint64_t>>& after, double q);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Median wall time in ms of `reps` memoized-interpreter evaluations of
/// `query` from the document node (the control timings).
double InterpMedianMs(const natix::dom::Document* dom,
                      const std::string& query, int reps);

/// The memoized interpreter's rendering of `query` from the root.
std::string OracleRendering(const natix::dom::Document* dom,
                            const std::string& query);

/// Plan-wide counters of one stats-on execution (QueryStats totals).
struct QueryCounters {
  double next_calls = 0;
  double spooled_rows = 0;
  double memo_hits = 0;
  double early_exits = 0;
};
/// Writes the per-query counters into `layer` as the mean over `ops`
/// (each op contributes its query's counters).
void AddOpWeightedCounters(const std::vector<QueryCounters>& per_query,
                           const std::vector<OpRecord>& ops,
                           std::map<std::string, double>* layer);

/// Runs one stats-on execution of `prepared` from `context` and returns
/// the plan-wide counter totals.
QueryCounters StatsOnCounters(const natix::PreparedQuery& prepared,
                              natix::storage::NodeId context);

/// Times `pairs` stats-on and stats-off executions of `prepared`,
/// alternating which runs first; returns {median_on_ms, median_off_ms}.
std::pair<double, double> StatsOverhead(const natix::PreparedQuery& prepared,
                                        natix::storage::NodeId context,
                                        int pairs);

/// Evaluates `execution` from `context` (node sets in document order)
/// and returns the digest input: the count for node sets unless `full`,
/// the full rendering otherwise. Copies last_stats() into `stats` when
/// given.
std::string EvaluateForDigest(natix::PreparedQuery::Execution* execution,
                              natix::storage::NodeId context, bool nodeset,
                              bool full, natix::Status* status,
                              natix::ExecutionStats* stats);

/// The compile pipeline of Database::Prepare, re-run step by step under
/// spans (probe runs of the traced phase). Adds the plan's logical
/// operator count, rewrites and static NVM instructions to the sums.
struct CompileProbeSums {
  uint64_t compiles = 0;
  uint64_t plan_ops = 0;
  uint64_t rewrites = 0;
  uint64_t static_insns = 0;
};
void CompileProbe(const std::string& xpath,
                  const natix::storage::NodeStore* store, Tracer* tracer,
                  uint64_t op, const natix::translate::TranslatorOptions& opts,
                  CompileProbeSums* sums);
void AddCompileSums(const CompileProbeSums& sums,
                    std::map<std::string, double>* layer);

/// Buffer-pool counter deltas over a phase, written as per-op storage
/// metrics (page hits/faults/evictions per op, hit ratio, resident pages).
void AddStorageDeltas(const natix::storage::BufferManager* pool,
                      const natix::storage::BufferManager::CounterSnapshot&
                          before,
                      uint64_t ops, std::map<std::string, double>* layer);

/// Plan-cache hit ratio over a phase from two (hits, misses) readings.
void AddPlanCacheRatio(const natix::PlanCache& cache, uint64_t hits_before,
                       uint64_t misses_before,
                       std::map<std::string, double>* layer);

}  // namespace natixbench

#endif  // NATIXBENCH_RUNNER_COMMON_H_
