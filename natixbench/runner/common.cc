#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "base/xpath_number.h"
#include "qe/codegen.h"
#include "xpath/fold.h"
#include "xpath/normalizer.h"
#include "xpath/parser.h"
#include "xpath/sema.h"

namespace natixbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t ProgramRssKb(uint64_t log_bytes) {
  malloc_trim(0);
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      const uint64_t rss_kb = std::strtoull(line.c_str() + 6, nullptr, 10);
      return rss_kb - std::min(rss_kb, log_bytes / 1024);
    }
  }
  return 0;
}

void CheckOk(const natix::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "natixbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(3);
}

std::string RenderNodes(const std::vector<natix::storage::StoredNode>& nodes,
                        uint64_t base) {
  std::string out = "nodes:";
  for (const natix::storage::StoredNode& node : nodes) {
    natix::StatusOr<uint64_t> order = node.order();
    out += ' ';
    out += order.ok() ? std::to_string(*order - base) : std::string("?");
  }
  return out;
}

std::string RenderValue(const natix::runtime::Value& value) {
  switch (value.kind()) {
    case natix::runtime::ValueKind::kBoolean:
      return value.AsBoolean() ? "bool: true" : "bool: false";
    case natix::runtime::ValueKind::kNumber:
      return "num: " + natix::XPathNumberToString(value.AsNumber());
    default:
      return "str: " + value.AsString();
  }
}

std::string RenderOracle(const natix::interp::Object& object) {
  using Kind = natix::interp::Object::Kind;
  switch (object.kind) {
    case Kind::kNodeSet: {
      std::string out = "nodes:";
      for (const natix::dom::Node* node : object.nodes) {
        out += ' ';
        out += std::to_string(node->order);
      }
      return out;
    }
    case Kind::kBoolean:
      return object.boolean ? "bool: true" : "bool: false";
    case Kind::kNumber:
      return "num: " + natix::XPathNumberToString(object.number);
    case Kind::kString:
      return "str: " + object.string;
  }
  return "?";
}

std::string OracleString(const natix::interp::Object& object) {
  using Kind = natix::interp::Object::Kind;
  switch (object.kind) {
    case Kind::kNodeSet:
      return object.nodes.empty() ? std::string()
                                  : object.nodes.front()->StringValue();
    case Kind::kBoolean:
      return object.boolean ? "true" : "false";
    case Kind::kNumber:
      return natix::XPathNumberToString(object.number);
    case Kind::kString:
      return object.string;
  }
  return std::string();
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

int32_t Tracer::Begin(const char* name, const char* tag, uint64_t op) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const int32_t index = static_cast<int32_t>(spans_.size());
  spans_.push_back(Span{name, tag, op, parent, NowNs(), 0});
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

void WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "natixbench: cannot write %s\n", path.c_str());
    std::exit(3);
  }
  int64_t base = 0;
  for (const Tracer* tracer : tracers) {
    for (const Span& span : tracer->spans()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"tag\":\"%s\",\"op\":%llu,"
                   "\"parent\":%lld,\"t0\":%llu,\"t1\":%llu}\n",
                   span.name, JsonEscape(span.tag).c_str(),
                   static_cast<unsigned long long>(span.op),
                   static_cast<long long>(span.parent < 0
                                              ? -1
                                              : span.parent + base),
                   static_cast<unsigned long long>(span.begin_ns),
                   static_cast<unsigned long long>(span.end_ns));
    }
    base += static_cast<int64_t>(tracer->spans().size());
  }
  std::fclose(f);
}

namespace {

void AppendNumberArray(std::string* out, const char* key,
                       const std::vector<double>& values) {
  *out += '"';
  *out += key;
  *out += "\":[";
  char buf[40];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", values[i]);
    *out += buf;
  }
  *out += ']';
}

void AppendMap(std::string* out, const char* key,
               const std::map<std::string, double>& values) {
  *out += '"';
  *out += key;
  *out += "\":{";
  char buf[40];
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) *out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    *out += '"' + JsonEscape(name) + "\":" + buf;
  }
  *out += '}';
}

}  // namespace

void WriteRawResult(const RunConfig& config, const RunResult& result) {
  std::string out = "{";
  out += "\"workload\":\"" + JsonEscape(config.workload) + "\",";
  out += "\"seed\":" + std::to_string(config.seed) + ",";
  out += "\"trace\":" + std::string(config.trace ? "1" : "0") + ",";
#if defined(NATIX_OBS_DISABLED)
  out += "\"natix_obs\":\"OFF\",";
#else
  out += "\"natix_obs\":\"ON\",";
#endif
  AppendNumberArray(&out, "setup_s", result.setup_s);
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"wall_s\":%.9g", result.wall_s);
  out += buf;
  out += ",\"mismatches\":" + std::to_string(result.mismatches);
  out += ",\"rss_kb\":" + std::to_string(result.rss_kb);
  // Per-op columns.
  std::string lat = ",\"latency_ns\":[";
  std::string end = ",\"end_ns\":[";
  std::string status = ",\"status\":[";
  std::string traced = ",\"traced\":[";
  std::string query = ",\"query\":[";
  for (size_t i = 0; i < result.ops.size(); ++i) {
    const OpRecord& op = result.ops[i];
    const char* sep = i == 0 ? "" : ",";
    lat += sep + std::to_string(op.latency_ns);
    end += sep + std::to_string(op.end_ns);
    status += sep + std::to_string(static_cast<int>(op.status));
    traced += sep + std::string(op.traced ? "1" : "0");
    query += sep + std::to_string(op.query);
  }
  out += lat + "]" + end + "]" + status + "]" + traced + "]" + query + "],";
  AppendMap(&out, "layer", result.layer);
  out += ',';
  AppendMap(&out, "facts", result.facts);
  out += "}\n";
  std::FILE* f = std::fopen(config.out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "natixbench: cannot write %s\n",
                 config.out_path.c_str());
    std::exit(3);
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
}

void CompareDigests(const std::vector<uint64_t>& expected,
                    const std::vector<std::string>& labels,
                    RunResult* result) {
  for (const OpRecord& op : result->ops) {
    if (op.status != OpStatus::kOk) continue;
    if (op.digest == expected[op.query]) continue;
    ++result->mismatches;
    if (result->mismatch_notes.size() < 5) {
      result->mismatch_notes.push_back(labels[op.query]);
    }
  }
}

double HistogramDeltaPercentile(
    const std::vector<std::pair<int, uint64_t>>& before,
    const std::vector<std::pair<int, uint64_t>>& after, double q) {
  using natix::obs::LatencyHistogram;
  std::vector<uint64_t> delta(LatencyHistogram::kBuckets, 0);
  for (const auto& [bucket, count] : after) delta[bucket] += count;
  for (const auto& [bucket, count] : before) delta[bucket] -= count;
  uint64_t total = 0;
  for (uint64_t count : delta) total += count;
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total);
  double seen = 0;
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    if (delta[b] == 0) continue;
    if (seen + static_cast<double>(delta[b]) >= rank) {
      const double lo =
          static_cast<double>(LatencyHistogram::BucketLowerBound(b));
      const double hi =
          static_cast<double>(LatencyHistogram::BucketUpperBound(b));
      const double within = (rank - seen) / static_cast<double>(delta[b]);
      return lo + (hi - lo) * within;
    }
    seen += static_cast<double>(delta[b]);
  }
  return 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double InterpMedianMs(const natix::dom::Document* dom,
                      const std::string& query, int reps) {
  std::vector<double> ms;
  natix::interp::EvaluatorOptions options;  // memoized
  for (int i = 0; i < reps; ++i) {
    const uint64_t begin = NowNs();
    natix::StatusOr<natix::interp::Object> result =
        natix::interp::Evaluator::Run(dom, query, dom->root(), options);
    const uint64_t end = NowNs();
    CheckOk(result.status(), "interpreter control run");
    ms.push_back(static_cast<double>(end - begin) / 1e6);
  }
  return Median(std::move(ms));
}

std::string OracleRendering(const natix::dom::Document* dom,
                            const std::string& query) {
  natix::interp::EvaluatorOptions options;
  natix::StatusOr<natix::interp::Object> result =
      natix::interp::Evaluator::Run(dom, query, dom->root(), options);
  if (!result.ok()) return "error: " + result.status().ToString();
  return RenderOracle(*result);
}

void AddOpWeightedCounters(const std::vector<QueryCounters>& per_query,
                           const std::vector<OpRecord>& ops,
                           std::map<std::string, double>* layer) {
  QueryCounters sum;
  for (const OpRecord& op : ops) {
    const QueryCounters& c = per_query[op.query];
    sum.next_calls += c.next_calls;
    sum.spooled_rows += c.spooled_rows;
    sum.memo_hits += c.memo_hits;
    sum.early_exits += c.early_exits;
  }
  const double n = ops.empty() ? 1.0 : static_cast<double>(ops.size());
  (*layer)["qe.next_calls"] = sum.next_calls / n;
  (*layer)["qe.spooled_rows"] = sum.spooled_rows / n;
  (*layer)["qe.memo_hits"] = sum.memo_hits / n;
  (*layer)["qe.early_exits"] = sum.early_exits / n;
}

std::string EvaluateForDigest(natix::PreparedQuery::Execution* execution,
                              natix::storage::NodeId context, bool nodeset,
                              bool full, natix::Status* status,
                              natix::ExecutionStats* stats) {
  std::string rendering;
  if (nodeset) {
    auto nodes = execution->EvaluateNodes(context, /*document_order=*/true);
    if (!nodes.ok()) {
      *status = nodes.status();
      return rendering;
    }
    if (full) {
      const natix::storage::StoredNode root(
          execution->prepared().store(), context);
      natix::StatusOr<uint64_t> base = root.order();
      rendering = RenderNodes(*nodes, base.ok() ? *base : 0);
    } else {
      rendering = "count: " + std::to_string(nodes->size());
    }
  } else {
    auto value = execution->EvaluateValue(context);
    if (!value.ok()) {
      *status = value.status();
      return rendering;
    }
    rendering = RenderValue(*value);
  }
  *status = natix::Status::OK();
  if (stats != nullptr) *stats = execution->last_stats();
  return rendering;
}

QueryCounters StatsOnCounters(const natix::PreparedQuery& prepared,
                              natix::storage::NodeId context) {
  auto execution = Unwrap(prepared.NewExecution(/*collect_stats=*/true),
                          "stats-on execution");
  natix::Status status;
  EvaluateForDigest(execution.get(), context,
                    prepared.result_type() == natix::xpath::ExprType::kNodeSet,
                    /*full=*/false, &status, nullptr);
  CheckOk(status, "stats-on evaluation");
  QueryCounters out;
  if (const natix::obs::QueryStats* stats = execution->Stats()) {
    natix::obs::StatsTotals totals = stats->ComputeTotals();
    out.next_calls = static_cast<double>(totals.next_calls);
    out.spooled_rows = static_cast<double>(totals.spooled_rows);
    out.memo_hits = static_cast<double>(totals.memo_hits);
    out.early_exits = static_cast<double>(totals.early_exits);
  }
  return out;
}

std::pair<double, double> StatsOverhead(const natix::PreparedQuery& prepared,
                                        natix::storage::NodeId context,
                                        int pairs) {
  const bool nodeset =
      prepared.result_type() == natix::xpath::ExprType::kNodeSet;
  std::vector<double> on_ms;
  std::vector<double> off_ms;
  for (int i = 0; i < 2 * pairs; ++i) {
    // Alternate which side runs first so warm-cache effects cancel.
    const bool stats_on = (i % 2 == 0) == ((i / 2) % 2 == 0);
    auto execution =
        Unwrap(prepared.NewExecution(stats_on), "stats overhead execution");
    natix::Status status;
    const uint64_t begin = NowNs();
    EvaluateForDigest(execution.get(), context, nodeset, false, &status,
                      nullptr);
    const double ms = static_cast<double>(NowNs() - begin) / 1e6;
    CheckOk(status, "stats overhead evaluation");
    (stats_on ? on_ms : off_ms).push_back(ms);
  }
  return {Median(std::move(on_ms)), Median(std::move(off_ms))};
}

namespace {

uint64_t CountPlanOps(const natix::algebra::Operator& op);

uint64_t CountScalarOps(const natix::algebra::Scalar* scalar) {
  if (scalar == nullptr) return 0;
  uint64_t n = scalar->plan == nullptr ? 0 : CountPlanOps(*scalar->plan);
  for (const natix::algebra::ScalarPtr& child : scalar->children) {
    n += CountScalarOps(child.get());
  }
  return n;
}

/// Logical operators of a plan, counting those of nested subscript plans.
uint64_t CountPlanOps(const natix::algebra::Operator& op) {
  uint64_t n = 1 + CountScalarOps(op.scalar.get());
  for (const natix::algebra::OpPtr& child : op.children) {
    n += CountPlanOps(*child);
  }
  return n;
}

}  // namespace

void CompileProbe(const std::string& xpath,
                  const natix::storage::NodeStore* store, Tracer* tracer,
                  uint64_t op, const natix::translate::TranslatorOptions& opts,
                  CompileProbeSums* sums) {
  ScopedSpan probe(tracer, "compile", op);
  natix::xpath::ExprPtr ast;
  {
    ScopedSpan span(tracer, "xpath.parse", op);
    ast = Unwrap(natix::xpath::ParseXPath(xpath), "probe parse");
  }
  {
    ScopedSpan span(tracer, "xpath.sema", op);
    CheckOk(natix::xpath::Analyze(ast.get()), "probe analyze");
    natix::xpath::FoldConstants(ast.get());
    natix::xpath::Normalize(ast.get());
  }
  natix::translate::TranslationResult translation;
  {
    ScopedSpan span(tracer, "translate.translate", op);
    translation =
        Unwrap(natix::translate::Translate(*ast, opts), "probe translate");
  }
  sums->plan_ops += CountPlanOps(*translation.plan);
  sums->rewrites += translation.rewrites.size();
  std::unique_ptr<natix::qe::PlanTemplate> plan;
  {
    ScopedSpan span(tracer, "qe.codegen", op);
    plan = Unwrap(natix::qe::Codegen::Prepare(std::move(translation), store),
                  "probe codegen");
  }
  sums->static_insns += plan->nvm_insns_after();
  ++sums->compiles;
}

void AddCompileSums(const CompileProbeSums& sums,
                    std::map<std::string, double>* layer) {
  const double n = sums.compiles == 0 ? 1.0 : sums.compiles;
  (*layer)["translate.plan_ops"] = sums.plan_ops / n;
  (*layer)["translate.rewrites"] = sums.rewrites / n;
  (*layer)["nvm.static_insns"] = sums.static_insns / n;
}

void AddStorageDeltas(
    const natix::storage::BufferManager* pool,
    const natix::storage::BufferManager::CounterSnapshot& before,
    uint64_t ops, std::map<std::string, double>* layer) {
  const natix::storage::BufferManager::CounterSnapshot after =
      pool->Snapshot();
  const double n = ops == 0 ? 1.0 : static_cast<double>(ops);
  const double hits = static_cast<double>(after.hits - before.hits);
  const double faults = static_cast<double>(after.faults - before.faults);
  (*layer)["storage.page_hits"] = hits / n;
  (*layer)["storage.page_faults"] = faults / n;
  (*layer)["storage.evictions"] =
      static_cast<double>(after.evictions - before.evictions) / n;
  (*layer)["storage.hit_ratio"] =
      hits + faults == 0 ? 1.0 : hits / (hits + faults);
  size_t resident = 0;
  for (const auto& shard : pool->ShardSnapshots()) {
    resident += shard.resident_pages;
  }
  (*layer)["storage.resident_pages"] = static_cast<double>(resident);
}

void AddPlanCacheRatio(const natix::PlanCache& cache, uint64_t hits_before,
                       uint64_t misses_before,
                       std::map<std::string, double>* layer) {
  const double hits = static_cast<double>(cache.hit_count() - hits_before);
  const double misses =
      static_cast<double>(cache.miss_count() - misses_before);
  (*layer)["api.plan_cache_hit_ratio"] =
      hits + misses == 0 ? 0.0 : hits / (hits + misses);
}

}  // namespace natixbench
