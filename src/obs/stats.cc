#include "obs/stats.h"

#include <cinttypes>
#include <cstdio>

#include "storage/buffer_manager.h"

namespace natix::obs {

namespace {

uint64_t Saturating(uint64_t total, uint64_t sub) {
  return total >= sub ? total - sub : 0;
}

void AppendCounter(std::string* out, const char* name, uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, name, value);
  *out += buf;
}

/// JSON string escaping for operator labels (quotes, backslashes,
/// control characters).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

BufferCounters CaptureBufferCounters(const storage::BufferManager* buffer) {
  BufferCounters out;
  if (buffer == nullptr) return out;
  out.page_reads = buffer->fault_count();
  out.page_hits = buffer->hit_count();
  out.page_writes = buffer->write_count();
  out.evictions = buffer->eviction_count();
  return out;
}

uint64_t OpStats::exclusive_ns() const {
  uint64_t child_ns = 0;
  for (const OpStats* c : children) child_ns += c->inclusive_ns;
  return Saturating(inclusive_ns, child_ns);
}

uint64_t OpStats::Exclusive(uint64_t OpStats::* field) const {
  uint64_t child = 0;
  for (const OpStats* c : children) child += c->*field;
  return Saturating(this->*field, child);
}

OpStats* QueryStats::NewOp(std::string label) {
  ops_.emplace_back();
  ops_.back().label = std::move(label);
  return &ops_.back();
}

StatsTotals QueryStats::ComputeTotals() const {
  StatsTotals totals;
  for (const OpStats& op : ops_) {
    totals.open_calls += op.open_calls;
    totals.next_calls += op.next_calls;
    totals.tuples += op.tuples;
    totals.memo_hits += op.memo_hits;
    totals.memo_misses += op.memo_misses;
    totals.spooled_rows += op.spooled_rows;
    totals.replayed_rows += op.replayed_rows;
    totals.cache_hits += op.cache_hits;
    totals.agg_evals += op.agg_evals;
    totals.agg_input += op.agg_input;
    totals.early_exits += op.early_exits;
  }
  return totals;
}

namespace {

void RenderNode(const OpStats& op, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  if (op.nested) *out += "nested ";
  *out += op.label;
  *out += " (";
  // Always-present generic counters (names are the stable contract).
  {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "open=%" PRIu64 " next=%" PRIu64 " tuples=%" PRIu64,
                  op.open_calls, op.next_calls, op.tuples);
    *out += buf;
    std::snprintf(buf, sizeof(buf), " exclusive_ms=%.3f",
                  static_cast<double>(op.exclusive_ns()) / 1e6);
    *out += buf;
  }
  AppendCounter(out, "page_reads", op.exclusive_page_reads());
  AppendCounter(out, "page_hits", op.exclusive_page_hits());
  // Family counters, printed only when the operator touched them.
  if (op.memo_hits + op.memo_misses > 0) {
    AppendCounter(out, "memo_hits", op.memo_hits);
    AppendCounter(out, "memo_misses", op.memo_misses);
  }
  if (op.spooled_rows > 0) AppendCounter(out, "spooled", op.spooled_rows);
  if (op.replayed_rows > 0) AppendCounter(out, "replayed", op.replayed_rows);
  if (op.groups > 0) AppendCounter(out, "groups", op.groups);
  if (op.cache_hits + op.cache_misses > 0) {
    AppendCounter(out, "cache_hits", op.cache_hits);
    AppendCounter(out, "cache_misses", op.cache_misses);
  }
  if (op.agg_evals > 0) {
    AppendCounter(out, "agg_evals", op.agg_evals);
    AppendCounter(out, "agg_input", op.agg_input);
  }
  if (op.early_exits > 0) AppendCounter(out, "early_exits", op.early_exits);
  if (op.exclusive_string_values() > 0) {
    AppendCounter(out, "string_values", op.exclusive_string_values());
    AppendCounter(out, "string_bytes", op.exclusive_string_bytes());
  }
  *out += ")\n";
  for (const OpStats* c : op.children) RenderNode(*c, depth + 1, out);
}

void JsonNode(const OpStats& op, std::string* out) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"label\":\"%s\",\"nested\":%s,\"open\":%" PRIu64
      ",\"next\":%" PRIu64 ",\"close\":%" PRIu64 ",\"tuples\":%" PRIu64
      ",\"inclusive_ns\":%" PRIu64 ",\"exclusive_ns\":%" PRIu64
      ",\"page_reads\":%" PRIu64 ",\"page_hits\":%" PRIu64
      ",\"memo_hits\":%" PRIu64 ",\"memo_misses\":%" PRIu64
      ",\"spooled\":%" PRIu64 ",\"replayed\":%" PRIu64 ",\"groups\":%" PRIu64
      ",\"cache_hits\":%" PRIu64 ",\"cache_misses\":%" PRIu64
      ",\"agg_evals\":%" PRIu64 ",\"agg_input\":%" PRIu64
      ",\"early_exits\":%" PRIu64 ",\"string_values\":%" PRIu64
      ",\"string_bytes\":%" PRIu64 ",\"children\":[",
      JsonEscape(op.label).c_str(), op.nested ? "true" : "false",
      op.open_calls, op.next_calls, op.close_calls, op.tuples,
      op.inclusive_ns, op.exclusive_ns(), op.exclusive_page_reads(),
      op.exclusive_page_hits(), op.memo_hits, op.memo_misses,
      op.spooled_rows, op.replayed_rows, op.groups, op.cache_hits,
      op.cache_misses, op.agg_evals, op.agg_input, op.early_exits,
      op.exclusive_string_values(), op.exclusive_string_bytes());
  *out += buf;
  for (size_t i = 0; i < op.children.size(); ++i) {
    if (i > 0) *out += ",";
    JsonNode(*op.children[i], out);
  }
  *out += "]}";
}

}  // namespace

std::string QueryStats::RenderAnalyze() const {
  std::string out;
  if (root_ == nullptr) {
    return "EXPLAIN ANALYZE unavailable (stats collection was off)\n";
  }
  RenderNode(*root_, 0, &out);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "buffer: page_reads=%" PRIu64 " page_hits=%" PRIu64
                " page_writes=%" PRIu64 " evictions=%" PRIu64 "\n",
                buffer_.page_reads, buffer_.page_hits, buffer_.page_writes,
                buffer_.evictions);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "strings: materializations=%" PRIu64 " bytes=%" PRIu64 "\n",
                strings_.materializations, strings_.bytes);
  out += buf;
  return out;
}

std::string QueryStats::ToJson() const {
  std::string out;
  char buf[280];
  std::snprintf(buf, sizeof(buf),
                "{\"executions\":%" PRIu64
                ",\"buffer\":{\"page_reads\":%" PRIu64
                ",\"page_hits\":%" PRIu64 ",\"page_writes\":%" PRIu64
                ",\"evictions\":%" PRIu64
                "},\"strings\":{\"materializations\":%" PRIu64
                ",\"bytes\":%" PRIu64 "},\"plan\":",
                executions_, buffer_.page_reads, buffer_.page_hits,
                buffer_.page_writes, buffer_.evictions,
                strings_.materializations, strings_.bytes);
  out += buf;
  if (root_ == nullptr) {
    out += "null";
  } else {
    JsonNode(*root_, &out);
  }
  out += "}";
  return out;
}

void QueryStats::Reset() {
  for (OpStats& op : ops_) {
    // Preserve identity (label, nesting, children, buffer source); zero
    // the counters.
    op.open_calls = op.next_calls = op.close_calls = 0;
    op.tuples = 0;
    op.inclusive_ns = 0;
    op.inclusive_page_reads = op.inclusive_page_hits = 0;
    op.inclusive_string_values = op.inclusive_string_bytes = 0;
    op.memo_hits = op.memo_misses = 0;
    op.spooled_rows = op.replayed_rows = op.groups = 0;
    op.cache_hits = op.cache_misses = 0;
    op.agg_evals = op.agg_input = op.early_exits = 0;
  }
  buffer_ = BufferCounters{};
  strings_ = storage::StringValueCounters{};
  executions_ = 0;
}

const OpStats* QueryStats::FindOp(const std::string& prefix) const {
  for (const OpStats& op : ops_) {
    if (op.label.rfind(prefix, 0) == 0) return &op;
  }
  return nullptr;
}

ScopedOpTimer::ScopedOpTimer(OpStats* stats)
    : stats_(stats),
      begin_(std::chrono::steady_clock::now()),
      buffer_begin_(storage::ThreadPageCounters()),
      strings_begin_(storage::ThreadStringValueCounters()) {}

ScopedOpTimer::~ScopedOpTimer() {
  auto end = std::chrono::steady_clock::now();
  stats_->inclusive_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin_)
          .count());
  const BufferCounters pages = storage::ThreadPageCounters() - buffer_begin_;
  stats_->inclusive_page_reads += pages.page_reads;
  stats_->inclusive_page_hits += pages.page_hits;
  storage::StringValueCounters strings =
      storage::ThreadStringValueCounters() - strings_begin_;
  stats_->inclusive_string_values += strings.materializations;
  stats_->inclusive_string_bytes += strings.bytes;
}

}  // namespace natix::obs
