// compile-mix: every op prepares a generated XPath text whose plan is
// not cached (a plan-cache miss that also evicts) and executes it once
// on a small document, so the compiler pipeline dominates.

#include <deque>
#include <functional>
#include <random>
#include <unordered_set>

#include "workloads.h"

namespace natixbench {

namespace {

constexpr int kDocElements = 150;
constexpr size_t kWarmupTexts = 200;
// The document takes a handful of pages. A small pool keeps idle frames
// out of rss_mb, which then tracks the plans and the plan cache.
constexpr size_t kBufferPages = 64;

/// A seeded document of exactly kDocElements elements named a-d with
/// unique @id, optional @x / @n attributes and short text children.
std::string CompileMixDocument(uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0xd0c5ull);
  auto pick = [&rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  const char* names[] = {"a", "b", "c", "d"};
  // Breadth-first shape: each element gets 0-5 children until the
  // element budget is spent.
  struct Element {
    int name;
    std::vector<int> children;
  };
  std::vector<Element> elements = {{0, {}}};
  for (size_t parent = 0;
       parent < elements.size() &&
       static_cast<int>(elements.size()) < kDocElements;
       ++parent) {
    const int children = parent == 0 ? 5 : pick(6);
    for (int c = 0; c < children &&
                    static_cast<int>(elements.size()) < kDocElements;
         ++c) {
      elements[parent].children.push_back(static_cast<int>(elements.size()));
      elements.push_back({pick(4), {}});
    }
  }
  std::string out;
  std::function<void(int)> emit = [&](int e) {
    const char* name = names[elements[e].name];
    out += '<';
    out += name;
    out += " id='n" + std::to_string(e) + "'";
    if (pick(3) != 0) out += " x='" + std::to_string(pick(4)) + "'";
    if (pick(2) == 0) out += " n='" + std::to_string(pick(20)) + "'";
    out += '>';
    if (pick(3) == 0) out += "w" + std::to_string(pick(10));
    for (int child : elements[e].children) {
      emit(child);
      if (pick(4) == 0) out += " t" + std::to_string(pick(10)) + " ";
    }
    out += "</";
    out += name;
    out += '>';
  };
  emit(0);
  return out;
}

/// Generates XPath 1.0 texts over CompileMixDocument's vocabulary: all
/// axes, positional / value / existential predicates, unions,
/// arithmetic and the core function library.
class QueryGenerator {
 public:
  explicit QueryGenerator(uint64_t seed) : rng_(seed) {}

  std::string Next() {
    // At most one following/preceding axis per text, never straight
    // after a '//': nested or unanchored they turn into quadratic and
    // cubic work, and execution instead of compilation would dominate.
    quadratic_axes_left_ = 1;
    switch (Int(14)) {
      case 0:
        return "count(" + Path(3) + ")";
      case 1:
        return "sum(" + Path(2) + "/@n)";
      case 2:
        return "count(" + Path(2) + ") " + Pick({"+", "-", "*"}) + " " +
               "count(" + Path(2) + ")";
      case 3:
        return "sum(" + Path(2) + "/@n) " + Pick({"div", "mod"}) + " " +
               std::to_string(1 + Int(5));
      case 4:
        return StringFunction("string(" + Path(2) + ")");
      case 5:
        return Pick({"boolean(", "not("}) + Path(3) + ")";
      case 6:
        return "(" + Path(2) + ")[" + std::to_string(1 + Int(4)) + "]";
      case 7:
        return "(" + Path(2) + ")[last()" + Pick({"", " - 1"}) + "]";
      case 8:
        return Path(2) + " | " + Path(2);
      case 9:
        return Path(2) + "/@n " + Comparison() + " " +
               std::to_string(Int(20));
      case 10:
        return Pick({"name(", "local-name("}) + Path(2) + ")";
      case 11:
        return "id('n" + std::to_string(Int(kDocElements)) + " n" +
               std::to_string(Int(kDocElements)) + "')" +
               (Int(2) == 0 ? "/" + Step(1, /*anchored=*/true)
                            : std::string());
      default:
        return Path(4);
    }
  }

 private:
  int Int(int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng_);
  }
  std::string Pick(std::initializer_list<const char*> options) {
    auto it = options.begin();
    std::advance(it, Int(static_cast<int>(options.size())));
    return *it;
  }

  std::string Comparison() { return Pick({"=", "!=", "<", "<=", ">", ">="}); }

  std::string Path(int max_steps) {
    std::string separator = Pick({"/", "//", "/a/"});
    std::string out;
    const int steps = 1 + Int(max_steps);
    for (int i = 0; i < steps; ++i) {
      if (i > 0) separator = Pick({"/", "/", "//"});
      out += separator;
      out += Step(0, /*anchored=*/i > 0 && separator == "/");
    }
    return out;
  }

  std::string RelativePath(int depth) {
    std::string out = Step(depth, /*anchored=*/true);
    if (Int(2) == 0) out += "/" + Step(depth, /*anchored=*/true);
    return out;
  }

  /// One location step; following/preceding axes only when `anchored`
  /// (the context is a single step away from a narrowed node set).
  std::string Step(int depth, bool anchored) {
    std::string out;
    const int kind = Int(20);
    if (kind == 0) {
      out = Pick({".", ".."});
    } else if (kind <= 2) {
      out = Pick({"@", "attribute::"}) + Pick({"id", "x", "n", "*"});
    } else {
      std::string axis =
          Pick({"child::", "descendant::", "descendant-or-self::",
                "parent::", "ancestor::", "ancestor-or-self::",
                "following::", "following-sibling::", "preceding::",
                "preceding-sibling::", "self::", "", "", ""});
      if (axis == "following::" || axis == "preceding::") {
        if (!anchored || quadratic_axes_left_ == 0) {
          axis = "following-sibling::";
        } else {
          --quadratic_axes_left_;
        }
      }
      out = axis + Pick({"a", "b", "c", "d", "*", "*", "node()", "text()"});
    }
    if (out != "." && out != ".." && depth < 2 && Int(5) < 2) {
      out += "[" + Predicate(depth + 1) + "]";
      if (Int(4) == 0) out += "[" + Predicate(depth + 1) + "]";
    }
    return out;
  }

  std::string StringFunction(const std::string& arg) {
    switch (Int(9)) {
      case 0:
        return "concat(" + arg + ", '-', " + arg + ")";
      case 1:
        return "string-length(" + arg + ")";
      case 2:
        return "normalize-space(" + arg + ")";
      case 3:
        return "translate(" + arg + ", 'wnt', 'WNT')";
      case 4:
        return "substring(" + arg + ", " + std::to_string(1 + Int(3)) +
               (Int(2) == 0 ? ", " + std::to_string(1 + Int(3)) : "") + ")";
      case 5:
        return "substring-before(" + arg + ", '" + std::to_string(Int(10)) +
               "')";
      case 6:
        return "substring-after(" + arg + ", 'w')";
      case 7:
        return Pick({"contains(", "starts-with("}) + arg + ", '" +
               Pick({"w", "t", "1", "n"}) + "')";
      default:
        return arg;
    }
  }

  std::string Predicate(int depth) {
    switch (Int(16)) {
      case 0:
        return std::to_string(1 + Int(3));
      case 1:
        return "position() " + Comparison() + " " + std::to_string(1 + Int(3));
      case 2:
        return "last()" + Pick({"", " - 1"});
      case 3:
        return "position() mod 2 = " + std::to_string(Int(2));
      case 4:
        return "@x = '" + std::to_string(Int(4)) + "'";
      case 5:
        return "@n " + Comparison() + " " + std::to_string(Int(20));
      case 6:
        return "@n * 2 " + Pick({"+ 1 >", "- 3 <"}) + " " +
               std::to_string(Int(30));
      case 7:
        return ". = '" + Pick({"w1", "w2", "w3", "t4"}) + "'";
      case 8:
        return "count(" + RelativePath(depth) + ") " + Comparison() + " " +
               std::to_string(Int(3));
      case 9:
        return RelativePath(depth);
      case 10:
        return "not(" + RelativePath(depth) + ")";
      case 11:
        return RelativePath(depth) + Pick({" and ", " or "}) + "@" +
               Pick({"x", "n"});
      case 12:
        return StringFunction(Pick({"@id", "string(.)", "name()"})) +
               Pick({"", " = 'n1'", " != ''"});
      case 13:
        return Pick({"floor(", "ceiling(", "round("}) + "@n div " +
               std::to_string(2 + Int(3)) + ") = " + std::to_string(Int(5));
      case 14:
        return Pick({"name() = 'a'", "local-name() = 'b'", "boolean(@x)",
                     "number(@n) = 3", "true()", "false() or @n"});
      default:
        return "@id " + Pick({"=", "!="}) + " 'n" +
               std::to_string(Int(kDocElements)) + "'";
    }
  }

  std::mt19937_64 rng_;
  int quadratic_axes_left_ = 1;
};

/// The timed texts: the generator's texts minus the warm-up texts and
/// minus any of the last `window` texts returned, so with `window` the
/// plan cache's capacity every Prepare of a returned text misses. The
/// sequence depends only on the seed, so a second instance replays it
/// for the oracle; nothing grows with the number of texts drawn.
class TimedTexts {
 public:
  TimedTexts(uint64_t seed, const std::unordered_set<std::string>* warmup,
             size_t window)
      : generator_(seed), warmup_(warmup), window_(window) {}

  std::string Next() {
    for (;;) {
      std::string text = generator_.Next();
      if (warmup_->count(text) != 0 || recent_set_.count(text) != 0) {
        continue;
      }
      recent_set_.insert(text);
      recent_.push_back(text);
      if (recent_.size() > window_) {
        recent_set_.erase(recent_.front());
        recent_.pop_front();
      }
      return text;
    }
  }

 private:
  QueryGenerator generator_;
  const std::unordered_set<std::string>* warmup_;
  const size_t window_;
  std::deque<std::string> recent_;
  std::unordered_set<std::string> recent_set_;
};

}  // namespace

RunResult RunCompileMix(const RunConfig& config) {
  RunResult result;
  const std::string db_path = config.out_path + ".natix";
  std::string xml;
  std::unique_ptr<natix::Database> db;
  natix::storage::NodeId root;
  std::vector<double> load_mb_per_s;
  // Distinct warm-up texts from their own generator; the timed texts
  // are drawn one per op (TimedTexts).
  std::vector<std::string> warmup_texts;
  std::unordered_set<std::string> warmup_set;
  QueryGenerator warmup(config.seed ^ 0xa11ull);
  while (warmup_texts.size() < kWarmupTexts) {
    std::string text = warmup.Next();
    if (warmup_set.insert(text).second) warmup_texts.push_back(text);
  }
  auto timed_setup = [&] {
    db.reset();
    const uint64_t begin = NowNs();
    xml = CompileMixDocument(config.seed);
    natix::Database::Options options;
    options.buffer_pages = kBufferPages;
    db = Unwrap(natix::Database::Create(db_path, options), "create database");
    const uint64_t load_begin = NowNs();
    root = Unwrap(db->LoadDocument("doc", xml), "load document").root;
    load_mb_per_s.push_back(
        static_cast<double>(xml.size()) / (1024.0 * 1024.0) /
        (static_cast<double>(NowNs() - load_begin) / 1e9));
    for (const std::string& text : warmup_texts) {
      auto prepared = Unwrap(db->Prepare(text), "warm-up prepare");
      auto execution = Unwrap(prepared->NewExecution(), "warm-up execution");
      natix::Status status;
      EvaluateForDigest(execution.get(), root,
                        prepared->result_type() ==
                            natix::xpath::ExprType::kNodeSet,
                        /*full=*/false, &status, nullptr);
      CheckOk(status, text.c_str());
    }
    result.setup_s.push_back(static_cast<double>(NowNs() - begin) / 1e9);
  };
  for (int i = 0; i < kSetupsBefore; ++i) timed_setup();

  const uint64_t root_order =
      Unwrap(natix::storage::StoredNode(db->store(), root).order(),
             "document order");
  Tracer tracer;
  CompileProbeSums compile_sums;
  QueryCounters counter_sum;
  uint64_t counted = 0;
  double stats_on_ms = 0;
  double stats_off_ms = 0;
  uint64_t step_tuples = 0;
  uint64_t nvm_insns = 0;

  const natix::storage::BufferManager* pool = db->store()->buffer_manager();
  const auto pool_before = pool->Snapshot();
  const uint64_t cache_hits = db->plan_cache().hit_count();
  const uint64_t cache_misses = db->plan_cache().miss_count();
  const size_t window = db->plan_cache().capacity();
  TimedTexts texts(config.seed, &warmup_set, window);
  const uint64_t start = NowNs();
  const uint64_t deadline =
      start + static_cast<uint64_t>(config.seconds * 1e9);
  for (uint64_t op_id = 0; NowNs() < deadline; ++op_id) {
    OpRecord op;
    const std::string text = texts.Next();
    op.traced = config.trace && op_id % 2 == 1;
    Tracer* tr = op.traced ? &tracer : nullptr;
    natix::Status status;
    natix::ExecutionStats stats;
    std::shared_ptr<const natix::PreparedQuery> prepared;
    std::unique_ptr<natix::PreparedQuery::Execution> execution;
    bool nodeset = false;
    std::vector<natix::storage::StoredNode> nodes;
    std::string rendering;
    const uint64_t begin = NowNs();
    {
      ScopedSpan op_span(tr, "op", op_id);
      {
        ScopedSpan span(tr, "api.prepare", op_id);
        auto p = db->Prepare(text);
        status = p.status();
        if (p.ok()) prepared = std::move(p).value();
      }
      if (status.ok()) {
        ScopedSpan span(tr, "qe.instantiate", op_id);
        auto e = prepared->NewExecution();
        status = e.status();
        if (e.ok()) execution = std::move(e).value();
      }
      if (status.ok()) {
        ScopedSpan span(tr, "qe.exec", op_id);
        nodeset =
            prepared->result_type() == natix::xpath::ExprType::kNodeSet;
        if (nodeset) {
          auto n = execution->EvaluateNodes(root, /*document_order=*/true);
          status = n.status();
          if (n.ok()) nodes = std::move(n).value();
        } else {
          auto v = execution->EvaluateValue(root);
          status = v.status();
          if (v.ok()) rendering = RenderValue(*v);
        }
      }
    }
    const uint64_t end = NowNs();
    op.latency_ns = end - begin;
    op.end_ns = end - start;
    if (status.ok()) {
      if (nodeset) rendering = RenderNodes(nodes, root_order);
      op.digest = Fnv1a(rendering);
      stats = execution->last_stats();
      step_tuples += stats.step_tuples;
      nvm_insns += stats.nvm_insns;
    } else {
      op.status = OpStatus::kError;
      if (result.mismatch_notes.size() < 5) {
        result.mismatch_notes.push_back(text + ": " + status.ToString());
      }
    }
    if (op.traced && status.ok()) {
      // Probe after the op so it cannot warm the op's own caches.
      CompileProbe(text, db->store(), &tracer, op_id,
                   natix::translate::TranslatorOptions::Improved(),
                   &compile_sums);
      const QueryCounters c = StatsOnCounters(*prepared, root);
      counter_sum.next_calls += c.next_calls;
      counter_sum.spooled_rows += c.spooled_rows;
      counter_sum.memo_hits += c.memo_hits;
      counter_sum.early_exits += c.early_exits;
      ++counted;
      auto [on, off] = StatsOverhead(*prepared, root, /*pairs=*/1);
      stats_on_ms += on;
      stats_off_ms += off;
    }
    result.ops.push_back(op);
  }
  result.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  result.rss_kb = ProgramRssKb(result.ops.size() * sizeof(OpRecord));

  const uint64_t n = result.ops.size();
  const double per_op = n == 0 ? 1.0 : static_cast<double>(n);
  AddStorageDeltas(pool, pool_before, n, &result.layer);
  AddPlanCacheRatio(db->plan_cache(), cache_hits, cache_misses,
                    &result.layer);
  result.layer["qe.step_tuples"] = static_cast<double>(step_tuples) / per_op;
  result.layer["nvm.insns_retired"] = static_cast<double>(nvm_insns) / per_op;
  result.facts["doc_elements"] = kDocElements;
  result.facts["buffer_pages"] = kBufferPages;

  // Oracle: every op's text, replayed from the seed, through the
  // memoized interpreter.
  auto dom = Unwrap(natix::dom::ParseDocument(xml), "oracle DOM");
  TimedTexts replay(config.seed, &warmup_set, window);
  std::vector<double> interp_ms;
  for (const OpRecord& op : result.ops) {
    const std::string text = replay.Next();
    if (op.status != OpStatus::kOk) continue;
    const uint64_t begin = NowNs();
    const uint64_t expected = Fnv1a(OracleRendering(dom.get(), text));
    interp_ms.push_back(static_cast<double>(NowNs() - begin) / 1e6);
    if (op.digest == expected) continue;
    ++result.mismatches;
    if (result.mismatch_notes.size() < 5) {
      result.mismatch_notes.push_back(text);
    }
  }

  if (config.trace) {
    const double c = counted == 0 ? 1.0 : static_cast<double>(counted);
    result.layer["qe.next_calls"] = counter_sum.next_calls / c;
    result.layer["qe.spooled_rows"] = counter_sum.spooled_rows / c;
    result.layer["qe.memo_hits"] = counter_sum.memo_hits / c;
    result.layer["qe.early_exits"] = counter_sum.early_exits / c;
    AddCompileSums(compile_sums, &result.layer);
    result.layer["obs.stats_overhead_ratio"] =
        stats_off_ms > 0 ? stats_on_ms / stats_off_ms : 0;
    result.layer["interp.exec_ms"] = Median(std::move(interp_ms));
    WriteSpans(config.spans_path, {&tracer});
  }
  for (int i = 0; i < kSetupsAfter; ++i) timed_setup();
  result.layer["storage.load_mb_per_s"] = Median(load_mb_per_s);
  db.reset();
  std::remove(db_path.c_str());
  return result;
}

}  // namespace natixbench
