// xdoc-axes and dblp-values: one client, closed loop, prepared path
// queries executed in seeded interleaved rounds.

#include <algorithm>
#include <functional>
#include <random>

#include "gen/dblp_generator.h"
#include "gen/xdoc_generator.h"
#include "workloads.h"

namespace natixbench {

namespace {

struct PathQuery {
  const char* tag;
  const char* doc;
  const char* xpath;
  /// Occurrences per round of the mix.
  int weight = 1;
};

struct DocSpec {
  const char* name;
  std::function<std::string()> generate;
};

struct PathSpec {
  std::vector<DocSpec> docs;
  std::vector<PathQuery> queries;
  natix::Database::Options db_options;
};


struct Loaded {
  std::unique_ptr<natix::Database> db;
  std::vector<natix::storage::NodeId> roots;  // per query
  std::vector<std::shared_ptr<const natix::PreparedQuery>> prepared;
  std::vector<bool> nodeset;  // per query
  double load_s = 0;
  double xml_mb = 0;
};

Loaded Setup(const PathSpec& spec, const std::string& db_path) {
  Loaded out;
  out.db = Unwrap(natix::Database::Create(db_path, spec.db_options),
                  "create database");
  for (const DocSpec& doc : spec.docs) {
    const std::string xml = doc.generate();
    const uint64_t begin = NowNs();
    Unwrap(out.db->LoadDocument(doc.name, xml), "load document");
    out.load_s += static_cast<double>(NowNs() - begin) / 1e9;
    out.xml_mb += static_cast<double>(xml.size()) / (1024.0 * 1024.0);
  }
  for (const PathQuery& q : spec.queries) {
    out.roots.push_back(Unwrap(out.db->Root(q.doc), "document root").id());
    out.prepared.push_back(Unwrap(out.db->Prepare(q.xpath), q.xpath));
    out.nodeset.push_back(out.prepared.back()->result_type() ==
                          natix::xpath::ExprType::kNodeSet);
  }
  // Warm-up: every query once, so lazy state and the pool settle.
  for (size_t i = 0; i < spec.queries.size(); ++i) {
    auto execution =
        Unwrap(out.prepared[i]->NewExecution(), "warm-up execution");
    natix::Status status;
    EvaluateForDigest(execution.get(), out.roots[i], out.nodeset[i], false,
                      &status, nullptr);
    CheckOk(status, spec.queries[i].xpath);
  }
  return out;
}

RunResult RunPath(const RunConfig& config, const PathSpec& spec) {
  RunResult result;
  const std::string db_path = config.out_path + ".natix";
  Loaded loaded;
  std::vector<double> load_mb_per_s;
  auto timed_setup = [&] {
    loaded = Loaded();  // drop the previous set-up's database first
    const uint64_t begin = NowNs();
    loaded = Setup(spec, db_path);
    result.setup_s.push_back(static_cast<double>(NowNs() - begin) / 1e9);
    load_mb_per_s.push_back(loaded.xml_mb / loaded.load_s);
  };
  for (int i = 0; i < kSetupsBefore; ++i) timed_setup();
  const size_t nq = spec.queries.size();
  natix::Database* db = loaded.db.get();
  std::mt19937_64 rng(config.seed);

  // Traced runs: one compile probe and the stats-on counters per query,
  // outside the timed ops.
  Tracer tracer;
  std::vector<QueryCounters> counters(nq);
  CompileProbeSums compile_sums;
  double stats_on_ms = 0;
  double stats_off_ms = 0;
  if (config.trace) {
    for (size_t q = 0; q < nq; ++q) {
      CompileProbe(spec.queries[q].xpath, db->store(), &tracer,
                   kProbeOpBase + q,
                   natix::translate::TranslatorOptions::Improved(),
                   &compile_sums);
      counters[q] = StatsOnCounters(*loaded.prepared[q], loaded.roots[q]);
      auto [on, off] =
          StatsOverhead(*loaded.prepared[q], loaded.roots[q], /*pairs=*/3);
      stats_on_ms += on;
      stats_off_ms += off;
    }
  }

  // Timed phase: rounds of a seeded permutation of the weighted query
  // table, so every seed runs the same mix in a different interleaving.
  const natix::storage::BufferManager* pool =
      db->store()->buffer_manager();
  const auto pool_before = pool->Snapshot();
  const uint64_t cache_hits = db->plan_cache().hit_count();
  const uint64_t cache_misses = db->plan_cache().miss_count();
  uint64_t step_tuples = 0;
  uint64_t nvm_insns = 0;
  std::vector<uint32_t> round;
  for (size_t q = 0; q < nq; ++q) {
    round.insert(round.end(), spec.queries[q].weight,
                 static_cast<uint32_t>(q));
  }
  const uint64_t start = NowNs();
  const uint64_t deadline =
      start + static_cast<uint64_t>(config.seconds * 1e9);
  uint64_t op_id = 0;
  while (NowNs() < deadline) {
    std::shuffle(round.begin(), round.end(), rng);
    for (uint32_t q : round) {
      const PathQuery& query = spec.queries[q];
      OpRecord op;
      op.query = q;
      op.traced = config.trace && op_id % 2 == 1;
      Tracer* tr = op.traced ? &tracer : nullptr;
      natix::Status status;
      natix::ExecutionStats stats;
      std::string rendering;
      const uint64_t begin = NowNs();
      {
        ScopedSpan op_span(tr, "op", op_id, query.tag);
        std::shared_ptr<const natix::PreparedQuery> prepared;
        {
          ScopedSpan span(tr, "api.prepare", op_id);
          prepared = Unwrap(db->Prepare(query.xpath), query.xpath);
        }
        std::unique_ptr<natix::PreparedQuery::Execution> execution;
        {
          ScopedSpan span(tr, "qe.instantiate", op_id);
          execution = Unwrap(prepared->NewExecution(), "new execution");
        }
        ScopedSpan span(tr, "qe.exec", op_id, query.tag);
        rendering = EvaluateForDigest(execution.get(), loaded.roots[q],
                                      loaded.nodeset[q], false, &status,
                                      &stats);
      }
      const uint64_t end = NowNs();
      op.latency_ns = end - begin;
      op.end_ns = end - start;
      op.status = status.ok() ? OpStatus::kOk : OpStatus::kError;
      op.digest = Fnv1a(rendering);
      step_tuples += stats.step_tuples;
      nvm_insns += stats.nvm_insns;
      result.ops.push_back(op);
      ++op_id;
    }
  }
  result.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  result.rss_kb = ProgramRssKb(result.ops.size() * sizeof(OpRecord));

  const uint64_t n = result.ops.size();
  AddStorageDeltas(pool, pool_before, n, &result.layer);
  AddPlanCacheRatio(db->plan_cache(), cache_hits, cache_misses,
                    &result.layer);
  result.layer["qe.step_tuples"] = static_cast<double>(step_tuples) / n;
  result.layer["nvm.insns_retired"] = static_cast<double>(nvm_insns) / n;
  result.facts["buffer_pages"] =
      static_cast<double>(spec.db_options.buffer_pages);
  result.facts["xml_mb"] = loaded.xml_mb;

  // Oracle: the memoized interpreter over the DOM, computed once per
  // query after the timed phase. Timed ops compare result counts (node
  // sets) or values; one extra evaluation per query compares the full
  // node list.
  std::vector<std::unique_ptr<natix::dom::Document>> doms;
  for (const DocSpec& doc : spec.docs) {
    doms.push_back(Unwrap(natix::dom::ParseDocument(doc.generate()),
                          "oracle DOM"));
  }
  auto dom_of = [&](const PathQuery& q) {
    for (size_t d = 0; d < spec.docs.size(); ++d) {
      if (std::string_view(spec.docs[d].name) == q.doc) return doms[d].get();
    }
    return static_cast<natix::dom::Document*>(nullptr);
  };
  std::vector<uint64_t> expected(nq);
  std::vector<std::string> labels(nq);
  for (size_t q = 0; q < nq; ++q) {
    const PathQuery& query = spec.queries[q];
    natix::interp::EvaluatorOptions options;
    auto oracle = Unwrap(natix::interp::Evaluator::Run(
                             dom_of(query), query.xpath,
                             dom_of(query)->root(), options),
                         "oracle");
    const std::string full = RenderOracle(oracle);
    expected[q] = Fnv1a(
        loaded.nodeset[q] ? "count: " + std::to_string(oracle.nodes.size())
                          : full);
    labels[q] = query.xpath;
    auto execution =
        Unwrap(loaded.prepared[q]->NewExecution(), "verify execution");
    natix::Status status;
    std::string actual =
        EvaluateForDigest(execution.get(), loaded.roots[q],
                          loaded.nodeset[q], /*full=*/true, &status, nullptr);
    if (!status.ok() || actual != full) {
      ++result.mismatches;
      result.mismatch_notes.push_back(std::string("full result of ") +
                                      query.xpath);
    }
  }
  CompareDigests(expected, labels, &result);

  if (config.trace) {
    AddOpWeightedCounters(counters, result.ops, &result.layer);
    AddCompileSums(compile_sums, &result.layer);
    result.layer["obs.stats_overhead_ratio"] =
        stats_off_ms > 0 ? stats_on_ms / stats_off_ms : 0;
    // Interpreter control timings, weighted by the mix like qe.exec_ms.
    std::vector<double> interp_ms(nq);
    for (size_t q = 0; q < nq; ++q) {
      const PathQuery& query = spec.queries[q];
      interp_ms[q] = InterpMedianMs(dom_of(query), query.xpath, 3);
      result.layer[std::string("interp.exec_ms.") + query.tag] =
          interp_ms[q];
    }
    std::vector<double> per_op;
    for (const OpRecord& op : result.ops) {
      per_op.push_back(interp_ms[op.query]);
    }
    result.layer["interp.exec_ms"] = Median(std::move(per_op));
    WriteSpans(config.spans_path, {&tracer});
  }
  for (int i = 0; i < kSetupsAfter; ++i) timed_setup();
  result.layer["storage.load_mb_per_s"] = Median(load_mb_per_s);
  loaded = Loaded();
  std::remove(db_path.c_str());
  return result;
}

}  // namespace

RunResult RunXdocAxes(const RunConfig& config) {
  PathSpec spec;
  // Fig. 6/8/9 run on the large document; the quadratic Fig. 7 query
  // on a small one (Sec. 6.2.1 generator: breadth first, fanout, depth).
  // Fig. 6 and Fig. 7 run twice per round, so Fig. 6 (the middle
  // timing) holds the middle third of the ops and the median falls in
  // the centre of its cluster. With four equally frequent queries the
  // median would sit on the boundary between two of them and jump
  // between their timings from run to run.
  spec.docs = {
      {"xdoc",
       [] {
         natix::gen::XDocOptions options;
         options.max_elements = 6000;
         options.fanout = 10;
         options.depth = 5;
         return natix::gen::GenerateXDoc(options);
       }},
      {"xdoc_small",
       [] {
         natix::gen::XDocOptions options;
         options.max_elements = 600;
         options.fanout = 6;
         options.depth = 5;
         return natix::gen::GenerateXDoc(options);
       }},
  };
  spec.queries = {
      {"fig6", "xdoc", "/child::xdoc/desc::*/anc::*/desc::*/@id", 2},
      {"fig7", "xdoc_small", "/child::xdoc/desc::*/pre-sib::*/fol::*/@id", 2},
      {"fig8", "xdoc", "/child::xdoc/desc::*/anc::*/anc::*/@id"},
      {"fig9", "xdoc", "/child::xdoc/child::*/par::*/desc::*/@id"},
  };
  return RunPath(config, spec);
}

RunResult RunDblpValues(const RunConfig& config) {
  PathSpec spec;
  const uint64_t seed = config.seed;
  spec.docs = {
      {"dblp",
       [seed] {
         natix::gen::DblpOptions options;
         options.publications = 5000;
         options.seed = static_cast<uint32_t>(seed);
         return natix::gen::GenerateDblp(options);
       }},
  };
  // Half the document's pages: every scan faults the whole document.
  spec.db_options.buffer_pages = 400;
  spec.queries = {
      {"scan_article_title", "dblp", "/dblp/article/title"},
      {"scan_any_title", "dblp", "/dblp/*/title"},
      {"pos3", "dblp", "/dblp/article[position() = 3]/title"},
      {"pos_lt100", "dblp", "/dblp/article[position() < 100]/title"},
      {"pos_last", "dblp", "/dblp/article[position() = last()]/title"},
      {"pos_last10", "dblp", "/dblp/article[position()=last()-10]/title"},
      {"union_titles", "dblp",
       "/dblp/article/title | /dblp/inproceedings/title"},
      {"count_author4", "dblp", "/dblp/article[count(author)=4]/@key"},
      {"year1991", "dblp", "/dblp/article[year='1991']/@key"},
      {"year1991_inproc", "dblp", "/dblp/inproceedings[year='1991']/@key"},
      {"author", "dblp", "/dblp/*[author='Guido Moerkotte']/@key"},
      {"key_lookup", "dblp",
       "/dblp/inproceedings[@key='conf/er/LockemannM91']/title"},
      {"author_last", "dblp",
       "/dblp/inproceedings[author='Guido Moerkotte'][position()=last()]"
       "/title"},
  };
  return RunPath(config, spec);
}

}  // namespace natixbench
