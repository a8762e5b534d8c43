// Tests for the logical plan simplifier: the duplicate-freeness analysis
// and the rewrites it licenses. Correctness under the rewrites is also
// covered end-to-end by conformance_test/fuzz_conformance_test (the
// improved translation runs with simplification on).

#include "algebra/rewriter.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "analysis/plan_verifier.h"
#include "api/database.h"
#include "dom/dom_builder.h"
#include "interp/evaluator.h"
#include "translate/translator.h"
#include "xpath/fold.h"
#include "xpath/normalizer.h"
#include "xpath/parser.h"
#include "xpath/sema.h"

namespace natix::algebra {
namespace {

translate::TranslationResult TranslateNoSimplify(const std::string& query) {
  auto ast = xpath::ParseXPath(query);
  NATIX_CHECK(ast.ok());
  NATIX_CHECK(xpath::Analyze(ast->get()).ok());
  xpath::FoldConstants(ast->get());
  xpath::Normalize(ast->get());
  translate::TranslatorOptions options;  // improved
  options.simplify_plan = false;
  auto result = translate::Translate(**ast, options);
  NATIX_CHECK(result.ok());
  return std::move(result.value());
}

size_t CountKind(const Operator& op, OpKind kind) {
  size_t n = op.kind == kind ? 1 : 0;
  for (const OpPtr& child : op.children) n += CountKind(*child, kind);
  return n;
}

TEST(RewriterTest, ChildStepAfterDedupIsDuplicateFree) {
  auto result = TranslateNoSimplify("//a/b");
  // Before: dedup after the ppd // step AND a final dedup.
  EXPECT_EQ(CountKind(*result.plan, OpKind::kDupElim), 2u);
  RewriteLog log;
  size_t removed = SimplifyPlan(&result.plan, result.result_attr, &log);
  // Both are provably redundant: descendant-or-self expands the
  // non-nested document root (inherently duplicate-free), and the child
  // step runs over that deduplicated context.
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kDupElim), 0u);
  ASSERT_EQ(log.size(), 2u);
  for (const RewriteEvent& event : log) {
    EXPECT_EQ(event.rule, "drop-redundant-duplicate-elimination");
    EXPECT_FALSE(event.target.empty());
    EXPECT_NE(event.justification.find("dup-free"), std::string::npos);
  }
}

TEST(RewriterTest, DescendantOverNonNestedContextDedupIsRemoved) {
  auto result = TranslateNoSimplify("/a/descendant::b");
  EXPECT_EQ(CountKind(*result.plan, OpKind::kDupElim), 1u);
  size_t removed = SimplifyPlan(&result.plan, result.result_attr);
  // /a elements are siblings (children of the root), hence non-nested:
  // their descendant sets are disjoint, so the dedup is redundant.
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kDupElim), 0u);
}

TEST(RewriterTest, DescendantOverNestedContextDedupIsKept) {
  auto result = TranslateNoSimplify("//a/descendant::b");
  size_t before = CountKind(*result.plan, OpKind::kDupElim);
  SimplifyPlan(&result.plan, result.result_attr);
  // //a contexts can nest, so distinct contexts may share descendants:
  // the dedup after descendant::b must survive. It does as the staircase
  // step, which eliminates the duplicates by pruning nested contexts.
  EXPECT_EQ(CountKind(*result.plan, OpKind::kStaircaseStep), 1u);
  EXPECT_LT(CountKind(*result.plan, OpKind::kDupElim), before);
}

TEST(RewriterTest, UnionDedupIsKept) {
  auto result = TranslateNoSimplify("a | b");
  size_t before = CountKind(*result.plan, OpKind::kDupElim);
  SimplifyPlan(&result.plan, result.result_attr);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kDupElim), before);
  EXPECT_EQ(result.plan->kind, OpKind::kDupElim);
}

TEST(RewriterTest, PropertiesOfSingletonScan) {
  OpPtr scan = MakeOp(OpKind::kSingletonScan);
  SequenceProperties props = InferProperties(*scan);
  EXPECT_TRUE(props.singleton);
}

TEST(RewriterTest, ChildChainFromContextIsDuplicateFree) {
  auto result = TranslateNoSimplify("a/b/c");
  // Stacked pipeline over the free context attribute: everything stays
  // duplicate-free; there is no dedup to begin with.
  EXPECT_EQ(CountKind(*result.plan, OpKind::kDupElim), 0u);
  SequenceProperties props = InferProperties(*result.plan);
  EXPECT_FALSE(props.singleton);
  // Earlier steps' attributes repeat across the fan-out; only the last
  // step's output is duplicate-free.
  EXPECT_EQ(props.duplicate_free,
            std::set<std::string>{result.result_attr});
}

TEST(RewriterTest, ParentStepBreaksDistinctness) {
  auto result = TranslateNoSimplify("a/parent::*/b");
  SequenceProperties props = InferProperties(*result.plan);
  // The final child step runs over a deduplicated parent context, so its
  // output is duplicate-free again.
  auto canonical_ast = TranslateNoSimplify("a/parent::*");
  SequenceProperties parent_props =
      InferProperties(*canonical_ast.plan->children[0]);
  // parent::* output before the dedup may contain duplicates.
  EXPECT_EQ(parent_props.duplicate_free.count(canonical_ast.result_attr),
            0u);
  (void)props;
}

TEST(RewriterTest, ConstantTrueSelectionFoldsAway) {
  // true() folds to a boolean literal, the predicate becomes sigma_true.
  auto result = TranslateNoSimplify("a[true()]");
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSelect), 1u);
  size_t removed = SimplifyPlan(&result.plan, result.result_attr);
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSelect), 0u);
}

TEST(RewriterTest, SortOnOrderedInputIsRemoved) {
  // A child chain from the (singleton) context is already in document
  // order: the positional filter expression needs no sort.
  auto result = TranslateNoSimplify("(/a/b/c)[2]");
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), 1u);
  size_t removed = SimplifyPlan(&result.plan, result.result_attr);
  EXPECT_GE(removed, 1u);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), 0u);
}

TEST(RewriterTest, SortOnDescendantsIsRemoved) {
  // /descendant::a from the root is emitted in document order.
  auto result = TranslateNoSimplify("(/descendant::a)[last()]");
  SimplifyPlan(&result.plan, result.result_attr);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), 0u);
}

TEST(RewriterTest, SortAfterChildOfNestedContextsIsKept) {
  // //a produces nested contexts; the following child step's output can
  // interleave, so the sort must stay.
  auto result = TranslateNoSimplify("(//a/b)[1]");
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), 1u);
  SimplifyPlan(&result.plan, result.result_attr);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), 1u);
}

TEST(RewriterTest, SortAfterUnionIsKept) {
  auto result = TranslateNoSimplify("(/a/b | /a/c)[1]");
  SimplifyPlan(&result.plan, result.result_attr);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), 1u);
}

TEST(RewriterTest, SortAfterReverseAxisIsKept) {
  auto result = TranslateNoSimplify("(/a/b/ancestor::*)[1]");
  SimplifyPlan(&result.plan, result.result_attr);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), 1u);
}

TEST(RewriterTest, AttributeStepsKeepDocumentOrder) {
  auto result = TranslateNoSimplify("(/a/b/@x)[2]");
  SimplifyPlan(&result.plan, result.result_attr);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), 0u);
}

TEST(RewriterTest, SortAfterDescendantUnderFollowingSiblingIsKept) {
  // following-sibling over a many-node context emits per-context runs
  // that interleave, and distinct contexts share siblings: neither
  // order nor duplicate-freedom can be claimed, so both the dedup and
  // the sort must survive (the unsound-removal regression case). The
  // predicate keeps the per-context descendant step; without it the
  // staircase step takes its place and orders its own output
  // (StaircaseRuleTest.StaircaseStepOutputNeedsNoSort).
  auto result = TranslateNoSimplify(
      "(/a/b/following-sibling::*/descendant::c[@x])[1]");
  size_t sorts = CountKind(*result.plan, OpKind::kSort);
  ASSERT_GE(sorts, 1u);
  SimplifyPlan(&result.plan, result.result_attr);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), sorts);
  EXPECT_GE(CountKind(*result.plan, OpKind::kDupElim), 1u);
}

TEST(RewriterTest, ImprovedDefaultsSimplify) {
  // Through the public options, //a/b needs no dedup at all: the
  // descendant-or-self step expands the non-nested document root.
  auto ast = xpath::ParseXPath("//a/b");
  ASSERT_TRUE(ast.ok());
  ASSERT_TRUE(xpath::Analyze(ast->get()).ok());
  xpath::Normalize(ast->get());
  auto result =
      translate::Translate(**ast, translate::TranslatorOptions::Improved());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(CountKind(*result->plan, OpKind::kDupElim), 0u);
  // The applied rewrites are logged with their proving properties.
  EXPECT_EQ(result->rewrites.size(), 2u);
}

TEST(RewriterTest, CheckedSimplifyAcceptsItsOwnRewrites) {
  auto result = TranslateNoSimplify("(//a/b)[1]");
  RewriteLog log;
  auto removed = SimplifyPlanChecked(&result.plan, result.result_attr, &log);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_GE(*removed, 1u);
}

// ---------------------------------------------------------------------------
// staircase-step: DupElim over a ppd step becomes one set-at-a-time step.
// ---------------------------------------------------------------------------

/// Simplifies `query`'s improved translation with its result attribute
/// known (as Translate does), returning the rewrite log.
RewriteLog SimplifyWithResult(translate::TranslationResult* result) {
  RewriteLog log;
  SimplifyPlan(&result->plan, result->result_attr, &log);
  return log;
}

size_t CountRule(const RewriteLog& log, const std::string& rule) {
  size_t n = 0;
  for (const RewriteEvent& event : log) n += event.rule == rule ? 1 : 0;
  return n;
}

TEST(StaircaseRuleTest, FiresOnPaperFigures) {
  const struct {
    const char* query;
    size_t steps;
  } figures[] = {
      {"/child::xdoc/desc::*/anc::*/desc::*/@id", 2},     // Fig. 6
      {"/child::xdoc/desc::*/pre-sib::*/fol::*/@id", 1},  // Fig. 7
      {"/child::xdoc/desc::*/anc::*/anc::*/@id", 2},      // Fig. 8
      {"/child::xdoc/child::*/par::*/desc::*/@id", 1},    // Fig. 9
  };
  for (const auto& figure : figures) {
    auto result = TranslateNoSimplify(figure.query);
    // Only the simplifier creates staircase steps.
    EXPECT_EQ(CountKind(*result.plan, OpKind::kStaircaseStep), 0u);
    RewriteLog log = SimplifyWithResult(&result);
    EXPECT_EQ(CountRule(log, "staircase-step"), figure.steps)
        << figure.query;
    EXPECT_EQ(CountKind(*result.plan, OpKind::kStaircaseStep), figure.steps)
        << figure.query;
    // Sibling and parent steps keep their DupElim.
    const size_t kept = std::string(figure.query).find("pre-sib") !=
                                std::string::npos ||
                            std::string(figure.query).find("par::") !=
                                std::string::npos
                        ? 1
                        : 0;
    EXPECT_EQ(CountKind(*result.plan, OpKind::kDupElim), kept)
        << figure.query;
  }
}

TEST(StaircaseRuleTest, CheckedRewriteVerifies) {
  auto result =
      TranslateNoSimplify("/child::xdoc/desc::*/anc::*/desc::*/@id");
  RewriteLog log;
  auto removed = SimplifyPlanChecked(&result.plan, result.result_attr, &log);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(CountRule(log, "staircase-step"), 2u);
  // The justification names the input attributes it proved unread.
  for (const RewriteEvent& event : log) {
    if (event.rule != "staircase-step") continue;
    EXPECT_NE(event.justification.find("unread above"), std::string::npos);
  }
}

TEST(StaircaseRuleTest, StaircaseStepOutputNeedsNoSort) {
  // The descendant step over unordered, overlapping following-sibling
  // contexts becomes a staircase step, which sorts and prunes its
  // contexts and so emits document order: dedup and sort both go.
  auto result =
      TranslateNoSimplify("(/a/b/following-sibling::*/descendant::c)[1]");
  ASSERT_GE(CountKind(*result.plan, OpKind::kSort), 1u);
  RewriteLog log = SimplifyWithResult(&result);
  EXPECT_EQ(CountRule(log, "staircase-step"), 1u);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kStaircaseStep), 1u);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), 0u);
}

TEST(StaircaseRuleTest, PerContextOperatorsKeepThePerContextStep) {
  // A positional counter (reset per context) or a predicate between the
  // step and its DupElim needs the per-context step.
  for (const char* query :
       {"/a/b/following::c[1]", "/a/b/ancestor::*[2]",
        "/a/b/preceding::c[@x]", "//b/descendant::c[last()]"}) {
    auto result = TranslateNoSimplify(query);
    RewriteLog log = SimplifyWithResult(&result);
    EXPECT_EQ(CountRule(log, "staircase-step"), 0u) << query;
    EXPECT_GE(CountKind(*result.plan, OpKind::kDupElim), 1u) << query;
  }
}

/// DupElim[o](Υ[o := c/descendant::*](Υ[c := r/child::*](χ[r := root(cn)](□)))).
OpPtr DedupedDescendants() {
  OpPtr map = MakeOp(OpKind::kMap);
  map->attr = "r";
  map->scalar = MakeScalar(ScalarKind::kFunc);
  map->scalar->function = xpath::FunctionId::kRootInternal;
  ScalarPtr cn = MakeScalar(ScalarKind::kAttrRef);
  cn->name = "cn";
  map->scalar->children.push_back(std::move(cn));
  map->children.push_back(MakeOp(OpKind::kSingletonScan));
  OpPtr child = MakeOp(OpKind::kUnnestMap);
  child->attr = "c";
  child->ctx_attr = "r";
  child->axis = runtime::Axis::kChild;
  child->test.kind = xpath::AstNodeTest::Kind::kAnyName;
  child->children.push_back(std::move(map));
  OpPtr desc = MakeOp(OpKind::kUnnestMap);
  desc->attr = "o";
  desc->ctx_attr = "c";
  desc->axis = runtime::Axis::kAncestor;
  desc->test.kind = xpath::AstNodeTest::Kind::kAnyName;
  desc->children.push_back(std::move(child));
  OpPtr dedup = MakeOp(OpKind::kDupElim);
  dedup->attr = "o";
  dedup->children.push_back(std::move(desc));
  return dedup;
}

TEST(StaircaseRuleTest, FiresWhenOnlyTheStepOutputIsRead) {
  OpPtr plan = DedupedDescendants();
  SimplifyPlan(&plan, "o");
  EXPECT_EQ(plan->kind, OpKind::kStaircaseStep);
}

TEST(StaircaseRuleTest, ContextAttributeReadAboveBlocksTheRule) {
  // χ[k := c] above the DupElim reads the context attribute.
  OpPtr map = MakeOp(OpKind::kMap);
  map->attr = "k";
  map->scalar = MakeScalar(ScalarKind::kAttrRef);
  map->scalar->name = "c";
  map->children.push_back(DedupedDescendants());
  OpPtr plan = std::move(map);
  SimplifyPlan(&plan, "o");
  EXPECT_EQ(CountKind(*plan, OpKind::kStaircaseStep), 0u);
  EXPECT_EQ(CountKind(*plan, OpKind::kDupElim), 1u);

  // The caller reading an input attribute blocks it as well.
  OpPtr bare = DedupedDescendants();
  SimplifyPlan(&bare, "c");
  EXPECT_EQ(CountKind(*bare, OpKind::kStaircaseStep), 0u);
}

/// Differential check of the rule: every axis it covers, over context
/// streams that are unordered, nested, attributes (including the
/// -or-self steps that keep an attribute context) and text nodes, on a
/// document larger than its 16-page / 2-shard pool. Each query must
/// agree with the interpreter and with simplify_plan = false.
TEST(StaircaseRuleTest, AgreesWithInterpreterAndUnsimplifiedPlans) {
  const bool was_verifying = analysis::VerificationEnabled();
  analysis::SetVerificationEnabled(true);
  std::string xml;
  {
    const std::string text(1200, 'w');
    int id = 0;
    std::function<std::string(int)> element = [&](int depth) {
      const int my_id = id++;
      const char* name = my_id % 3 == 0 ? "a" : (my_id % 3 == 1 ? "b" : "c");
      std::string out = std::string("<") + name + " id=\"n" +
                        std::to_string(my_id) + "\"";
      if (my_id % 2 == 0) out += " x=\"" + std::to_string(my_id) + "\"";
      out += ">" + text;
      if (depth < 3) {
        for (int i = 0; i < 4; ++i) out += element(depth + 1);
      }
      return out + "</" + name + ">";
    };
    xml = element(0);
  }
  Database::Options options;
  options.buffer_pages = 16;
  options.buffer_shards = 2;
  auto db = Database::CreateTemp(options);
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("doc", xml);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto dom_doc = dom::ParseDocument(xml);
  ASSERT_TRUE(dom_doc.ok());

  auto run = [&](const std::string& query,
                 bool simplify) -> std::vector<uint64_t> {
    translate::TranslatorOptions topts;  // improved
    topts.simplify_plan = simplify;
    auto compiled = (*db)->Compile(query, topts);
    EXPECT_TRUE(compiled.ok()) << query << ": "
                               << compiled.status().ToString();
    if (!compiled.ok()) return {};
    auto nodes = (*compiled)->EvaluateNodes(info->root);
    EXPECT_TRUE(nodes.ok()) << query << ": " << nodes.status().ToString();
    std::vector<uint64_t> out;
    if (!nodes.ok()) return out;
    for (const storage::StoredNode& n : *nodes) {
      auto order = n.order();
      EXPECT_TRUE(order.ok());
      out.push_back(order.ok() ? *order : 0);
    }
    return out;
  };
  const char* contexts[] = {
      "/descendant::*",                      // nested, ordered
      "//b/preceding-sibling::*",            // unordered
      "//*[@x]/following-sibling::*/..",     // unordered, parents
      "//@x",                                // attributes, ordered
      "//c/preceding-sibling::*/@*",         // attributes, unordered
      "//text()",                            // text nodes
      "(//@id | //text() | //b)",            // mixed union
      "(//* | //@x)",                        // attributes in subtrees
  };
  const char* steps[] = {
      "descendant::node()", "descendant-or-self::node()",
      "descendant-or-self::*", "following::*", "preceding::node()",
      "ancestor::*", "ancestor-or-self::node()", "ancestor-or-self::b"};
  size_t staircase_plans = 0;
  for (const char* ctx : contexts) {
    for (const char* step : steps) {
      std::string query = std::string(ctx) + "/" + step;
      SCOPED_TRACE(query);
      auto compiled = (*db)->Compile(query);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      if ((*compiled)->ExplainProperties().find("StaircaseStep[") !=
          std::string::npos) {
        ++staircase_plans;
      }
      std::vector<uint64_t> rewritten = run(query, /*simplify=*/true);
      EXPECT_EQ(rewritten, run(query, /*simplify=*/false));
      auto oracle = interp::Evaluator::Run(dom_doc->get(), query,
                                           (*dom_doc)->root(),
                                           interp::EvaluatorOptions());
      ASSERT_TRUE(oracle.ok());
      std::vector<uint64_t> expected;
      for (const dom::Node* n : oracle->nodes) expected.push_back(n->order);
      EXPECT_EQ(rewritten, expected);
    }
  }
  // Every query runs a staircase step except the descendant(-or-self)
  // steps from pure attribute or text contexts, which are statically
  // empty or provably duplicate-free already.
  EXPECT_EQ(staircase_plans, std::size(contexts) * std::size(steps) - 8);
  EXPECT_GT((*db)->store()->buffer_manager()->eviction_count(), 0u);
  analysis::SetVerificationEnabled(was_verifying);
}

}  // namespace
}  // namespace natix::algebra
