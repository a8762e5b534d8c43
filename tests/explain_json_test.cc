// Goldens for the property-annotated EXPLAIN surfaces on the five paper
// benchmark query shapes (Figs. 6-10): the per-operator property tags of
// ExplainProperties() pin which claims the inference engine derives (and
// hence which DupElim/Sort operators the rewriter may remove), and
// ExplainJson() is checked for structure and content. These five goldens
// are the contract of the paper-query wins: Figs. 6-8 lose the dedup
// after the initial descendant step, the remaining ppd-step dedups of
// Figs. 6-9 become staircase steps, and the result streams of Figs. 6,
// 7, 9 and 10 are proven document-ordered so the API skips its final
// sort.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/database.h"

namespace natix {
namespace {

constexpr char kXdoc[] =
    "<xdoc id=\"d0\"><a id=\"n1\"><b id=\"n2\"/><c id=\"n3\"/></a>"
    "<a id=\"n4\"><b id=\"n5\"><c id=\"n6\"/></b></a></xdoc>";

constexpr char kDblp[] =
    "<dblp><article key=\"a1\"><author>A</author><title>T1</title>"
    "</article><article key=\"a2\"><author>B</author><author>C</author>"
    "<title>T2</title></article><inproceedings key=\"p1\">"
    "<title>T3</title></inproceedings></dblp>";

/// Keeps the database alive alongside the compiled query (the query
/// holds a raw store pointer).
struct Compiled {
  std::unique_ptr<Database> db;
  std::unique_ptr<CompiledQuery> query;
  CompiledQuery* operator->() const { return query.get(); }
};

Compiled CompileQuery(const std::string& xml, const std::string& query) {
  auto db = Database::CreateTemp();
  NATIX_CHECK(db.ok());
  auto info = (*db)->LoadDocument("doc", xml);
  NATIX_CHECK(info.ok());
  auto compiled = (*db)->Compile(query);
  NATIX_CHECK(compiled.ok());
  return Compiled{std::move(db.value()), std::move(compiled.value())};
}

TEST(ExplainPropertiesGoldenTest, Fig6Query1) {
  auto q = CompileQuery(kXdoc, "/child::xdoc/desc::*/anc::*/desc::*/@id");
  EXPECT_EQ(
      q->ExplainProperties(),
      R"(UnnestMap[c6 := c5/attribute::id]  {card:n, ord:doc(c6), dup-free(c6), non-nested(c6), class:attribute}
  StaircaseStep[c5 := {c4}/descendant::*]  {card:n, ord:doc(c5), dup-free(c5), class:element}
    StaircaseStep[c4 := {c3}/ancestor::*]  {card:n, dup-free(c4), class:element}
      UnnestMap[c3 := c2/descendant::*]  {card:n, ord:doc(c3), dup-free(c3), class:element}
        UnnestMap[c2 := c1/child::xdoc]  {card:<=1, ord:doc(c2), dup-free(c2), non-nested(c2), class:element}
          Map[c1 := root*(cn)]  {card:1, ord:doc(c1), dup-free(c1), non-nested(c1), class:root}
            SingletonScan  {card:1}
)");
  // The final staircase descendant step emits in document order: the
  // API skips the result sort.
  EXPECT_TRUE(q->ResultDocumentOrdered());
}

TEST(ExplainPropertiesGoldenTest, Fig7Query2) {
  auto q = CompileQuery(kXdoc, "/child::xdoc/desc::*/pre-sib::*/fol::*/@id");
  EXPECT_EQ(
      q->ExplainProperties(),
      R"(UnnestMap[c6 := c5/attribute::id]  {card:n, ord:doc(c6), dup-free(c6), non-nested(c6), class:attribute}
  StaircaseStep[c5 := {c4}/following::*]  {card:n, ord:doc(c5), dup-free(c5), class:element}
    DupElim[c4]  {card:n, dup-free(c4), class:element}
      UnnestMap[c4 := c3/preceding-sibling::*]  {card:n, class:element}
        UnnestMap[c3 := c2/descendant::*]  {card:n, ord:doc(c3), dup-free(c3), class:element}
          UnnestMap[c2 := c1/child::xdoc]  {card:<=1, ord:doc(c2), dup-free(c2), non-nested(c2), class:element}
            Map[c1 := root*(cn)]  {card:1, ord:doc(c1), dup-free(c1), non-nested(c1), class:root}
              SingletonScan  {card:1}
)");
}

TEST(ExplainPropertiesGoldenTest, Fig8Query3) {
  auto q = CompileQuery(kXdoc, "/child::xdoc/desc::*/anc::*/anc::*/@id");
  EXPECT_EQ(
      q->ExplainProperties(),
      R"(UnnestMap[c6 := c5/attribute::id]  {card:n, dup-free(c6), non-nested(c6), class:attribute}
  StaircaseStep[c5 := {c4}/ancestor::*]  {card:n, dup-free(c5), class:element}
    StaircaseStep[c4 := {c3}/ancestor::*]  {card:n, dup-free(c4), class:element}
      UnnestMap[c3 := c2/descendant::*]  {card:n, ord:doc(c3), dup-free(c3), class:element}
        UnnestMap[c2 := c1/child::xdoc]  {card:<=1, ord:doc(c2), dup-free(c2), non-nested(c2), class:element}
          Map[c1 := root*(cn)]  {card:1, ord:doc(c1), dup-free(c1), non-nested(c1), class:root}
            SingletonScan  {card:1}
)");
  // The descendant-step dedup is proven redundant; its removal is logged
  // with the proving property.
  bool found = false;
  for (const algebra::RewriteEvent& event : q->rewrites()) {
    if (event.rule != "drop-redundant-duplicate-elimination") continue;
    if (event.target != "DupElim[c3]") continue;
    found = true;
    EXPECT_NE(event.justification.find("dup-free(c3)"), std::string::npos);
  }
  EXPECT_TRUE(found);
}

TEST(ExplainPropertiesGoldenTest, Fig9Query4) {
  auto q = CompileQuery(kXdoc, "/child::xdoc/child::*/par::*/desc::*/@id");
  EXPECT_EQ(
      q->ExplainProperties(),
      R"(UnnestMap[c6 := c5/attribute::id]  {card:n, ord:doc(c6), dup-free(c6), non-nested(c6), class:attribute}
  StaircaseStep[c5 := {c4}/descendant::*]  {card:n, ord:doc(c5), dup-free(c5), class:element}
    DupElim[c4]  {card:n, dup-free(c4), class:element}
      UnnestMap[c4 := c3/parent::*]  {card:n, class:element}
        UnnestMap[c3 := c2/child::*]  {card:n, ord:doc(c3), dup-free(c3), non-nested(c3), class:element}
          UnnestMap[c2 := c1/child::xdoc]  {card:<=1, ord:doc(c2), dup-free(c2), non-nested(c2), class:element}
            Map[c1 := root*(cn)]  {card:1, ord:doc(c1), dup-free(c1), non-nested(c1), class:root}
              SingletonScan  {card:1}
)");
}

TEST(ExplainPropertiesGoldenTest, Fig10DblpPositional) {
  auto q = CompileQuery(kDblp, "/dblp/article[position() = last()]/title");
  EXPECT_EQ(
      q->ExplainProperties(),
      R"(UnnestMap[c6 := c3/child::title]  {card:n, ord:doc(c6), dup-free(c6), non-nested(c6), class:element}
  Select[(cp4 = cs5)]  {card:n}
    TmpCs[cs5; context c2]  {card:n, ord:grouped(cs5), non-nested(cs5), class:value}
      Counter[cp4, reset on c2]  {card:n, class:value}
        UnnestMap[c3 := c2/child::article]  {card:n, ord:doc(c3), dup-free(c3), non-nested(c3), class:element}
          UnnestMap[c2 := c1/child::dblp]  {card:<=1, ord:doc(c2), dup-free(c2), non-nested(c2), class:element}
            Map[c1 := root*(cn)]  {card:1, ord:doc(c1), dup-free(c1), non-nested(c1), class:root}
              SingletonScan  {card:1}
)");
  // The proven result order lets the API skip its final sort.
  EXPECT_TRUE(q->ResultDocumentOrdered());
}

/// Minimal well-formedness scan: balanced braces/brackets outside
/// strings, and strings properly terminated.
bool JsonBalanced(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

TEST(ExplainJsonGoldenTest, PaperQueriesEmitWellFormedJson) {
  const struct {
    const char* xml;
    const char* query;
  } cases[] = {
      {kXdoc, "/child::xdoc/desc::*/anc::*/desc::*/@id"},
      {kXdoc, "/child::xdoc/desc::*/pre-sib::*/fol::*/@id"},
      {kXdoc, "/child::xdoc/desc::*/anc::*/anc::*/@id"},
      {kXdoc, "/child::xdoc/child::*/par::*/desc::*/@id"},
      {kDblp, "/dblp/article[position() = last()]/title"},
  };
  for (const auto& c : cases) {
    auto q = CompileQuery(c.xml, c.query);
    const std::string& json = q->ExplainJson();
    EXPECT_TRUE(JsonBalanced(json)) << c.query;
    // Single line, trailing newline only.
    EXPECT_EQ(json.find('\n'), json.size() - 1) << c.query;
    EXPECT_NE(json.find("\"op\":\"UnnestMap\""), std::string::npos)
        << c.query;
    EXPECT_NE(json.find("\"cardinality\":"), std::string::npos) << c.query;
    EXPECT_NE(json.find("\"attrs\":{"), std::string::npos) << c.query;
  }
}

TEST(ExplainJsonGoldenTest, PaperQueriesCarrySegments) {
  // Every paper query's --explain-json carries the fusability
  // segmentation next to the plan, and Figs. 6-8 each keep a
  // multi-operator fusable segment (the navigation spine below the last
  // boundary — a DupElim, or a staircase step draining its context
  // set) — the NVM fusion compiler's work list. A staircase step over a
  // doc-ordered context stream streams, and stays on the spine.
  const struct {
    const char* xml;
    const char* query;
    const char* spine;  // first op of the multi-operator fusable segment
    const char* barrier;
  } cases[] = {
      {kXdoc, "/child::xdoc/desc::*/anc::*/desc::*/@id",
       "\"StaircaseStep[c4 := {c3}/ancestor::*]\",\"UnnestMap[c3 := "
       "c2/descendant::*]\"",
       "blocking: drains and sorts the context set"},
      {kXdoc, "/child::xdoc/desc::*/pre-sib::*/fol::*/@id",
       "\"UnnestMap[c4 := c3/preceding-sibling::*]\",\"UnnestMap[c3 := "
       "c2/descendant::*]\"",
       "stateful: duplicate seen-set"},
      {kXdoc, "/child::xdoc/desc::*/anc::*/anc::*/@id",
       "\"StaircaseStep[c4 := {c3}/ancestor::*]\",\"UnnestMap[c3 := "
       "c2/descendant::*]\"",
       "blocking: drains and sorts the context set"},
  };
  for (const auto& c : cases) {
    auto q = CompileQuery(c.xml, c.query);
    const std::string& json = q->ExplainJson();
    EXPECT_NE(json.find("\"segments\":[{"), std::string::npos) << c.query;
    EXPECT_NE(json.find("\"barrier\":\"" + std::string(c.barrier) + "\""),
              std::string::npos)
        << c.query;
    // The fusable spine stays one segment: consecutive ops in one array.
    EXPECT_NE(json.find(c.spine), std::string::npos) << c.query;
  }
}

TEST(ExplainSegmentsGoldenTest, Fig6Segments) {
  auto q = CompileQuery(kXdoc, "/child::xdoc/desc::*/anc::*/desc::*/@id");
  EXPECT_EQ(q->ExplainSegments(),
            R"(pipeline segments: 3 (2 fusable)
  segment 0 [fusable]
    UnnestMap[c6 := c5/attribute::id]
  segment 1 [boundary: blocking: drains and sorts the context set]
    StaircaseStep[c5 := {c4}/descendant::*]
  segment 2 [fusable]
    StaircaseStep[c4 := {c3}/ancestor::*]
    UnnestMap[c3 := c2/descendant::*]
    UnnestMap[c2 := c1/child::xdoc]
    Map[c1 := root*(cn)]
    SingletonScan
)");
}

TEST(ExplainSegmentsGoldenTest, Fig10DblpSegments) {
  auto q = CompileQuery(kDblp, "/dblp/article[position() = last()]/title");
  EXPECT_EQ(q->ExplainSegments(),
            R"(pipeline segments: 3 (2 fusable)
  segment 0 [fusable]
    UnnestMap[c6 := c3/child::title]
    Select[(cp4 = cs5)]
  segment 1 [boundary: materializes one context group (Tmp^cs spool)]
    TmpCs[cs5; context c2]
  segment 2 [fusable]
    Counter[cp4, reset on c2]
    UnnestMap[c3 := c2/child::article]
    UnnestMap[c2 := c1/child::dblp]
    Map[c1 := root*(cn)]
    SingletonScan
)");
}

TEST(ExplainJsonGoldenTest, Fig6JsonCarriesDescendantClaims) {
  auto q = CompileQuery(kXdoc, "/child::xdoc/desc::*/anc::*/desc::*/@id");
  const std::string& json = q->ExplainJson();
  // The descendant step's output claims order and duplicate-freedom…
  EXPECT_NE(
      json.find("\"c3\":{\"order\":\"doc\",\"duplicate_free\":true"),
      std::string::npos);
  // …and the summaries match the rendered plan.
  EXPECT_NE(json.find("\"summary\":\"UnnestMap[c3 := c2/descendant::*]\""),
            std::string::npos);
}

}  // namespace
}  // namespace natix
