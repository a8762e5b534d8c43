// Grammar-based query fuzzing: random (but valid) XPath queries over
// random documents, cross-checked between the algebraic engine (both
// translations) and the interpreter oracle for every result kind
// (nodes, number, string, boolean). Complements the fixed corpus in
// conformance_test.cc with coverage of operator combinations nobody
// thought to write down.
//
// Two query sources feed the same oracle check: QueryGen stresses axes,
// positional predicates and nested paths; ScalarQueryGen stresses the
// NVM subscript programs (attribute-vs-literal compares in both
// orientations, constant arithmetic, string functions, concat of two
// node strings, chained conversions and short-circuit and/or), run with
// plan verification on so every emitted program also passes the Layer-3
// verifier.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <random>
#include <string>

#include "analysis/plan_verifier.h"
#include "api/database.h"
#include "base/xpath_number.h"
#include "dom/dom_builder.h"
#include "interp/evaluator.h"

namespace natix {
namespace {

/// NATIX_FUZZ_SEED offsets every generated seed, so one environment
/// variable re-rolls the whole suite (default 0: the fixed CI corpus).
/// The trace below prints the effective seed of a failing run.
uint32_t BaseSeed() {
  const char* env = std::getenv("NATIX_FUZZ_SEED");
  return env == nullptr
             ? 0u
             : static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
}

class QueryGen {
 public:
  explicit QueryGen(uint32_t seed) : rng_(seed) {}

  std::string Path(int max_steps) {
    std::string out = Pick({"/", "", "//"});
    int steps = 1 + Int(max_steps);
    for (int i = 0; i < steps; ++i) {
      if (i > 0) out += Pick({"/", "//"});
      out += Step(/*depth=*/0);
    }
    return out;
  }

  std::string TopLevel() {
    switch (Int(8)) {
      case 0:
        return "count(" + Path(3) + ")";
      case 1:
        return "boolean(" + Path(3) + ")";
      case 2:
        return "string(" + Path(2) + ")";
      case 3:
        return "sum(" + Path(2) + "/@id)";
      case 4:
        // Filter expressions exercise Sort placement and its removal.
        return "(" + Path(2) + ")[" + std::to_string(1 + Int(4)) + "]";
      case 5:
        return "(" + Path(2) + ")[last()" + Pick({"", " - 1"}) + "]";
      default:
        return Path(4);
    }
  }

 private:
  int Int(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }
  std::string Pick(std::initializer_list<const char*> options) {
    auto it = options.begin();
    std::advance(it, Int(static_cast<int>(options.size())));
    return *it;
  }

  std::string Axis() {
    return Pick({"child::", "descendant::", "descendant-or-self::",
                 "parent::", "ancestor::", "ancestor-or-self::",
                 "following::", "following-sibling::", "preceding::",
                 "preceding-sibling::", "self::", "", ""});
  }

  std::string NodeTest() {
    return Pick({"a", "b", "c", "*", "node()", "text()"});
  }

  std::string Step(int depth) {
    std::string out;
    if (Int(10) == 0) {
      out = Pick({".", ".."});
    } else if (Int(12) == 0) {
      out = "@" + Pick({"id", "x", "*"});
    } else {
      out = Axis() + NodeTest();
    }
    // Predicates (not on abbreviated . / .. steps for readability).
    if (out != "." && out != ".." && depth < 2) {
      int predicates = Int(3) == 0 ? 1 + Int(2) : 0;
      for (int i = 0; i < predicates; ++i) {
        out += "[" + Predicate(depth + 1) + "]";
      }
    }
    return out;
  }

  std::string Predicate(int depth) {
    switch (Int(8)) {
      case 0:
        return std::to_string(1 + Int(3));
      case 1:
        return "position() " + Pick({"=", "<", ">", "<=", ">=", "!="}) +
               " " + std::to_string(1 + Int(3));
      case 2:
        return "last()" + Pick({"", " - 1"});
      case 3:
        return "@" + Pick({"id", "x"});
      case 4:
        return "@x " + Pick({"=", "!=", "<", ">"}) + " '" +
               std::to_string(Int(4)) + "'";
      case 5:
        return "count(" + RelativePath(depth) + ") " +
               Pick({">", "=", "<"}) + " " + std::to_string(Int(3));
      case 6:
        return RelativePath(depth);
      default:
        return Pick({"starts-with(@id, 'n1')", "contains(string(.), '1')",
                     "not(@id)", "string-length(string(@x)) = 1",
                     ". = ../*"});
    }
  }

  std::string RelativePath(int depth) {
    std::string out = Step(depth);
    if (Int(2) == 0) out += "/" + Step(depth);
    return out;
  }

  std::mt19937 rng_;
};

/// Scalar-heavy queries: subscripts dominated by compares, arithmetic,
/// string functions and conversions rather than by navigation.
class ScalarQueryGen {
 public:
  explicit ScalarQueryGen(uint32_t seed) : rng_(seed) {}

  std::string TopLevel() {
    switch (Int(8)) {
      case 0:
        return "count(" + Path() + ") + " + Scalar(1);
      case 1:
        return "string(" + Path() + ")";
      case 2:
        return Scalar(0);  // pure scalar: no path at all
      case 3:  // concat of two node strings: operand order is visible
        return "concat(" + NodeStr() + ", " + NodeStr() + ")";
      default:
        return Path();
    }
  }

 private:
  int Int(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }

  std::string Pick(std::initializer_list<const char*> options) {
    auto it = options.begin();
    std::advance(it, Int(static_cast<int>(options.size())));
    return *it;
  }

  std::string Attr() { return std::string("@") + Pick({"id", "x", "y"}); }

  std::string Literal() {
    if (Int(2) == 0) return "'" + std::to_string(Int(4)) + "'";
    return std::to_string(Int(4));
  }

  /// A scalar expression; depth limits the recursion.
  std::string Scalar(int depth) {
    if (depth >= 2) return Literal();
    switch (Int(10)) {
      case 0:
        return Scalar(depth + 1) + " + " + Scalar(depth + 1);
      case 1:
        return Scalar(depth + 1) + " * " + Scalar(depth + 1);
      case 2:
        return "string-length(" + Str() + ")";
      case 3:
        return "number(" + Scalar(depth + 1) + ")";
      case 4:
        return "floor(" + Scalar(depth + 1) + " div 2)";
      case 5:
        return "substring(" + Str() + ", 1 + 1, 2)";
      case 6:
        return "concat(" + Str() + ", 'z')";
      default:
        return Literal();
    }
  }

  /// The string-value of a non-root element or of an attribute.
  std::string NodeStr() {
    if (Int(2) == 0) return "string(" + Path() + ")";
    return "string(" + Path() + "/" + Attr() + ")";
  }

  std::string Str() {
    switch (Int(4)) {
      case 0:
        return "'hello'";
      case 1:
        return "string(" + Attr() + ")";
      default:
        return "'" + std::to_string(Int(100)) + "'";
    }
  }

  std::string Predicate() {
    std::string cmp = Pick({"=", "!=", "<", "<=", ">", ">="});
    switch (Int(10)) {
      case 0:  // attribute vs literal, both orientations: cmp_attr_const
      case 1:
        return Attr() + " " + cmp + " " + Literal();
      case 2:
        return Literal() + " " + cmp + " " + Attr();
      case 3:  // condition over constants only
        return Scalar(1) + " " + cmp + " " + Scalar(1);
      case 4:
        return "not(" + Attr() + " " + cmp + " " + Literal() + ")";
      case 5:  // short-circuit and/or around an attribute compare
        return Attr() + " " + cmp + " " + Literal() + " " +
               Pick({"and", "or"}) + " " + Scalar(1) + " " + cmp + " " +
               Literal();
      case 6:
        return "boolean(" + Attr() + ")";
      case 7:
        return "position() " + cmp + " " + std::to_string(1 + Int(3));
      case 8:  // concat of two attributes against a literal: the result
               // depends on operand order whenever both are non-empty
        if (Int(2) == 0) {
          return "starts-with(concat(string(" + Attr() + "), string(" +
                 Attr() + ")), " + Pick({"'n'", "'1'", "'2'"}) + ")";
        }
        return "concat(string(" + Attr() + "), string(" + Attr() + ")) = '" +
               std::to_string(Int(4)) + std::to_string(Int(4)) + "'";
      default:
        return Attr();
    }
  }

  std::string Step() {
    std::string axis = Pick({"", "", "", "descendant::", "self::"});
    std::string step = axis + Pick({"a", "b", "c", "*"});
    if (Int(2) == 0) step += "[" + Predicate() + "]";
    return step;
  }

  std::string Path() {
    std::string out = Pick({"/", "", "//"});
    int steps = 1 + Int(3);
    for (int i = 0; i < steps; ++i) {
      if (i > 0) out += Pick({"/", "/", "//"});
      out += Step();
    }
    return out;
  }

  std::mt19937 rng_;
};

/// Same generator as conformance_test.cc, kept independent on purpose.
/// `with_y` adds a sparse y attribute for ScalarQueryGen's @y operands;
/// without it the corpus of RandomQueriesAgree is unchanged.
std::string RandomDocument(uint32_t seed, bool with_y = false) {
  std::mt19937 rng(seed);
  const char* names[] = {"a", "b", "c"};
  std::uniform_int_distribution<int> name_dist(0, 2);
  std::uniform_int_distribution<int> children_dist(0, 3);
  std::uniform_int_distribution<int> kind_dist(0, 9);
  int id = 0;
  std::string out;
  std::function<void(int)> emit = [&](int depth) {
    const char* name = names[name_dist(rng)];
    out += "<";
    out += name;
    if (kind_dist(rng) < 5) out += " id='n" + std::to_string(id++) + "'";
    if (kind_dist(rng) < 3) {
      out += " x='" + std::to_string(kind_dist(rng) % 4) + "'";
    }
    if (with_y && kind_dist(rng) < 2) {
      out += " y='" + std::to_string(kind_dist(rng) % 4) + "'";
    }
    out += ">";
    int children = depth >= 4 ? 0 : children_dist(rng);
    for (int i = 0; i < children; ++i) {
      if (kind_dist(rng) < 7) {
        emit(depth + 1);
      } else {
        out += "t" + std::to_string(kind_dist(rng));
      }
    }
    out += "</";
    out += name;
    out += ">";
  };
  out += "<root>";
  for (int i = 0; i < 3; ++i) emit(1);
  out += "</root>";
  return out;
}

std::string RenderInterp(const interp::Object& v) {
  switch (v.kind) {
    case interp::Object::Kind::kNodeSet: {
      std::string out = "nodes:";
      for (const dom::Node* n : v.nodes) {
        out += " " + std::to_string(n->order);
      }
      return out;
    }
    case interp::Object::Kind::kBoolean:
      return v.boolean ? "bool: true" : "bool: false";
    case interp::Object::Kind::kNumber:
      return "num: " + XPathNumberToString(v.number);
    case interp::Object::Kind::kString:
      return "str: " + v.string;
  }
  return "?";
}

/// Renders the algebraic engine's result in RenderInterp's format.
StatusOr<std::string> RunAlgebraic(
    Database* db, storage::NodeId root, const std::string& query,
    const translate::TranslatorOptions& options) {
  NATIX_ASSIGN_OR_RETURN(std::unique_ptr<CompiledQuery> compiled,
                         db->Compile(query, options));
  if (compiled->result_type() == xpath::ExprType::kNodeSet) {
    NATIX_ASSIGN_OR_RETURN(std::vector<storage::StoredNode> nodes,
                           compiled->EvaluateNodes(root));
    std::string out = "nodes:";
    for (const storage::StoredNode& n : nodes) {
      NATIX_ASSIGN_OR_RETURN(uint64_t order, n.order());
      out += " " + std::to_string(order);
    }
    return out;
  }
  NATIX_ASSIGN_OR_RETURN(runtime::Value value, compiled->EvaluateValue(root));
  switch (value.kind()) {
    case runtime::ValueKind::kBoolean:
      return std::string(value.AsBoolean() ? "bool: true" : "bool: false");
    case runtime::ValueKind::kNumber:
      return "num: " + XPathNumberToString(value.AsNumber());
    default:
      return "str: " + value.AsString();
  }
}

/// One loaded random document, in the store and as the oracle's DOM.
class FuzzConformanceTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override { was_verifying_ = analysis::VerificationEnabled(); }
  void TearDown() override { analysis::SetVerificationEnabled(was_verifying_); }

  uint32_t Seed() const { return GetParam() + BaseSeed(); }

  void Load(const std::string& xml) {
    xml_ = xml;
    auto db = Database::CreateTemp();
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto info = db_->LoadDocument("doc", xml_);
    ASSERT_TRUE(info.ok());
    root_ = info->root;
    auto dom_doc = dom::ParseDocument(xml_);
    ASSERT_TRUE(dom_doc.ok());
    dom_ = std::move(*dom_doc);
  }

  /// Both translations must render exactly what the interpreter does.
  void ExpectAgreesWithOracle(const std::string& query) {
    interp::EvaluatorOptions oracle_options;
    auto oracle = interp::Evaluator::Run(dom_.get(), query, dom_->root(),
                                         oracle_options);
    ASSERT_TRUE(oracle.ok()) << query << ": " << oracle.status().ToString();
    const std::string expected = RenderInterp(*oracle);
    for (bool improved : {false, true}) {
      auto options = improved ? translate::TranslatorOptions::Improved()
                              : translate::TranslatorOptions::Canonical();
      auto actual = RunAlgebraic(db_.get(), root_, query, options);
      ASSERT_TRUE(actual.ok())
          << query << ": " << actual.status().ToString()
          << "\ndocument: " << xml_;
      ASSERT_EQ(*actual, expected)
          << (improved ? "improved" : "canonical") << " diverges on "
          << query << "\ndocument: " << xml_;
    }
  }

  std::string Trace() const {
    return "effective seed " + std::to_string(Seed()) +
           " (NATIX_FUZZ_SEED base " + std::to_string(BaseSeed()) +
           " + param " + std::to_string(GetParam()) +
           "); rerun with NATIX_FUZZ_SEED=" + std::to_string(BaseSeed());
  }

  std::string xml_;
  std::unique_ptr<Database> db_;
  storage::NodeId root_{};
  std::unique_ptr<dom::Document> dom_;
  bool was_verifying_ = false;
};

TEST_P(FuzzConformanceTest, RandomQueriesAgree) {
  SCOPED_TRACE(Trace());
  ASSERT_NO_FATAL_FAILURE(Load(RandomDocument(Seed() * 977 + 11)));
  QueryGen gen(Seed());
  for (int i = 0; i < 120; ++i) {
    ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithOracle(gen.TopLevel()));
  }
}

TEST_P(FuzzConformanceTest, ScalarQueriesAgree) {
  SCOPED_TRACE(Trace());
  analysis::SetVerificationEnabled(true);
  ASSERT_NO_FATAL_FAILURE(
      Load(RandomDocument(Seed() * 2027 + 11, /*with_y=*/true)));
  ScalarQueryGen gen(Seed());
  for (int i = 0; i < 80; ++i) {
    ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithOracle(gen.TopLevel()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzConformanceTest,
                         ::testing::Range(1u, 9u));

}  // namespace
}  // namespace natix
