// String-values compared in place on the buffer pages.
//
// NodeAccessor::StringValueEquals walks a node's text records and
// compares them with the constant without building the string; the
// differential tests pin it to StringValue(n) == s for every node kind
// and a spread of constants, on the smallest pool (16 pages, 2 shards)
// so the walk re-fixes pages that other reads have evicted. The VM's
// cmp_attr_const takes that path for node = / != string; it must agree
// with the materializing CompareAtomic in both operand orders. The
// overflow regressions pin the id() index and lang() to the full content
// of attribute values past the inline limit.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/operator.h"
#include "analysis/nvm_dataflow.h"
#include "api/database.h"
#include "nvm/assembler.h"
#include "nvm/vm.h"
#include "runtime/conversions.h"
#include "storage/document_loader.h"
#include "storage/node_store.h"

namespace natix {
namespace {

using runtime::CompareOp;
using runtime::Value;
using storage::NodeId;

/// Over the 4000-byte inline limit: stored as an overflow chunk chain.
std::string LongText(char c) { return std::string(9000, c) + "-tail"; }

/// Every case the in-place walk distinguishes, padded with enough
/// filler elements that the document spans several times the pool.
std::string CaseDocument() {
  std::string xml = "<root>";
  xml += "<attr a='value' empty=''/>";
  xml += "<inline>single text child</inline>";
  xml += "<mixed>alpha<b>beta<c>gamma</c></b>delta<d/>epsilon"
         "<b>zeta</b></mixed>";
  xml += "<empty/>";
  xml += "<!--a comment--><?target pi data?>";
  xml += "<unicode>Grüße, 世界 \xF0\x9D\x84\x9E</unicode>";
  xml += "<long>" + LongText('x') + "</long>";
  xml += "<longattr v='" + LongText('y') + "'/>";
  xml += "<spread>";
  for (int i = 0; i < 300; ++i) {
    xml += "<p>piece " + std::to_string(i) + "</p>";
    if (i % 50 == 0) xml += LongText('z');
  }
  xml += "</spread>";
  for (int i = 0; i < 2000; ++i) {
    xml += "<pad n='" + std::to_string(i) + "'>filler text " +
           std::to_string(i) + "</pad>";
  }
  xml += "</root>";
  return xml;
}

/// Every node of the document in document order, attributes included.
void CollectNodes(const storage::NodeStore& store, NodeId node,
                  std::vector<NodeId>* out) {
  out->push_back(node);
  storage::NodeRecord record;
  ASSERT_TRUE(store.ReadNode(node, &record).ok());
  for (NodeId attr = record.first_attr; attr.valid();) {
    out->push_back(attr);
    storage::NodeRecord attr_record;
    ASSERT_TRUE(store.ReadNode(attr, &attr_record).ok());
    attr = attr_record.next_sibling;
  }
  for (NodeId child = record.first_child; child.valid();) {
    CollectNodes(store, child, out);
    storage::NodeRecord child_record;
    ASSERT_TRUE(store.ReadNode(child, &child_record).ok());
    child = child_record.next_sibling;
  }
}

/// Constants around `value`: itself, a prefix, an extension, a change
/// in its last byte, the empty string and non-ASCII text.
std::vector<std::string> ConstantsFor(const std::string& value) {
  std::vector<std::string> out = {value, value + "x", "",
                                  "Grüße, 世界 \xF0\x9D\x84\x9E", "piece 7"};
  if (!value.empty()) {
    out.push_back(value.substr(0, value.size() - 1));
    out.push_back(value.substr(0, value.size() / 2));
    std::string changed = value;
    changed.back() = changed.back() == 'q' ? 'r' : 'q';
    out.push_back(changed);
  }
  return out;
}

class StringValueEqualsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage::NodeStore::Options options;
    options.buffer_pages = 16;
    options.buffer_shards = 2;
    auto store = storage::NodeStore::CreateTemp(options);
    ASSERT_TRUE(store.ok());
    store_ = std::move(store).value();
    auto info = storage::LoadDocument(store_.get(), "doc", CaseDocument());
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    CollectNodes(*store_, info->root, &nodes_);
  }

  std::unique_ptr<storage::NodeStore> store_;
  std::vector<NodeId> nodes_;
};

TEST_F(StringValueEqualsTest, AgreesWithMaterializedStringValue) {
  const uint64_t evictions_before =
      store_->buffer_manager()->eviction_count();
  ASSERT_GT(nodes_.size(), 4000u);
  size_t matches = 0;
  for (NodeId node : nodes_) {
    auto value = store_->StringValue(node);
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    for (const std::string& constant : ConstantsFor(*value)) {
      // A fresh accessor per comparison, as the VM uses it.
      storage::NodeAccessor accessor(store_.get());
      auto equal = accessor.StringValueEquals(node, constant);
      ASSERT_TRUE(equal.ok()) << equal.status().ToString();
      EXPECT_EQ(*equal, *value == constant)
          << "node (" << node.page << "," << node.slot << ") value of "
          << value->size() << " bytes vs constant of " << constant.size()
          << " bytes";
      if (*equal) ++matches;
    }
  }
  EXPECT_GE(matches, nodes_.size());  // each node matches its own value
  // The 16-frame pool cannot hold the document: the walks re-fixed
  // evicted pages.
  EXPECT_GT(store_->buffer_manager()->eviction_count(), evictions_before);
}

TEST_F(StringValueEqualsTest, OneAccessorAcrossNodesKeepsAtMostOnePin) {
  // Reusing one accessor across many walks must not leak pins: with 8
  // frames per shard, a leak would exhaust the pool long before the end.
  storage::NodeAccessor accessor(store_.get());
  for (NodeId node : nodes_) {
    auto value = store_->StringValue(node);
    ASSERT_TRUE(value.ok());
    auto equal = accessor.StringValueEquals(node, *value);
    ASSERT_TRUE(equal.ok()) << equal.status().ToString();
    EXPECT_TRUE(*equal);
  }
}

TEST_F(StringValueEqualsTest, MaterializationsAreCounted) {
  storage::StringValueCounters before = storage::ThreadStringValueCounters();
  auto value = store_->StringValue(nodes_[0]);
  ASSERT_TRUE(value.ok());
  auto content = store_->ReadContent(nodes_[3]);  // attribute a='value'
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "value");
  storage::NodeAccessor accessor(store_.get());
  ASSERT_TRUE(accessor.StringValueEquals(nodes_[0], *value).ok());
  storage::StringValueCounters delta =
      storage::ThreadStringValueCounters() - before;
  EXPECT_EQ(delta.materializations, 2u);  // the in-place compare: none
  EXPECT_EQ(delta.bytes, value->size() + content->size());
}

/// Runs `scalar` (attribute "attr0" in tuple register 0) on `tuple`.
StatusOr<Value> RunScalar(const algebra::Scalar& scalar, const Value& tuple,
                          const storage::NodeStore* store) {
  nvm::AttrResolver resolver =
      [](const std::string&) -> StatusOr<runtime::RegisterId> {
    return runtime::RegisterId{0};
  };
  nvm::NestedRegistrar registrar =
      [](const algebra::Scalar&) -> StatusOr<size_t> {
    return Status::Internal("no nested plans in this test");
  };
  NATIX_ASSIGN_OR_RETURN(nvm::Program program,
                         nvm::CompileScalar(scalar, resolver, registrar));
  if (program.code.empty() ||
      program.code[0].op != nvm::OpCode::kCmpAttrConst) {
    return Status::Internal("expected cmp_attr_const:\n" +
                            analysis::RenderNvmProgram(program));
  }
  nvm::Vm vm(&program);
  runtime::RegisterFile registers(1);
  registers[0] = tuple;
  runtime::EvalContext ctx;
  ctx.store = store;
  return vm.Run(registers, ctx, {}, [](size_t) -> StatusOr<Value> {
    return Status::Internal("no nested plans");
  });
}

algebra::ScalarPtr CompareAttr(CompareOp op, const Value& constant,
                               bool constant_left) {
  algebra::ScalarPtr attr = algebra::MakeScalar(algebra::ScalarKind::kAttrRef);
  attr->name = "attr0";
  algebra::ScalarPtr literal;
  if (constant.kind() == runtime::ValueKind::kString) {
    literal = algebra::MakeScalar(algebra::ScalarKind::kStringConst);
    literal->string_value = constant.AsString();
  } else {
    literal = algebra::MakeScalar(algebra::ScalarKind::kNumberConst);
    literal->number = constant.AsNumber();
  }
  algebra::ScalarPtr cmp = algebra::MakeScalar(algebra::ScalarKind::kCompare);
  cmp->cmp = op;
  if (constant_left) {
    cmp->children.push_back(std::move(literal));
    cmp->children.push_back(std::move(attr));
  } else {
    cmp->children.push_back(std::move(attr));
    cmp->children.push_back(std::move(literal));
  }
  return cmp;
}

TEST_F(StringValueEqualsTest, CmpAttrConstAgreesWithCompareAtomic) {
  runtime::EvalContext ctx;
  ctx.store = store_.get();
  // Every 7th node keeps the run short; the kinds all occur early.
  for (size_t i = 0; i < nodes_.size(); i += (i < 64 ? 1 : 7)) {
    storage::NodeRecord record;
    ASSERT_TRUE(store_->ReadNode(nodes_[i], &record).ok());
    Value node = Value::Node(runtime::NodeRef::Make(nodes_[i], record.order));
    auto value = store_->StringValue(nodes_[i]);
    ASSERT_TRUE(value.ok());
    std::vector<Value> constants;
    for (const std::string& s : ConstantsFor(*value)) {
      constants.push_back(Value::String(s));
    }
    // Not a string: the promotion rules, not the in-place path.
    constants.push_back(Value::Number(7));
    for (const Value& constant : constants) {
      for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt}) {
        for (bool constant_left : {false, true}) {
          auto expected =
              constant_left ? runtime::CompareAtomic(op, constant, node, ctx)
                            : runtime::CompareAtomic(op, node, constant, ctx);
          ASSERT_TRUE(expected.ok());
          auto actual = RunScalar(*CompareAttr(op, constant, constant_left),
                                  node, store_.get());
          ASSERT_TRUE(actual.ok()) << actual.status().ToString();
          EXPECT_EQ(actual->AsBoolean(), *expected)
              << runtime::CompareOpName(op) << " constant "
              << constant.DebugString().substr(0, 40)
              << (constant_left ? " (left)" : " (right)");
        }
      }
    }
  }
}

TEST(StringValueStatsTest, InPlaceCompareMaterializesNothing) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument(
      "doc", "<r><a>x</a><a>y</a><a><b>x</b></a><a>xx</a></r>");
  ASSERT_TRUE(info.ok());

  auto equal = (*db)->Compile("//a[. = 'x']");
  ASSERT_TRUE(equal.ok());
  auto hits = (*equal)->EvaluateNodes(info->root);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 2u);
  EXPECT_EQ((*equal)->last_stats().string_values, 0u);
  EXPECT_EQ((*equal)->last_stats().string_value_bytes, 0u);

  // contains() still builds every a's string-value: 4 strings, 5 bytes.
  auto contains = (*db)->Compile("//a[contains(., 'x')]",
                                 translate::TranslatorOptions::Improved(),
                                 /*collect_stats=*/true);
  ASSERT_TRUE(contains.ok());
  ASSERT_TRUE((*contains)->EvaluateNodes(info->root).ok());
  EXPECT_EQ((*contains)->last_stats().string_values, 4u);
  EXPECT_EQ((*contains)->last_stats().string_value_bytes, 5u);
  const std::string analyze = (*contains)->ExplainAnalyze();
  EXPECT_NE(analyze.find("strings: materializations=4 bytes=5"),
            std::string::npos)
      << analyze;
  EXPECT_NE(analyze.find("string_values=4"), std::string::npos) << analyze;
}

TEST(OverflowContentTest, IdAndLangReadOverflowedAttributeValues) {
  const std::string id(5000, 'k');
  const std::string lang = "en-" + std::string(5000, 'y');
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->LoadDocument("doc", "<r><a id='" + id +
                                             "'/><b xml:lang='" + lang +
                                             "'/><c id='short'/></r>")
                  .ok());
  auto by_id = (*db)->QueryNodes("doc", "id('" + id + "')");
  ASSERT_TRUE(by_id.ok()) << by_id.status().ToString();
  EXPECT_EQ(by_id->size(), 1u);
  auto by_attr = (*db)->QueryNodes("doc", "//*[@id='" + id + "']");
  ASSERT_TRUE(by_attr.ok());
  EXPECT_EQ(by_attr->size(), 1u);
  auto short_id = (*db)->QueryNodes("doc", "id('short')");
  ASSERT_TRUE(short_id.ok());
  EXPECT_EQ(short_id->size(), 1u);
  auto by_lang = (*db)->QueryNodes("doc", "//b[lang('en')]");
  ASSERT_TRUE(by_lang.ok()) << by_lang.status().ToString();
  EXPECT_EQ(by_lang->size(), 1u);
  auto other_lang = (*db)->QueryNodes("doc", "//b[lang('de')]");
  ASSERT_TRUE(other_lang.ok());
  EXPECT_EQ(other_lang->size(), 0u);
}

}  // namespace
}  // namespace natix
