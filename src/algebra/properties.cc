#include "algebra/properties.h"

namespace natix::algebra {

namespace {

void CollectWritten(const Operator& op, std::set<std::string>* out);

void CollectWrittenInScalar(const Scalar& scalar,
                            std::set<std::string>* out) {
  // Nested plans bind their own attributes; they are visible to the
  // subscript that embeds them (the NVM reads nested results), and they
  // live in the same register file, so count them as written.
  if (scalar.kind == ScalarKind::kNested) CollectWritten(*scalar.plan, out);
  for (const ScalarPtr& child : scalar.children) {
    CollectWrittenInScalar(*child, out);
  }
}

void CollectWritten(const Operator& op, std::set<std::string>* out) {
  switch (op.kind) {
    case OpKind::kMap:
    case OpKind::kCounter:
    case OpKind::kUnnestMap:
    case OpKind::kUnnest:
    case OpKind::kAggregate:
    case OpKind::kBinaryGroup:
    case OpKind::kTmpCs:
    case OpKind::kIdDeref:
    case OpKind::kStaircaseStep:
      out->insert(op.attr);
      break;
    default:
      break;
  }
  if (op.scalar != nullptr) CollectWrittenInScalar(*op.scalar, out);
  for (const OpPtr& child : op.children) CollectWritten(*child, out);
}

void CollectRefs(const Scalar& scalar, const Operator* skip,
                 std::set<std::string>* out);

/// Attributes referenced by the plan rooted at `op`, leaving out the
/// subtree rooted at `skip` (null: leave out nothing).
void CollectOpRefs(const Operator& op, const Operator* skip,
                   std::set<std::string>* out) {
  if (&op == skip) return;
  switch (op.kind) {
    case OpKind::kCounter:
      if (!op.ctx_attr.empty()) out->insert(op.ctx_attr);
      break;
    case OpKind::kUnnestMap:
    case OpKind::kStaircaseStep:
    case OpKind::kUnnest:
    case OpKind::kAggregate:
      out->insert(op.ctx_attr);
      break;
    case OpKind::kTmpCs:
      if (!op.ctx_attr.empty()) out->insert(op.ctx_attr);
      break;
    case OpKind::kIdDeref:
      out->insert(op.ctx_attr);
      break;
    case OpKind::kBinaryGroup:
      out->insert(op.left_attr);
      out->insert(op.right_attr);
      out->insert(op.ctx_attr);
      break;
    case OpKind::kDupElim:
    case OpKind::kSort:
      out->insert(op.attr);
      break;
    case OpKind::kProject:
      for (const std::string& attr : op.attrs) out->insert(attr);
      break;
    case OpKind::kMemoX:
      for (const std::string& attr : op.key_attrs) out->insert(attr);
      break;
    default:
      break;
  }
  if (op.scalar != nullptr) CollectRefs(*op.scalar, skip, out);
  for (const OpPtr& child : op.children) CollectOpRefs(*child, skip, out);
}

void CollectRefs(const Scalar& scalar, const Operator* skip,
                 std::set<std::string>* out) {
  if (scalar.kind == ScalarKind::kAttrRef) out->insert(scalar.name);
  if (scalar.kind == ScalarKind::kNested) {
    CollectOpRefs(*scalar.plan, skip, out);
    out->insert(scalar.input_attr);
  }
  for (const ScalarPtr& child : scalar.children) {
    CollectRefs(*child, skip, out);
  }
}

}  // namespace

std::set<std::string> WrittenAttributes(const Operator& op) {
  std::set<std::string> out;
  CollectWritten(op, &out);
  return out;
}

std::set<std::string> FreeAttributes(const Operator& op) {
  std::set<std::string> written = WrittenAttributes(op);
  std::set<std::string> referenced;
  CollectOpRefs(op, nullptr, &referenced);
  std::set<std::string> free;
  for (const std::string& attr : referenced) {
    if (written.find(attr) == written.end()) free.insert(attr);
  }
  return free;
}

std::set<std::string> ScalarFreeAttributes(const Scalar& scalar) {
  std::set<std::string> referenced;
  CollectRefs(scalar, nullptr, &referenced);
  // Attributes bound inside the scalar's own nested plans are not free.
  std::set<std::string> written;
  CollectWrittenInScalar(scalar, &written);
  std::set<std::string> free;
  for (const std::string& attr : referenced) {
    if (written.find(attr) == written.end()) free.insert(attr);
  }
  return free;
}

std::set<std::string> AttributesReadOutside(const Operator& root,
                                            const Operator& excluded) {
  std::set<std::string> referenced;
  CollectOpRefs(root, &excluded, &referenced);
  return referenced;
}

size_t PlanSize(const Operator& op) {
  size_t n = 1;
  for (const OpPtr& child : op.children) n += PlanSize(*child);
  return n;
}

}  // namespace natix::algebra
