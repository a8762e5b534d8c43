#include <algorithm>

#include "obs/trace.h"
#include "qe/exec_context.h"
#include "qe/operators.h"

namespace natix::qe {

using runtime::Axis;
using runtime::NodeRef;
using runtime::Value;
using runtime::ValueKind;
using storage::NodeHeader;

StaircaseStepIterator::StaircaseStepIterator(
    ExecutionContext* state, IteratorPtr child, runtime::RegisterId ctx,
    runtime::RegisterId out, Axis axis, runtime::NodeTest test,
    bool streaming)
    : state_(state),
      child_(std::move(child)),
      ctx_(ctx),
      out_(out),
      axis_(axis),
      test_(test),
      streaming_(streaming),
      cursor_(nullptr) {}

void StaircaseStepIterator::BeginNavigation() {
  if (navigating_) return;
  navigating_ = true;
  state_->LedgerCursorActivated();
}

void StaircaseStepIterator::ReleaseNavigation() {
  if (navigating_) {
    navigating_ = false;
    state_->LedgerCursorReleased();
  }
  cursor_active_ = false;
  // Reassignment drops the page pins the cursor and the accessor cache.
  cursor_ = runtime::AxisCursor(state_->eval_ctx.store);
  accessor_ = storage::NodeAccessor(state_->eval_ctx.store);
  context_accessor_ = storage::NodeAccessor(state_->eval_ctx.store);
}

void StaircaseStepIterator::DropSpool() {
  state_->LedgerSpoolDropped(spool_.size());
  spool_.clear();
  spool_pos_ = 0;
}

Status StaircaseStepIterator::OpenImpl() {
  ReleaseNavigation();
  DropSpool();
  filled_ = false;
  input_done_ = false;
  have_peeked_ = false;
  have_end_ = false;
  have_pending_ = false;
  climb_ = storage::kInvalidNodeId;
  have_stop_ = false;
  have_last_ = false;
  cover_opened_ = false;
  return child_->Open();
}

Status StaircaseStepIterator::CloseImpl() {
  ReleaseNavigation();
  DropSpool();
  return child_->Close();
}

Status StaircaseStepIterator::Drain() {
  obs::ScopedSpan span("exec/materialize", "staircase");
  uint64_t drained = 0;
  while (true) {
    // Nothing reaches the result drain loop before the whole input is
    // spooled: poll the deadline here.
    NATIX_RETURN_IF_ERROR(state_->PollCancellation(&drained));
    bool has = false;
    NATIX_RETURN_IF_ERROR(child_->Next(&has));
    if (!has) break;
    const Value& v = state_->registers[ctx_];
    // A non-node context contributes no step results.
    if (v.kind() != ValueKind::kNode) continue;
    spool_.push_back(v.AsNode());
    state_->LedgerSpoolGrew(1);
  }
  // Order keys are unique per node: sorting by them and dropping equal
  // neighbours leaves each context once, in document order.
  std::sort(spool_.begin(), spool_.end(),
            [](const NodeRef& a, const NodeRef& b) {
              return a.order < b.order;
            });
  size_t spooled = spool_.size();
  spool_.erase(std::unique(spool_.begin(), spool_.end(),
                           [](const NodeRef& a, const NodeRef& b) {
                             return a.order == b.order;
                           }),
               spool_.end());
  state_->LedgerSpoolDropped(spooled - spool_.size());
  return Status::OK();
}

Status StaircaseStepIterator::PeekContext(bool* has, NodeRef* node) {
  if (!have_peeked_) {
    if (streaming_) {
      while (true) {
        if (input_done_) {
          *has = false;
          return Status::OK();
        }
        bool child_has = false;
        NATIX_RETURN_IF_ERROR(child_->Next(&child_has));
        if (!child_has) {
          input_done_ = true;
          continue;
        }
        const Value& v = state_->registers[ctx_];
        if (v.kind() == ValueKind::kNode) {
          peeked_ = v.AsNode();
          break;
        }
      }
    } else {
      if (!filled_) {
        filled_ = true;
        NATIX_RETURN_IF_ERROR(Drain());
      }
      if (spool_pos_ >= spool_.size()) {
        *has = false;
        return Status::OK();
      }
      peeked_ = spool_[spool_pos_++];
    }
    have_peeked_ = true;
  }
  *has = true;
  *node = peeked_;
  return Status::OK();
}

StatusOr<uint64_t> StaircaseStepIterator::SubtreeEnd(NodeRef node) {
  BeginNavigation();
  NodeHeader header;
  NATIX_RETURN_IF_ERROR(
      runtime::DeepestLast(&accessor_, node.node_id(), &header).status());
  return header.order;
}

StatusOr<bool> StaircaseStepIterator::AttributeSelfMatches(NodeRef node) {
  BeginNavigation();
  NodeHeader header;
  NATIX_RETURN_IF_ERROR(accessor_.ReadHeader(node.node_id(), &header));
  return header.kind == storage::StoredNodeKind::kAttribute &&
         runtime::MatchesNodeTest(header, test_,
                                  /*principal_is_attribute=*/false);
}

void StaircaseStepIterator::Emit(NodeRef node, bool* has) {
  state_->registers[out_] = Value::Node(node);
  ++state_->tuples_produced;
  *has = true;
}

Status StaircaseStepIterator::NextImpl(bool* has) {
  *has = false;
  switch (axis_) {
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
      NATIX_RETURN_IF_ERROR(NextDescendant(has));
      break;
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
      NATIX_RETURN_IF_ERROR(NextAncestor(has));
      break;
    default:
      NATIX_RETURN_IF_ERROR(NextFromCover(has));
      break;
  }
  if (!*has) ReleaseNavigation();
  return Status::OK();
}

Status StaircaseStepIterator::NextDescendant(bool* has) {
  const bool or_self = axis_ == Axis::kDescendantOrSelf;
  bool more = false;
  NodeRef ctx;
  while (true) {
    if (cursor_active_) {
      if (!have_pending_) {
        NATIX_RETURN_IF_ERROR(cursor_.Next(&have_pending_, &pending_));
        if (!have_pending_) {
          cursor_active_ = false;
          continue;
        }
      }
      if (or_self) {
        // Attribute contexts inside the walked subtree are not covered
        // by it (attributes are no descendants) and go out in document
        // order between the walk's nodes; element and text contexts
        // there are covered.
        while (true) {
          NATIX_RETURN_IF_ERROR(PeekContext(&more, &ctx));
          if (!more || ctx.order >= pending_.order) break;
          TakeContext();
          NATIX_ASSIGN_OR_RETURN(bool self, AttributeSelfMatches(ctx));
          if (self) {
            Emit(ctx, has);
            return Status::OK();
          }
        }
      }
      have_pending_ = false;
      Emit(pending_, has);
      return Status::OK();
    }
    NATIX_RETURN_IF_ERROR(PeekContext(&more, &ctx));
    if (!more) return Status::OK();
    TakeContext();
    if (have_end_ && ctx.order <= end_) {
      // Inside the subtree of the last context stepped from, which
      // already produced every descendant of this one. An attribute
      // context here only yields itself under node(), and then the walk
      // emitted a later node of the subtree, so the merge above has
      // taken it already.
      continue;
    }
    BeginNavigation();
    NATIX_RETURN_IF_ERROR(cursor_.Open(axis_, test_, ctx.node_id()));
    cursor_active_ = true;
    NATIX_ASSIGN_OR_RETURN(end_, SubtreeEnd(ctx));
    have_end_ = true;
  }
}

Status StaircaseStepIterator::NextAncestor(bool* has) {
  const bool or_self = axis_ == Axis::kAncestorOrSelf;
  NodeHeader header;
  while (true) {
    if (climb_.valid()) {
      NATIX_RETURN_IF_ERROR(accessor_.ReadHeader(climb_, &header));
      // Below the previous context's order key the climb joins the
      // previous context's path, which was climbed already. The
      // previous context itself is an ancestor it did not emit, unless
      // the axis includes self.
      if (have_stop_ && (header.order < stop_order_ ||
                         (or_self && header.order == stop_order_))) {
        climb_ = storage::kInvalidNodeId;
        continue;
      }
      NodeRef node = NodeRef::Make(climb_, header.order);
      climb_ = header.parent;
      if (runtime::MatchesNodeTest(header, test_,
                                   /*principal_is_attribute=*/false)) {
        Emit(node, has);
        return Status::OK();
      }
      continue;
    }
    bool more = false;
    NodeRef ctx;
    NATIX_RETURN_IF_ERROR(PeekContext(&more, &ctx));
    if (!more) return Status::OK();
    TakeContext();
    have_stop_ = have_last_;
    stop_order_ = last_order_;
    have_last_ = true;
    last_order_ = ctx.order;
    BeginNavigation();
    if (or_self) {
      climb_ = ctx.node_id();
    } else {
      NATIX_RETURN_IF_ERROR(
          context_accessor_.ReadHeader(ctx.node_id(), &header));
      climb_ = header.parent;
    }
  }
}

Status StaircaseStepIterator::NextFromCover(bool* has) {
  if (!cover_opened_) {
    cover_opened_ = true;
    bool more = false;
    NodeRef cover;
    NATIX_RETURN_IF_ERROR(PeekContext(&more, &cover));
    if (!more) return Status::OK();
    TakeContext();
    NodeRef ctx;
    if (axis_ == Axis::kFollowing) {
      // following(c) is every non-attribute node after c's subtree end,
      // so the context with the smallest end covers all others. A
      // context up to the current end lies in that subtree (its end is
      // no larger); the first one past it, and all after, end later.
      NATIX_ASSIGN_OR_RETURN(uint64_t end, SubtreeEnd(cover));
      while (true) {
        NATIX_RETURN_IF_ERROR(PeekContext(&more, &ctx));
        if (!more || ctx.order > end) break;
        TakeContext();
        cover = ctx;
        NATIX_ASSIGN_OR_RETURN(end, SubtreeEnd(cover));
      }
    } else {
      // preceding(c) grows with c in document order: the last context
      // covers all others.
      while (true) {
        NATIX_RETURN_IF_ERROR(PeekContext(&more, &ctx));
        if (!more) break;
        TakeContext();
        cover = ctx;
      }
    }
    BeginNavigation();
    NATIX_RETURN_IF_ERROR(cursor_.Open(axis_, test_, cover.node_id()));
    cursor_active_ = true;
  }
  if (!cursor_active_) return Status::OK();
  NodeRef node;
  bool cursor_has = false;
  NATIX_RETURN_IF_ERROR(cursor_.Next(&cursor_has, &node));
  if (!cursor_has) {
    cursor_active_ = false;
    return Status::OK();
  }
  Emit(node, has);
  return Status::OK();
}

}  // namespace natix::qe
