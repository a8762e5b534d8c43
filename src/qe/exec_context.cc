#include "qe/exec_context.h"

#include "base/clock.h"
#include "obs/trace.h"

namespace natix::qe {

Status ExecutionContext::CheckCancellation() const {
  if (cancel_flag_ != nullptr &&
      cancel_flag_->load(std::memory_order_relaxed)) {
    return Status::Cancelled("execution cancelled");
  }
  if (deadline_ns_ != 0 && MonotonicNanos() >= deadline_ns_) {
    return Status::DeadlineExceeded("execution deadline exceeded");
  }
  return Status::OK();
}

Status ExecutionContext::VerifyLedgerQuiescent() const {
  if (!ledger_armed_) return Status::OK();
  if (ledger_.cursors_active != 0) {
    return Status::Internal(
        "resource ledger: " + std::to_string(ledger_.cursors_active) +
        " storage cursor(s) still active after Close — page pins leaked "
        "(pin-balance violation)");
  }
  if (ledger_.spool_rows != 0) {
    return Status::Internal(
        "resource ledger: " + std::to_string(ledger_.spool_rows) +
        " spool row(s) survive Close (spool-containment violation)");
  }
  return Status::OK();
}

namespace {

/// Closes the root on an abort path and audits the resource ledger: the
/// whole point of close-on-all-paths is that an early exit leaves no
/// pins or spools behind, so a ledger imbalance here is a bug worth
/// more than the original abort status.
Status AbortClose(Iterator* root, const ExecutionContext& ctx, Status st) {
  (void)root->Close();
  Status ledger = ctx.VerifyLedgerQuiescent();
  if (!ledger.ok()) return ledger;
  return st;
}

}  // namespace

void ExecutionContext::SetContextNode(runtime::NodeRef node) {
  registers[cn_reg_] = runtime::Value::Node(node);
  // Default context position/size: a singleton context.
  registers[cp0_reg_] = runtime::Value::Number(1);
  registers[cs0_reg_] = runtime::Value::Number(1);
}

void ExecutionContext::SetVariable(const std::string& name,
                                   runtime::Value value) {
  variables[name] = std::move(value);
}

StatusOr<std::vector<runtime::NodeRef>> ExecutionContext::ExecuteNodes() {
  if (result_type_ != xpath::ExprType::kNodeSet) {
    return Status::InvalidArgument(
        "ExecuteNodes called on a non-node-set query");
  }
  obs::ScopedSpan exec_span("exec/nodes");
  std::vector<runtime::NodeRef> result;
  {
    obs::ScopedSpan span("exec/open");
    NATIX_RETURN_IF_ERROR(root_->Open());
  }
  bool has = false;
  {
    // The first Next is where pipeline-breaking operators do their
    // work (spooling, sorting); it gets its own span so startup cost
    // separates from the per-tuple drain.
    obs::ScopedSpan span("exec/first-next");
    Status st = root_->Next(&has);
    if (!st.ok()) {
      return AbortClose(root_.get(), *this, std::move(st));
    }
  }
  {
    obs::ScopedSpan span("exec/drain");
    uint64_t drained = 0;
    while (has) {
      // Cooperative cancellation: a request whose deadline expired (or
      // whose client went away) closes the whole pipeline — cascading
      // Close() down to the page scans — instead of finishing the drain.
      Status polled = PollCancellation(&drained);
      if (!polled.ok()) {
        return AbortClose(root_.get(), *this, std::move(polled));
      }
      const runtime::Value& v = registers[result_reg_];
      if (v.kind() != runtime::ValueKind::kNode) {
        return AbortClose(
            root_.get(), *this,
            Status::Internal("node-set plan produced a non-node value"));
      }
      result.push_back(v.AsNode());
      Status st = root_->Next(&has);
      if (!st.ok()) {
        return AbortClose(root_.get(), *this, std::move(st));
      }
    }
  }
  {
    obs::ScopedSpan span("exec/close");
    NATIX_RETURN_IF_ERROR(root_->Close());
  }
  NATIX_RETURN_IF_ERROR(VerifyLedgerQuiescent());
  return result;
}

StatusOr<runtime::Value> ExecutionContext::ExecuteValue() {
  if (result_type_ == xpath::ExprType::kNodeSet) {
    return Status::InvalidArgument(
        "ExecuteValue called on a node-set query");
  }
  obs::ScopedSpan exec_span("exec/value");
  // Scalar plans drain inside aggregate subscripts, so the per-tuple
  // check above never sees them; at least refuse to start work for a
  // request that is already over deadline or cancelled.
  NATIX_RETURN_IF_ERROR(CheckCancellation());
  {
    obs::ScopedSpan span("exec/open");
    NATIX_RETURN_IF_ERROR(root_->Open());
  }
  bool has = false;
  {
    obs::ScopedSpan span("exec/first-next");
    Status st = root_->Next(&has);
    if (!st.ok()) {
      return AbortClose(root_.get(), *this, std::move(st));
    }
  }
  if (!has) {
    return AbortClose(root_.get(), *this,
                      Status::Internal("scalar plan produced no tuple"));
  }
  runtime::Value result = registers[result_reg_];
  {
    obs::ScopedSpan span("exec/close");
    NATIX_RETURN_IF_ERROR(root_->Close());
  }
  NATIX_RETURN_IF_ERROR(VerifyLedgerQuiescent());
  return result;
}

}  // namespace natix::qe
