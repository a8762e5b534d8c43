#include "qe/codegen.h"

#include <set>
#include <utility>

#include "algebra/properties.h"
#include "analysis/plan_verifier.h"
#include "analysis/property_inference.h"
#include "nvm/assembler.h"
#include "obs/trace.h"
#include "qe/exec_context.h"
#include "qe/operators.h"
#include "qe/property_oracle.h"

namespace natix::qe {

namespace internal {

using algebra::Operator;
using algebra::OpKind;
using algebra::Scalar;
using runtime::RegisterId;

using analysis::PhysNode;
using analysis::PhysNodeKind;
using analysis::PhysNodePtr;

/// Iterator plus the registers its subtree writes (needed by
/// materializing parents for row snapshots), the node of the Layer-2
/// dataflow model mirroring the iterator, and the per-operator stats
/// node (null unless the context is instantiated with stats collection).
struct BuildResult {
  IteratorPtr iter;
  std::set<RegisterId> written;
  PhysNodePtr node;
  obs::OpStats* stats = nullptr;
};

/// Starts a dataflow-model node for the iterator being built.
PhysNodePtr MakeNode(PhysNodeKind kind, std::string label) {
  auto node = std::make_unique<PhysNode>();
  node->kind = kind;
  node->label = std::move(label);
  return node;
}

using analysis::ChildClose;
using analysis::SpoolKind;

/// Declares the Layer-4 resource behaviour of the iterator a node
/// models. The declarations must mirror the implementations in src/qe/
/// (operators.h and the *_ops.cc files); the resource verifier proves
/// the plan-wide consequences, and the execution context's resource
/// ledger cross-checks them at runtime.
PhysNode* Effects(PhysNode* node, std::vector<ChildClose> child_close,
                  SpoolKind spool = SpoolKind::kNone,
                  bool spool_released_on_close = false,
                  bool holds_cursor = false,
                  bool cursor_released_on_close = false) {
  node->effects.child_close = std::move(child_close);
  node->effects.spool = spool;
  node->effects.spool_released_on_close = spool_released_on_close;
  node->effects.holds_cursor = holds_cursor;
  node->effects.cursor_released_on_close = cursor_released_on_close;
  return node;
}

/// Renders the physical shape of the compiled plan: the logical operator
/// tree annotated with the attribute manager's register assignments.
/// Pure-rename maps that compiled to register aliases are marked.
class PhysicalPrinter {
 public:
  explicit PhysicalPrinter(
      const std::unordered_map<std::string, RegisterId>& attribute_map)
      : attribute_map_(attribute_map) {}

  std::string Render(const Operator& op) {
    out_.clear();
    Print(op, 0);
    return out_;
  }

 private:
  std::string Reg(const std::string& attr) const {
    auto it = attribute_map_.find(attr);
    if (it == attribute_map_.end()) return attr + "@?";
    return attr + "@r" + std::to_string(it->second);
  }

  void PrintScalar(const algebra::Scalar& scalar, int depth) {
    if (scalar.kind == algebra::ScalarKind::kNested) {
      out_.append(static_cast<size_t>(depth) * 2, ' ');
      out_ += "nested " + std::string(algebra::AggKindName(scalar.agg)) +
              "(" + Reg(scalar.input_attr) + "):\n";
      Print(*scalar.plan, depth + 1);
    }
    for (const auto& child : scalar.children) PrintScalar(*child, depth);
  }

  void Print(const Operator& op, int depth) {
    out_.append(static_cast<size_t>(depth) * 2, ' ');
    out_ += algebra::OpKindName(op.kind);
    switch (op.kind) {
      case OpKind::kMap: {
        bool alias = op.scalar->kind == algebra::ScalarKind::kAttrRef &&
                     !op.materialize;
        out_ += std::string(op.materialize ? "^mat" : "") + "[" +
                Reg(op.attr) + " := " + op.scalar->ToString() +
                (alias ? " (register alias, no code)" : "") + "]";
        break;
      }
      case OpKind::kSelect:
      case OpKind::kSemiJoin:
      case OpKind::kAntiJoin:
        out_ += "[" + op.scalar->ToString() + "]";
        break;
      case OpKind::kUnnestMap:
        out_ += "[" + Reg(op.attr) + " := " + Reg(op.ctx_attr) + "/" +
                runtime::AxisName(op.axis) + "::" + op.test.ToString() +
                "]";
        break;
      case OpKind::kStaircaseStep:
        out_ += "[" + Reg(op.attr) + " := {" + Reg(op.ctx_attr) + "}/" +
                runtime::AxisName(op.axis) + "::" + op.test.ToString() +
                "]";
        break;
      case OpKind::kCounter:
        out_ += "[" + Reg(op.attr) + " := counter++" +
                (op.ctx_attr.empty() ? "" : ", reset on " + Reg(op.ctx_attr)) +
                "]";
        break;
      case OpKind::kTmpCs:
        out_ += "[" + Reg(op.attr) +
                (op.ctx_attr.empty() ? "" : "; context " + Reg(op.ctx_attr)) +
                "]";
        break;
      case OpKind::kDupElim:
      case OpKind::kSort:
        out_ += "[" + Reg(op.attr) + "]";
        break;
      case OpKind::kAggregate:
        out_ += "[" + Reg(op.attr) + " := " +
                algebra::AggKindName(op.agg) + "(" + Reg(op.ctx_attr) + ")]";
        break;
      case OpKind::kMemoX: {
        out_ += "[";
        for (size_t i = 0; i < op.key_attrs.size(); ++i) {
          if (i > 0) out_ += ", ";
          out_ += Reg(op.key_attrs[i]);
        }
        out_ += "]";
        break;
      }
      case OpKind::kIdDeref:
        out_ += "[" + Reg(op.attr) + "]";
        break;
      case OpKind::kLimit:
        out_ += "[" + std::to_string(op.limit) + "]";
        break;
      default:
        break;
    }
    out_ += "\n";
    if (op.scalar != nullptr) PrintScalar(*op.scalar, depth + 1);
    for (const auto& child : op.children) Print(*child, depth + 1);
  }

  const std::unordered_map<std::string, RegisterId>& attribute_map_;
  std::string out_;
};

/// Declared a friend of PlanTemplate and ExecutionContext; lives in the
/// internal namespace so the friendship can be expressed across
/// translation units. One CodegenImpl lowers one template into one
/// context: Prepare runs it once against a scratch context (fixing the
/// register assignment, rendering the physical plan and verifying);
/// NewContext runs it once per instantiation.
class CodegenImpl {
 public:
  /// `prepare` additionally collects the compiled NVM programs for the
  /// Layer-3 verification sweep (instantiation skips the copies).
  CodegenImpl(const PlanTemplate& tmpl, ExecutionContext* ctx, bool prepare)
      : tmpl_(tmpl),
        ctx_(ctx),
        store_(tmpl.store_),
        props_(tmpl.props_),
        prepare_(prepare) {}

  Status Instantiate(bool collect_stats) {
    const translate::TranslationResult& translation = tmpl_.translation_;
    ctx_->template_ = &tmpl_;
    ctx_->eval_ctx.store = store_;
    state_ = ctx_;
    // The runtime half of Layer 4: the resource ledger cross-checks the
    // static pin-balance / spool-containment proof on every execution,
    // abort paths included.
    if (analysis::VerificationEnabled()) ctx_->ArmResourceLedger();
    if (collect_stats) {
      ctx_->stats_ = std::make_unique<obs::QueryStats>();
      qstats_ = ctx_->stats_.get();
    }

    // Reserved execution-context attributes (the paper's top-level map).
    ctx_->cn_reg_ = Bind(translate::kContextNodeAttr);
    ctx_->cp0_reg_ = Bind(translate::kContextPositionAttr);
    ctx_->cs0_reg_ = Bind(translate::kContextSizeAttr);

    NATIX_ASSIGN_OR_RETURN(BuildResult root, Build(*translation.plan));
    NATIX_ASSIGN_OR_RETURN(ctx_->result_reg_,
                           Resolve(translation.result_attr));
    if (qstats_ != nullptr) qstats_->set_root(root.stats);

    // Under verification, the oracle also guards the root stream's
    // statically inferred claims across the whole execution (operators
    // inside dependent branches only assert per re-evaluation).
    analysis::AttrProperties result_props;
    if (auto it = props_.find(translation.plan.get()); it != props_.end()) {
      result_props = it->second.Lookup(translation.result_attr);
    }
    if (analysis::VerificationEnabled() &&
        translation.type == xpath::ExprType::kNodeSet &&
        (result_props.order == analysis::OrderState::kDocOrdered ||
         result_props.duplicate_free)) {
      root.iter = std::make_unique<PropertyOracleIterator>(
          state_, std::move(root.iter), ctx_->result_reg_,
          result_props.order == analysis::OrderState::kDocOrdered,
          result_props.duplicate_free,
          "result " + translation.result_attr);
    }

    ctx_->root_ = std::move(root.iter);
    ctx_->result_type_ = translation.type;
    ctx_->registers.Resize(next_register_);
    root_node_ = std::move(root.node);
    return Status::OK();
  }

  /// Prepare-time epilogue: fixes the template's register count, renders
  /// the physical plan and runs the static verifier (Layers 1-3) over
  /// the validation lowering. Violations fail compilation: a malformed
  /// plan must never reach execution.
  Status FinishPrepare(PlanTemplate* tmpl) {
    const translate::TranslationResult& translation = tmpl->translation_;
    tmpl->register_count_ = next_register_;
    tmpl->physical_plan_ =
        "registers: " + std::to_string(next_register_) + ", nested plans: " +
        std::to_string(ctx_->nested_.size()) + "\n" +
        PhysicalPrinter(attribute_map_).Render(*translation.plan);
    tmpl->nvm_programs_ = std::move(programs_);

    obs::ScopedSpan verify_span(
        "compile/verify",
        analysis::VerificationEnabled() ? "layers 1-4" : "skipped");
    if (analysis::VerificationEnabled()) {
      analysis::PhysicalModel model;
      model.root = std::move(root_node_);
      model.register_count = next_register_;
      model.context_regs = {ctx_->cn_reg_, ctx_->cp0_reg_, ctx_->cs0_reg_};
      model.result_reg = ctx_->result_reg_;
      model.nested_count = ctx_->nested_.size();
      model.programs = tmpl->nvm_programs_;
      NATIX_RETURN_IF_ERROR(analysis::VerifyTranslation(translation));
      NATIX_RETURN_IF_ERROR(analysis::VerifyPhysical(model));
      NATIX_RETURN_IF_ERROR(analysis::VerifyResources(model));
      tmpl->verification_ =
          "VERIFIED (logical: " +
          std::to_string(algebra::PlanSize(*translation.plan)) +
          " operators; physical: " + std::to_string(next_register_) +
          " registers; nvm: " + std::to_string(model.programs.size()) +
          " subscript programs; properties: " +
          std::to_string(props_.size()) + " operators annotated, " +
          std::to_string(translation.rewrites.size()) +
          " property-justified rewrites; resources: pin-balanced, "
          "close-on-all-paths)";
    } else {
      tmpl->verification_ =
          "not verified (release build; enable with --verify-plans)";
    }
    return Status::OK();
  }

  size_t register_count() const { return next_register_; }

 private:
  /// Allocates a stats node in the context's collector; null when stats
  /// collection is off, so every call site stays branch-free.
  obs::OpStats* NewStats(std::string label) {
    if (qstats_ == nullptr) return nullptr;
    return qstats_->NewOp(std::move(label));
  }

  /// Links children and binds the node to its iterator. Null children
  /// (structural no-ops like register-alias maps) are skipped. Iterator
  /// children precede any NestedAgg nodes the subscript registrar
  /// already hung off the node.
  obs::OpStats* AttachStats(obs::OpStats* node, Iterator* iter,
                            std::initializer_list<obs::OpStats*> children) {
    if (node == nullptr) return nullptr;
    size_t at = 0;
    for (obs::OpStats* c : children) {
      if (c == nullptr) continue;
      node->children.insert(node->children.begin() + at, c);
      ++at;
    }
    iter->BindStats(node);
    return node;
  }

  /// One-shot: allocate + link + bind (operators without subscripts).
  obs::OpStats* Observe(std::string label, Iterator* iter,
                        std::initializer_list<obs::OpStats*> children) {
    return AttachStats(NewStats(std::move(label)), iter, children);
  }

  /// Binds a fresh attribute name to a new register (or returns the
  /// existing register when re-bound, e.g. the shared output attribute of
  /// union branches).
  RegisterId Bind(const std::string& name) {
    auto it = attribute_map_.find(name);
    if (it != attribute_map_.end()) return it->second;
    RegisterId reg = next_register_++;
    attribute_map_.emplace(name, reg);
    return reg;
  }

  /// Aliases `name` onto an existing register (the attribute-manager
  /// no-copy rename). Fails if `name` is already bound elsewhere.
  bool Alias(const std::string& name, RegisterId reg) {
    auto it = attribute_map_.find(name);
    if (it != attribute_map_.end()) return it->second == reg;
    attribute_map_.emplace(name, reg);
    return true;
  }

  StatusOr<RegisterId> Resolve(const std::string& name) {
    auto it = attribute_map_.find(name);
    if (it == attribute_map_.end()) {
      return Status::Internal("unbound attribute '" + name + "'");
    }
    return it->second;
  }

  StatusOr<std::vector<RegisterId>> ResolveAll(
      const std::set<std::string>& names) {
    std::vector<RegisterId> regs;
    regs.reserve(names.size());
    for (const std::string& name : names) {
      NATIX_ASSIGN_OR_RETURN(RegisterId reg, Resolve(name));
      regs.push_back(reg);
    }
    return regs;
  }

  /// Compiles a scalar subscript for the iterator modeled by `host`,
  /// recording the compiled program's tuple-register reads and nested
  /// subplans in the dataflow model. Nested subplans hang their
  /// aggregate stats node off `host_stats` (null: collection off).
  StatusOr<SubscriptPtr> CompileSubscript(const Scalar& scalar,
                                          PhysNode* host,
                                          obs::OpStats* host_stats) {
    nvm::AttrResolver resolver =
        [this](const std::string& name) -> StatusOr<RegisterId> {
      return Resolve(name);
    };
    nvm::NestedRegistrar registrar =
        [this, host, host_stats](const Scalar& nested) -> StatusOr<size_t> {
      NATIX_ASSIGN_OR_RETURN(BuildResult sub, Build(*nested.plan));
      NATIX_ASSIGN_OR_RETURN(RegisterId input, Resolve(nested.input_attr));
      auto entry = std::make_unique<NestedPlan>();
      entry->iter = std::move(sub.iter);
      entry->agg = nested.agg;
      entry->input_reg = input;
      if (host_stats != nullptr) {
        obs::OpStats* agg = NewStats(
            std::string("NestedAgg[") +
            std::string(algebra::AggKindName(nested.agg)) + "]");
        agg->nested = true;
        if (sub.stats != nullptr) agg->children.push_back(sub.stats);
        entry->stats = agg;
        host_stats->children.push_back(agg);
      }
      ctx_->nested_.push_back(std::move(entry));
      host->nested.emplace_back(std::move(sub.node), input);
      return ctx_->nested_.size() - 1;
    };
    NATIX_ASSIGN_OR_RETURN(nvm::Program program,
                           nvm::CompileScalar(scalar, resolver, registrar));
    // The program's tuple-register operands are exactly the plan
    // registers the subscript reads per tuple (kCmpAttrConst reads its
    // tuple register directly).
    for (const nvm::Instruction& ins : program.code) {
      if (ins.op == nvm::OpCode::kLoadAttr ||
          ins.op == nvm::OpCode::kCmpAttrConst) {
        host->reads.push_back(ins.b);
      }
    }
    if (prepare_) programs_.emplace_back(host->label, program);
    return std::make_unique<Subscript>(std::move(program), state_,
                                       &ctx_->nested_);
  }

  StatusOr<runtime::NodeTest> ResolveNodeTest(const xpath::AstNodeTest& t) {
    runtime::NodeTest test;
    switch (t.kind) {
      case xpath::AstNodeTest::Kind::kName:
        test.kind = runtime::NodeTest::Kind::kName;
        // A name absent from the dictionary occurs nowhere in the store:
        // the invalid id matches no node, which is exactly right.
        test.name_id = store_->names()->Lookup(t.name);
        break;
      case xpath::AstNodeTest::Kind::kAnyName:
        test.kind = runtime::NodeTest::Kind::kAnyName;
        break;
      case xpath::AstNodeTest::Kind::kText:
        test.kind = runtime::NodeTest::Kind::kText;
        break;
      case xpath::AstNodeTest::Kind::kComment:
        test.kind = runtime::NodeTest::Kind::kComment;
        break;
      case xpath::AstNodeTest::Kind::kPi:
        test.kind = runtime::NodeTest::Kind::kPi;
        break;
      case xpath::AstNodeTest::Kind::kPiTarget:
        test.kind = runtime::NodeTest::Kind::kPiTarget;
        test.name_id = store_->names()->Lookup(t.name);
        break;
      case xpath::AstNodeTest::Kind::kAnyKind:
        test.kind = runtime::NodeTest::Kind::kAnyKind;
        break;
    }
    return test;
  }

  /// The inferred-property tag appended to EXPLAIN ANALYZE labels, e.g.
  /// " {card:n, ord:doc(c3), dup-free(c3)}". Colon-separated so golden
  /// normalizations of numeric counters ("=N") leave it alone.
  std::string PropTag(const Operator& op) const {
    auto it = props_.find(&op);
    if (it == props_.end()) return std::string();
    return " " + analysis::RenderProperties(it->second, op.attr);
  }

  /// Wraps stream-producing operators in the runtime property oracle
  /// while verification is on: the wrapper asserts the static order /
  /// duplicate-freedom claims of op.attr against the actual tuples.
  /// Transparent otherwise: no stats node, no register writes.
  void WrapOracle(const Operator& op, BuildResult* result) {
    if (!analysis::VerificationEnabled()) return;
    if (op.kind == OpKind::kLimit) {
      WrapLimitOracle(op, result);
      return;
    }
    switch (op.kind) {
      case OpKind::kUnnestMap:
      case OpKind::kStaircaseStep:
      case OpKind::kDupElim:
      case OpKind::kSort:
      case OpKind::kCounter:
      case OpKind::kUnnest:
      case OpKind::kIdDeref:
        break;
      default:
        return;
    }
    auto it = props_.find(&op);
    if (it == props_.end()) return;
    analysis::AttrProperties attr = it->second.Lookup(op.attr);
    bool check_order = attr.order == analysis::OrderState::kDocOrdered;
    bool check_dup = attr.duplicate_free;
    if (!check_order && !check_dup) return;
    StatusOr<RegisterId> reg = Resolve(op.attr);
    if (!reg.ok()) return;
    result->iter = std::make_unique<PropertyOracleIterator>(
        state_, std::move(result->iter), *reg, check_order, check_dup,
        analysis::OperatorSummary(op) + PropTag(op));
  }

  /// The Limit contract: at most op.limit tuples per Open, and the
  /// surviving prefix keeps the input's document-order claim. A Limit
  /// writes no attribute of its own, so the order check keys on the
  /// stream attribute produced below it (descending through the
  /// attribute-transparent operators); the tuple bound needs no
  /// register at all.
  void WrapLimitOracle(const Operator& op, BuildResult* result) {
    const Operator* p = op.children[0].get();
    while (true) {
      switch (p->kind) {
        case OpKind::kSelect:
        case OpKind::kCounter:
        case OpKind::kTmpCs:
        case OpKind::kLimit:
        case OpKind::kMap:
        case OpKind::kProject:
        case OpKind::kMemoX:
          p = p->children[0].get();
          continue;
        default:
          break;
      }
      break;
    }
    std::string stream_attr;
    switch (p->kind) {
      case OpKind::kUnnestMap:
      case OpKind::kStaircaseStep:
      case OpKind::kUnnest:
      case OpKind::kIdDeref:
      case OpKind::kDupElim:
      case OpKind::kSort:
        stream_attr = p->attr;
        break;
      default:
        break;
    }
    bool check_order = false;
    RegisterId reg = 0;
    auto it = props_.find(&op);
    if (!stream_attr.empty() && it != props_.end()) {
      analysis::AttrProperties attr = it->second.Lookup(stream_attr);
      StatusOr<RegisterId> resolved = Resolve(stream_attr);
      if (resolved.ok() &&
          attr.order == analysis::OrderState::kDocOrdered) {
        check_order = true;
        reg = *resolved;
      }
    }
    auto oracle = std::make_unique<PropertyOracleIterator>(
        state_, std::move(result->iter), reg, check_order,
        /*check_duplicate_free=*/false,
        analysis::OperatorSummary(op) + PropTag(op));
    oracle->set_max_tuples(op.limit);
    result->iter = std::move(oracle);
  }

  StatusOr<BuildResult> Build(const Operator& op) {
    NATIX_ASSIGN_OR_RETURN(BuildResult result, BuildOp(op));
    WrapOracle(op, &result);
    return result;
  }

  StatusOr<BuildResult> BuildOp(const Operator& op) {
    switch (op.kind) {
      case OpKind::kSingletonScan: {
        BuildResult result;
        result.iter = std::make_unique<SingletonScanIterator>();
        result.node = MakeNode(PhysNodeKind::kLeaf, "SingletonScan");
        result.stats = Observe("SingletonScan", result.iter.get(), {});
        return result;
      }
      case OpKind::kSelect: {
        NATIX_ASSIGN_OR_RETURN(BuildResult child, Build(*op.children[0]));
        PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, "Select");
        Effects(node.get(), {ChildClose::kOnClose});
        obs::OpStats* stats =
            NewStats("Select[" + op.scalar->ToString() + "]");
        NATIX_ASSIGN_OR_RETURN(
            SubscriptPtr predicate,
            CompileSubscript(*op.scalar, node.get(), stats));
        child.iter = std::make_unique<SelectIterator>(std::move(child.iter),
                                                      std::move(predicate));
        child.stats = AttachStats(stats, child.iter.get(), {child.stats});
        node->children.push_back(std::move(child.node));
        child.node = std::move(node);
        return child;
      }
      case OpKind::kMap: {
        NATIX_ASSIGN_OR_RETURN(BuildResult child, Build(*op.children[0]));
        // Attribute-manager fast path: a pure rename emits no code.
        if (op.scalar->kind == algebra::ScalarKind::kAttrRef &&
            !op.materialize) {
          NATIX_ASSIGN_OR_RETURN(RegisterId source,
                                 Resolve(op.scalar->name));
          if (Alias(op.attr, source)) {
            child.written.insert(source);
            return child;
          }
          // Already bound elsewhere (e.g. union branches sharing one
          // output attribute): fall through to a real copy.
        }
        RegisterId out = Bind(op.attr);
        PhysNodePtr node =
            MakeNode(PhysNodeKind::kPipeline,
                     "Map[" + op.attr + "@r" + std::to_string(out) + "]");
        // chi^mat keeps a keyed result cache that intentionally outlives
        // Open/Close cycles within one execution context.
        Effects(node.get(), {ChildClose::kOnClose},
                op.materialize ? SpoolKind::kMemo : SpoolKind::kNone);
        obs::OpStats* stats = NewStats(
            std::string("Map") + (op.materialize ? "^mat" : "") + "[" +
            op.attr + " := " + op.scalar->ToString() + "]" + PropTag(op));
        std::vector<RegisterId> key_regs;
        if (op.materialize) {
          NATIX_ASSIGN_OR_RETURN(
              key_regs,
              ResolveAll(algebra::ScalarFreeAttributes(*op.scalar)));
          node->reads.insert(node->reads.end(), key_regs.begin(),
                             key_regs.end());
        }
        NATIX_ASSIGN_OR_RETURN(
            SubscriptPtr subscript,
            CompileSubscript(*op.scalar, node.get(), stats));
        child.iter = std::make_unique<MapIterator>(
            state_, std::move(child.iter), std::move(subscript), out,
            op.materialize, std::move(key_regs));
        child.stats = AttachStats(stats, child.iter.get(), {child.stats});
        child.written.insert(out);
        node->writes.push_back(out);
        node->children.push_back(std::move(child.node));
        child.node = std::move(node);
        return child;
      }
      case OpKind::kCounter: {
        NATIX_ASSIGN_OR_RETURN(BuildResult child, Build(*op.children[0]));
        RegisterId out = Bind(op.attr);
        PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, "Counter");
        Effects(node.get(), {ChildClose::kOnClose});
        std::optional<RegisterId> reset;
        if (!op.ctx_attr.empty()) {
          NATIX_ASSIGN_OR_RETURN(RegisterId reg, Resolve(op.ctx_attr));
          reset = reg;
          node->reads.push_back(reg);
        }
        child.iter = std::make_unique<CounterIterator>(
            state_, std::move(child.iter), out, reset);
        child.stats = Observe(
            "Counter[" + op.attr +
                (op.ctx_attr.empty() ? "" : ", reset on " + op.ctx_attr) +
                "]",
            child.iter.get(), {child.stats});
        child.written.insert(out);
        node->writes.push_back(out);
        node->children.push_back(std::move(child.node));
        child.node = std::move(node);
        return child;
      }
      case OpKind::kUnnestMap: {
        NATIX_ASSIGN_OR_RETURN(BuildResult child, Build(*op.children[0]));
        NATIX_ASSIGN_OR_RETURN(RegisterId ctx, Resolve(op.ctx_attr));
        RegisterId out = Bind(op.attr);
        NATIX_ASSIGN_OR_RETURN(runtime::NodeTest test,
                               ResolveNodeTest(op.test));
        child.iter = std::make_unique<UnnestMapIterator>(
            state_, std::move(child.iter), ctx, out, op.axis, test);
        child.stats = Observe("UnnestMap[" + op.attr + " := " +
                                  op.ctx_attr + "/" +
                                  runtime::AxisName(op.axis) +
                                  "::" + op.test.ToString() + "]" +
                                  PropTag(op),
                              child.iter.get(), {child.stats});
        child.written.insert(out);
        PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, "UnnestMap");
        // The axis cursor pins pages between Next calls while active;
        // Close drops it (pin balance on early exit).
        Effects(node.get(), {ChildClose::kOnClose}, SpoolKind::kNone,
                /*spool_released_on_close=*/false, /*holds_cursor=*/true,
                /*cursor_released_on_close=*/true);
        node->reads.push_back(ctx);
        node->writes.push_back(out);
        node->children.push_back(std::move(child.node));
        child.node = std::move(node);
        return child;
      }
      case OpKind::kStaircaseStep: {
        NATIX_ASSIGN_OR_RETURN(BuildResult child, Build(*op.children[0]));
        NATIX_ASSIGN_OR_RETURN(RegisterId ctx, Resolve(op.ctx_attr));
        RegisterId out = Bind(op.attr);
        NATIX_ASSIGN_OR_RETURN(runtime::NodeTest test,
                               ResolveNodeTest(op.test));
        const analysis::PlanProperties* input = nullptr;
        if (auto it = props_.find(op.children[0].get());
            it != props_.end()) {
          input = &it->second;
        }
        const bool streaming =
            input != nullptr && analysis::StaircaseStepStreams(op, *input);
        if (streaming && analysis::VerificationEnabled()) {
          // Streaming relies on the contexts arriving doc-ordered and
          // duplicate-free: the oracle asserts it on the actual input.
          child.iter = std::make_unique<PropertyOracleIterator>(
              state_, std::move(child.iter), ctx, /*check_order=*/true,
              /*check_duplicate_free=*/true,
              analysis::OperatorSummary(op) + " input");
        }
        BuildResult result;
        result.iter = std::make_unique<StaircaseStepIterator>(
            state_, std::move(child.iter), ctx, out, op.axis, test,
            streaming);
        result.stats = Observe(analysis::OperatorSummary(op) +
                                   (streaming ? " streaming" : " drained") +
                                   PropTag(op),
                               result.iter.get(), {child.stats});
        result.written.insert(out);
        // Output tuples define only the step result on top of the
        // node's input definitions, like the aggregate's.
        result.node = MakeNode(PhysNodeKind::kBarrier, "StaircaseStep");
        // Navigation pins pages between Next calls until Close; a
        // draining step also spools the whole context set.
        Effects(result.node.get(), {ChildClose::kOnClose},
                streaming ? SpoolKind::kNone : SpoolKind::kFull,
                /*spool_released_on_close=*/!streaming,
                /*holds_cursor=*/true, /*cursor_released_on_close=*/true);
        result.node->reads.push_back(ctx);
        result.node->writes.push_back(out);
        result.node->children.push_back(std::move(child.node));
        return result;
      }
      case OpKind::kDJoin:
      case OpKind::kCross: {
        NATIX_ASSIGN_OR_RETURN(BuildResult left, Build(*op.children[0]));
        NATIX_ASSIGN_OR_RETURN(BuildResult right, Build(*op.children[1]));
        BuildResult result;
        result.iter = std::make_unique<DJoinIterator>(std::move(left.iter),
                                                      std::move(right.iter));
        result.stats =
            Observe(op.kind == OpKind::kDJoin ? "DJoin" : "Cross",
                    result.iter.get(), {left.stats, right.stats});
        result.written = std::move(left.written);
        result.written.insert(right.written.begin(), right.written.end());
        result.node = MakeNode(PhysNodeKind::kDependent,
                               op.kind == OpKind::kDJoin ? "DJoin" : "Cross");
        Effects(result.node.get(),
                {ChildClose::kOnClose, ChildClose::kOnClose});
        result.node->children.push_back(std::move(left.node));
        result.node->children.push_back(std::move(right.node));
        return result;
      }
      case OpKind::kSemiJoin:
      case OpKind::kAntiJoin: {
        NATIX_ASSIGN_OR_RETURN(BuildResult left, Build(*op.children[0]));
        NATIX_ASSIGN_OR_RETURN(BuildResult right, Build(*op.children[1]));
        PhysNodePtr node = MakeNode(
            PhysNodeKind::kDependentLeft,
            op.kind == OpKind::kSemiJoin ? "SemiJoin" : "AntiJoin");
        // The probe side is opened and closed inside every Next call,
        // including error paths — never open across calls.
        Effects(node.get(),
                {ChildClose::kOnClose, ChildClose::kProbeContained});
        obs::OpStats* stats = NewStats(
            std::string(op.kind == OpKind::kSemiJoin ? "SemiJoin"
                                                     : "AntiJoin") +
            "[" + op.scalar->ToString() + "]");
        NATIX_ASSIGN_OR_RETURN(
            SubscriptPtr predicate,
            CompileSubscript(*op.scalar, node.get(), stats));
        BuildResult result;
        result.iter = std::make_unique<SemiJoinIterator>(
            op.kind == OpKind::kSemiJoin ? SemiJoinIterator::Mode::kSemi
                                         : SemiJoinIterator::Mode::kAnti,
            std::move(left.iter), std::move(right.iter),
            std::move(predicate));
        result.stats = AttachStats(stats, result.iter.get(),
                                   {left.stats, right.stats});
        result.written = std::move(left.written);
        result.written.insert(right.written.begin(), right.written.end());
        node->children.push_back(std::move(left.node));
        node->children.push_back(std::move(right.node));
        result.node = std::move(node);
        return result;
      }
      case OpKind::kConcat: {
        BuildResult result;
        result.node = MakeNode(PhysNodeKind::kConcat, "Concat");
        std::vector<IteratorPtr> children;
        std::vector<obs::OpStats*> child_stats;
        for (const algebra::OpPtr& c : op.children) {
          NATIX_ASSIGN_OR_RETURN(BuildResult child, Build(*c));
          children.push_back(std::move(child.iter));
          if (child.stats != nullptr) child_stats.push_back(child.stats);
          result.written.insert(child.written.begin(), child.written.end());
          result.node->children.push_back(std::move(child.node));
        }
        result.iter = std::make_unique<ConcatIterator>(std::move(children));
        // Branches are opened lazily and each is closed before the next
        // opens; Close finds at most the current branch open.
        Effects(result.node.get(),
                std::vector<ChildClose>(result.node->children.size(),
                                        ChildClose::kOnClose));
        result.stats = Observe("Concat", result.iter.get(), {});
        if (result.stats != nullptr) result.stats->children = child_stats;
        return result;
      }
      case OpKind::kDupElim: {
        NATIX_ASSIGN_OR_RETURN(BuildResult child, Build(*op.children[0]));
        NATIX_ASSIGN_OR_RETURN(RegisterId attr, Resolve(op.attr));
        child.iter = std::make_unique<DupElimIterator>(
            state_, std::move(child.iter), attr);
        child.stats = Observe("DupElim[" + op.attr + "]" + PropTag(op),
                              child.iter.get(), {child.stats});
        PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, "DupElim");
        Effects(node.get(), {ChildClose::kOnClose}, SpoolKind::kFull,
                /*spool_released_on_close=*/true);
        node->reads.push_back(attr);
        node->children.push_back(std::move(child.node));
        child.node = std::move(node);
        return child;
      }
      case OpKind::kProject:
        // Logical only: registers are not reclaimed, so projection needs
        // no runtime work (and no dataflow-model node).
        return Build(*op.children[0]);
      case OpKind::kSort: {
        NATIX_ASSIGN_OR_RETURN(BuildResult child, Build(*op.children[0]));
        NATIX_ASSIGN_OR_RETURN(RegisterId attr, Resolve(op.attr));
        std::vector<RegisterId> rows(child.written.begin(),
                                     child.written.end());
        PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, "Sort");
        Effects(node.get(), {ChildClose::kOnClose}, SpoolKind::kFull,
                /*spool_released_on_close=*/true);
        node->reads.push_back(attr);
        node->row_regs = rows;
        child.iter = std::make_unique<SortIterator>(
            state_, std::move(child.iter), attr, std::move(rows));
        child.stats = Observe("Sort[" + op.attr + "]" + PropTag(op),
                              child.iter.get(), {child.stats});
        node->children.push_back(std::move(child.node));
        child.node = std::move(node);
        return child;
      }
      case OpKind::kAggregate: {
        NATIX_ASSIGN_OR_RETURN(BuildResult child, Build(*op.children[0]));
        NATIX_ASSIGN_OR_RETURN(RegisterId input, Resolve(op.ctx_attr));
        RegisterId out = Bind(op.attr);
        auto agg_iter = std::make_unique<AggregateIterator>(
            state_, std::move(child.iter), op.agg, input, out);
        obs::OpStats* stats = Observe(
            "Aggregate[" + op.attr + " := " +
                std::string(algebra::AggKindName(op.agg)) + "(" +
                op.ctx_attr + ")]" + PropTag(op),
            agg_iter.get(), {child.stats});
        // The embedded nested plan's smart-aggregation counters land on
        // the Aggregate's own node.
        if (stats != nullptr) agg_iter->BindNestedStats(stats);
        BuildResult result;
        result.iter = std::move(agg_iter);
        result.stats = stats;
        result.written.insert(out);
        result.node = MakeNode(PhysNodeKind::kBarrier, "Aggregate");
        // The input is drained and closed inside a single Next via the
        // nested-aggregate machinery (subscripts.cc), error paths
        // included.
        Effects(result.node.get(), {ChildClose::kProbeContained});
        result.node->reads.push_back(input);
        result.node->writes.push_back(out);
        result.node->children.push_back(std::move(child.node));
        return result;
      }
      case OpKind::kBinaryGroup: {
        NATIX_ASSIGN_OR_RETURN(BuildResult left, Build(*op.children[0]));
        NATIX_ASSIGN_OR_RETURN(BuildResult right, Build(*op.children[1]));
        NATIX_ASSIGN_OR_RETURN(RegisterId left_attr, Resolve(op.left_attr));
        NATIX_ASSIGN_OR_RETURN(RegisterId right_attr,
                               Resolve(op.right_attr));
        NATIX_ASSIGN_OR_RETURN(RegisterId agg_input, Resolve(op.ctx_attr));
        RegisterId out = Bind(op.attr);
        BuildResult result;
        result.iter = std::make_unique<BinaryGroupIterator>(
            state_, std::move(left.iter), std::move(right.iter), op.agg,
            left_attr, right_attr, agg_input, out);
        result.stats = Observe(
            "BinaryGroup[" + op.attr + " := " +
                std::string(algebra::AggKindName(op.agg)) + "; " +
                op.left_attr + " = " + op.right_attr + "]",
            result.iter.get(), {left.stats, right.stats});
        result.written = std::move(left.written);
        result.written.insert(out);
        result.node = MakeNode(PhysNodeKind::kDependentLeft, "BinaryGroup");
        Effects(result.node.get(),
                {ChildClose::kOnClose, ChildClose::kProbeContained});
        result.node->reads = {left_attr, right_attr, agg_input};
        result.node->writes.push_back(out);
        result.node->children.push_back(std::move(left.node));
        result.node->children.push_back(std::move(right.node));
        return result;
      }
      case OpKind::kTmpCs: {
        NATIX_ASSIGN_OR_RETURN(BuildResult child, Build(*op.children[0]));
        RegisterId out = Bind(op.attr);
        PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, "TmpCs");
        Effects(node.get(), {ChildClose::kOnClose}, SpoolKind::kGroup,
                /*spool_released_on_close=*/true);
        std::optional<RegisterId> ctx;
        if (!op.ctx_attr.empty()) {
          NATIX_ASSIGN_OR_RETURN(RegisterId reg, Resolve(op.ctx_attr));
          ctx = reg;
          node->reads.push_back(reg);
        }
        std::vector<RegisterId> rows(child.written.begin(),
                                     child.written.end());
        node->row_regs = rows;
        node->writes.push_back(out);
        child.iter = std::make_unique<TmpCsIterator>(
            state_, std::move(child.iter), out, ctx, std::move(rows));
        child.stats = Observe(
            "TmpCs[" + op.attr +
                (op.ctx_attr.empty() ? "" : "; context " + op.ctx_attr) +
                "]" + PropTag(op),
            child.iter.get(), {child.stats});
        child.written.insert(out);
        node->children.push_back(std::move(child.node));
        child.node = std::move(node);
        return child;
      }
      case OpKind::kMemoX: {
        NATIX_ASSIGN_OR_RETURN(BuildResult child, Build(*op.children[0]));
        std::vector<RegisterId> keys;
        for (const std::string& key : op.key_attrs) {
          NATIX_ASSIGN_OR_RETURN(RegisterId reg, Resolve(key));
          keys.push_back(reg);
        }
        std::vector<RegisterId> rows(child.written.begin(),
                                     child.written.end());
        PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, "MemoX");
        // The memo table is keyed on the free variables and intentionally
        // survives Open/Close cycles; in-flight recordings are discarded
        // on Close.
        Effects(node.get(), {ChildClose::kOnClose}, SpoolKind::kMemo);
        node->reads = keys;
        node->row_regs = rows;
        child.iter = std::make_unique<MemoXIterator>(
            state_, std::move(child.iter), std::move(keys),
            std::move(rows));
        std::string key_list;
        for (size_t i = 0; i < op.key_attrs.size(); ++i) {
          if (i > 0) key_list += ", ";
          key_list += op.key_attrs[i];
        }
        child.stats = Observe("MemoX[" + key_list + "]", child.iter.get(),
                              {child.stats});
        node->children.push_back(std::move(child.node));
        child.node = std::move(node);
        return child;
      }
      case OpKind::kUnnest: {
        NATIX_ASSIGN_OR_RETURN(BuildResult child, Build(*op.children[0]));
        NATIX_ASSIGN_OR_RETURN(RegisterId seq, Resolve(op.ctx_attr));
        RegisterId out = Bind(op.attr);
        child.iter = std::make_unique<UnnestIterator>(
            state_, std::move(child.iter), seq, out);
        child.stats = Observe("Unnest[" + op.attr + "]", child.iter.get(),
                              {child.stats});
        child.written.insert(out);
        PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, "Unnest");
        Effects(node.get(), {ChildClose::kOnClose});
        node->reads.push_back(seq);
        node->writes.push_back(out);
        node->children.push_back(std::move(child.node));
        child.node = std::move(node);
        return child;
      }
      case OpKind::kIdDeref: {
        NATIX_ASSIGN_OR_RETURN(BuildResult child, Build(*op.children[0]));
        NATIX_ASSIGN_OR_RETURN(RegisterId ctx, Resolve(op.ctx_attr));
        PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, "IdDeref");
        // The lazily built id indexes live in the execution context and
        // are shared across Opens — keyed memo state by design.
        Effects(node.get(), {ChildClose::kOnClose}, SpoolKind::kMemo);
        node->reads.push_back(ctx);
        obs::OpStats* stats = NewStats("IdDeref[" + op.attr + "]");
        SubscriptPtr scalar;
        if (op.scalar != nullptr) {
          NATIX_ASSIGN_OR_RETURN(
              scalar, CompileSubscript(*op.scalar, node.get(), stats));
        }
        RegisterId out = Bind(op.attr);
        child.iter = std::make_unique<IdDerefIterator>(
            state_, std::move(child.iter), ctx, std::move(scalar), out);
        child.stats = AttachStats(stats, child.iter.get(), {child.stats});
        child.written.insert(out);
        node->writes.push_back(out);
        node->children.push_back(std::move(child.node));
        child.node = std::move(node);
        return child;
      }
      case OpKind::kLimit: {
        NATIX_ASSIGN_OR_RETURN(BuildResult child, Build(*op.children[0]));
        child.iter = std::make_unique<LimitIterator>(std::move(child.iter),
                                                     op.limit);
        child.stats =
            Observe("Limit[" + std::to_string(op.limit) + "]" + PropTag(op),
                    child.iter.get(), {child.stats});
        PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, "Limit");
        // Early exit closes the child inside Next; Close re-checks the
        // open flag, so the child ends closed on every path.
        Effects(node.get(), {ChildClose::kOnClose});
        node->children.push_back(std::move(child.node));
        child.node = std::move(node);
        return child;
      }
    }
    return Status::Internal("unknown operator kind");
  }

  const PlanTemplate& tmpl_;
  ExecutionContext* ctx_;
  const storage::NodeStore* store_;
  /// The template's property map (computed once at prepare time); the
  /// lowering only reads it.
  const analysis::PropertyMap& props_;
  const bool prepare_;
  ExecutionContext* state_ = nullptr;
  /// The context's stats collector; null unless instantiated with stats.
  obs::QueryStats* qstats_ = nullptr;
  std::unordered_map<std::string, RegisterId> attribute_map_;
  RegisterId next_register_ = 0;
  /// Root of the Layer-2 dataflow model (consumed by FinishPrepare).
  PhysNodePtr root_node_;
  /// Every compiled NVM subscript with its site label (collected at
  /// prepare time only; moved into the template by FinishPrepare).
  std::vector<std::pair<std::string, nvm::Program>> programs_;
};

}  // namespace internal

StatusOr<std::unique_ptr<PlanTemplate>> Codegen::Prepare(
    translate::TranslationResult translation,
    const storage::NodeStore* store) {
  obs::ScopedSpan span("compile/codegen");
  std::unique_ptr<PlanTemplate> tmpl(new PlanTemplate());
  tmpl->store_ = store;

  // Static property inference over the logical plan (ordering,
  // duplicate-freedom, cardinality, node classes). Runs once per
  // template: the annotations drive the EXPLAIN property tags, the
  // result-order guarantee, and — under verification — the runtime
  // property oracle wrappers of every instantiation.
  tmpl->props_ = analysis::AnnotatePlan(*translation.plan);
  tmpl->logical_plan_ = translation.plan->ToString();
  tmpl->properties_plan_ = analysis::RenderAnnotatedPlan(*translation.plan);
  tmpl->rewrites_ = translation.rewrites;

  // Fusability segmentation (Layer 4): maximal non-materializing,
  // effect-free pipeline segments with their boundaries — the NVM
  // fusion compiler's work list, surfaced through --explain and
  // --explain-json.
  tmpl->segmentation_ = analysis::SegmentPlan(*translation.plan);
  if (analysis::VerificationEnabled()) {
    NATIX_RETURN_IF_ERROR(
        analysis::VerifySegments(*translation.plan, tmpl->segmentation_));
  }
  tmpl->segments_text_ = analysis::RenderSegments(tmpl->segmentation_);
  std::string plan_json = analysis::PlanToJson(*translation.plan);
  while (!plan_json.empty() && plan_json.back() == '\n') plan_json.pop_back();
  tmpl->properties_json_ =
      "{\"plan\":" + plan_json +
      ",\"segments\":" + analysis::SegmentsJson(tmpl->segmentation_) + "}\n";

  // Result-order guarantee: when the root stream is provably in
  // (non-strict) document order on the result attribute, the API skips
  // its final result sort.
  analysis::AttrProperties result_props;
  if (auto it = tmpl->props_.find(translation.plan.get());
      it != tmpl->props_.end()) {
    result_props = it->second.Lookup(translation.result_attr);
  }
  tmpl->result_document_ordered_ =
      translation.type == xpath::ExprType::kNodeSet &&
      result_props.order == analysis::OrderState::kDocOrdered;

  // The template takes ownership of the operator tree; the property map
  // keys stay valid (moving the TranslationResult moves the root
  // pointer, not the operators).
  tmpl->translation_ = std::move(translation);

  // Validation lowering: one throwaway context fixes the (deterministic)
  // register assignment, renders the physical plan, and feeds the static
  // verifier. Real executions instantiate their own contexts later.
  ExecutionContext scratch;
  internal::CodegenImpl impl(*tmpl, &scratch, /*prepare=*/true);
  NATIX_RETURN_IF_ERROR(impl.Instantiate(/*collect_stats=*/false));
  NATIX_RETURN_IF_ERROR(impl.FinishPrepare(tmpl.get()));
  return tmpl;
}

StatusOr<std::unique_ptr<ExecutionContext>> PlanTemplate::NewContext(
    bool collect_stats) const {
  obs::ScopedSpan span("exec/instantiate");
  auto ctx = std::make_unique<ExecutionContext>();
  internal::CodegenImpl impl(*this, ctx.get(), /*prepare=*/false);
  NATIX_RETURN_IF_ERROR(impl.Instantiate(collect_stats));
  if (impl.register_count() != register_count_) {
    return Status::Internal(
        "plan instantiation diverged from the prepared template (register "
        "assignment is expected to be deterministic)");
  }
  return ctx;
}

}  // namespace natix::qe
