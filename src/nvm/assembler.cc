#include "nvm/assembler.h"

#include <utility>

namespace natix::nvm {

namespace {

using algebra::Scalar;
using algebra::ScalarKind;
using runtime::Value;
using xpath::BinaryOp;
using xpath::FunctionId;

class AssemblerImpl {
 public:
  AssemblerImpl(const AttrResolver& resolve_attr,
                const NestedRegistrar& register_nested)
      : resolve_attr_(resolve_attr), register_nested_(register_nested) {}

  StatusOr<Program> Compile(const Scalar& scalar) {
    NATIX_ASSIGN_OR_RETURN(uint16_t result, Emit(scalar));
    Instruction halt;
    halt.op = OpCode::kHalt;
    halt.a = result;
    program_.code.push_back(halt);
    program_.register_count = next_register_;
    return std::move(program_);
  }

 private:
  uint16_t NewRegister() { return next_register_++; }

  size_t EmitIns(OpCode op, uint16_t a, uint16_t b = 0, uint16_t c = 0,
                 uint16_t d = 0) {
    Instruction ins;
    ins.op = op;
    ins.a = a;
    ins.b = b;
    ins.c = c;
    ins.d = d;
    program_.code.push_back(ins);
    return program_.code.size() - 1;
  }

  uint16_t EmitConst(Value v) {
    uint16_t reg = NewRegister();
    program_.constants.push_back(std::move(v));
    EmitIns(OpCode::kLoadConst, reg,
            static_cast<uint16_t>(program_.constants.size() - 1));
    return reg;
  }

  static bool IsLiteral(const Scalar& s) {
    return s.kind == ScalarKind::kNumberConst ||
           s.kind == ScalarKind::kStringConst ||
           s.kind == ScalarKind::kBoolConst;
  }

  static Value LiteralValue(const Scalar& s) {
    switch (s.kind) {
      case ScalarKind::kNumberConst:
        return Value::Number(s.number);
      case ScalarKind::kStringConst:
        return Value::String(s.string_value);
      default:
        return Value::Boolean(s.boolean);
    }
  }

  /// A tuple attribute compared with a literal is one type-specialized
  /// instruction: the VM decides node-vs-string (in)equality in place on
  /// the buffer pages. The swap flag keeps the operand order for the
  /// asymmetric operators.
  StatusOr<uint16_t> EmitCmpAttrConst(const Scalar& cmp, const Scalar& attr,
                                      const Scalar& literal, bool swapped) {
    NATIX_ASSIGN_OR_RETURN(runtime::RegisterId attr_reg,
                           resolve_attr_(attr.name));
    program_.constants.push_back(LiteralValue(literal));
    uint16_t reg = NewRegister();
    EmitIns(OpCode::kCmpAttrConst, reg, static_cast<uint16_t>(attr_reg),
            static_cast<uint16_t>(program_.constants.size() - 1),
            static_cast<uint16_t>(static_cast<uint16_t>(cmp.cmp) |
                                  (swapped ? kCmpFlagBit : 0)));
    return reg;
  }

  StatusOr<uint16_t> Emit(const Scalar& s) {
    switch (s.kind) {
      case ScalarKind::kNumberConst:
      case ScalarKind::kStringConst:
      case ScalarKind::kBoolConst:
        return EmitConst(LiteralValue(s));
      case ScalarKind::kAttrRef: {
        NATIX_ASSIGN_OR_RETURN(runtime::RegisterId attr,
                               resolve_attr_(s.name));
        uint16_t reg = NewRegister();
        EmitIns(OpCode::kLoadAttr, reg, static_cast<uint16_t>(attr));
        return reg;
      }
      case ScalarKind::kVarRef: {
        program_.variable_names.push_back(s.name);
        uint16_t reg = NewRegister();
        EmitIns(OpCode::kLoadVar, reg,
                static_cast<uint16_t>(program_.variable_names.size() - 1));
        return reg;
      }
      case ScalarKind::kNegate: {
        NATIX_ASSIGN_OR_RETURN(uint16_t operand, Emit(*s.children[0]));
        uint16_t reg = NewRegister();
        EmitIns(OpCode::kNeg, reg, operand);
        return reg;
      }
      case ScalarKind::kArith: {
        NATIX_ASSIGN_OR_RETURN(uint16_t lhs, Emit(*s.children[0]));
        NATIX_ASSIGN_OR_RETURN(uint16_t rhs, Emit(*s.children[1]));
        OpCode op;
        switch (s.op) {
          case BinaryOp::kAdd:
            op = OpCode::kAdd;
            break;
          case BinaryOp::kSub:
            op = OpCode::kSub;
            break;
          case BinaryOp::kMul:
            op = OpCode::kMul;
            break;
          case BinaryOp::kDiv:
            op = OpCode::kDiv;
            break;
          case BinaryOp::kMod:
            op = OpCode::kMod;
            break;
          default:
            return Status::Internal("non-arithmetic op in kArith");
        }
        uint16_t reg = NewRegister();
        EmitIns(op, reg, lhs, rhs);
        return reg;
      }
      case ScalarKind::kLogical: {
        // Short-circuit: evaluate lhs into `out`; skip rhs when decided.
        uint16_t out = NewRegister();
        NATIX_ASSIGN_OR_RETURN(uint16_t lhs, Emit(*s.children[0]));
        EmitIns(OpCode::kToBool, out, lhs);
        size_t jump = EmitIns(s.op == BinaryOp::kAnd
                                  ? OpCode::kJumpIfFalse
                                  : OpCode::kJumpIfTrue,
                              out, /*target patched below*/ 0);
        NATIX_ASSIGN_OR_RETURN(uint16_t rhs, Emit(*s.children[1]));
        EmitIns(OpCode::kToBool, out, rhs);
        program_.code[jump].b =
            static_cast<uint16_t>(program_.code.size());
        return out;
      }
      case ScalarKind::kCompare: {
        if (IsLiteral(*s.children[1]) &&
            s.children[0]->kind == ScalarKind::kAttrRef) {
          return EmitCmpAttrConst(s, *s.children[0], *s.children[1],
                                  /*swapped=*/false);
        }
        if (IsLiteral(*s.children[0]) &&
            s.children[1]->kind == ScalarKind::kAttrRef) {
          return EmitCmpAttrConst(s, *s.children[1], *s.children[0],
                                  /*swapped=*/true);
        }
        NATIX_ASSIGN_OR_RETURN(uint16_t lhs, Emit(*s.children[0]));
        NATIX_ASSIGN_OR_RETURN(uint16_t rhs, Emit(*s.children[1]));
        uint16_t reg = NewRegister();
        EmitIns(OpCode::kCompare, reg, lhs, rhs,
                static_cast<uint16_t>(s.cmp));
        return reg;
      }
      case ScalarKind::kNested: {
        NATIX_ASSIGN_OR_RETURN(size_t index, register_nested_(s));
        uint16_t reg = NewRegister();
        EmitIns(OpCode::kEvalNested, reg, static_cast<uint16_t>(index));
        return reg;
      }
      case ScalarKind::kFunc:
        return EmitCall(s);
    }
    return Status::Internal("unknown scalar kind");
  }

  StatusOr<uint16_t> EmitCall(const Scalar& s) {
    auto unary = [&](OpCode op) -> StatusOr<uint16_t> {
      NATIX_ASSIGN_OR_RETURN(uint16_t arg, Emit(*s.children[0]));
      uint16_t reg = NewRegister();
      EmitIns(op, reg, arg);
      return reg;
    };
    auto binary = [&](OpCode op) -> StatusOr<uint16_t> {
      NATIX_ASSIGN_OR_RETURN(uint16_t a, Emit(*s.children[0]));
      NATIX_ASSIGN_OR_RETURN(uint16_t b, Emit(*s.children[1]));
      uint16_t reg = NewRegister();
      EmitIns(op, reg, a, b);
      return reg;
    };
    switch (s.function) {
      case FunctionId::kString:
        return unary(OpCode::kToStr);
      case FunctionId::kNumber:
        return unary(OpCode::kToNum);
      case FunctionId::kBoolean:
        return unary(OpCode::kToBool);
      case FunctionId::kNot:
        return unary(OpCode::kNot);
      case FunctionId::kTrue:
        return EmitConst(Value::Boolean(true));
      case FunctionId::kFalse:
        return EmitConst(Value::Boolean(false));
      case FunctionId::kConcat: {
        NATIX_ASSIGN_OR_RETURN(uint16_t acc, Emit(*s.children[0]));
        for (size_t i = 1; i < s.children.size(); ++i) {
          NATIX_ASSIGN_OR_RETURN(uint16_t next, Emit(*s.children[i]));
          uint16_t reg = NewRegister();
          EmitIns(OpCode::kConcat2, reg, acc, next);
          acc = reg;
        }
        return acc;
      }
      case FunctionId::kStartsWith:
        return binary(OpCode::kStartsWith);
      case FunctionId::kContains:
        return binary(OpCode::kContains);
      case FunctionId::kSubstringBefore:
        return binary(OpCode::kSubstringBefore);
      case FunctionId::kSubstringAfter:
        return binary(OpCode::kSubstringAfter);
      case FunctionId::kSubstring: {
        NATIX_ASSIGN_OR_RETURN(uint16_t str, Emit(*s.children[0]));
        NATIX_ASSIGN_OR_RETURN(uint16_t pos, Emit(*s.children[1]));
        uint16_t reg = NewRegister();
        if (s.children.size() == 2) {
          EmitIns(OpCode::kSubstring2, reg, str, pos);
        } else {
          NATIX_ASSIGN_OR_RETURN(uint16_t len, Emit(*s.children[2]));
          EmitIns(OpCode::kSubstring3, reg, str, pos, len);
        }
        return reg;
      }
      case FunctionId::kStringLength:
        return unary(OpCode::kStringLength);
      case FunctionId::kNormalizeSpace:
        return unary(OpCode::kNormalizeSpace);
      case FunctionId::kTranslate: {
        NATIX_ASSIGN_OR_RETURN(uint16_t str, Emit(*s.children[0]));
        NATIX_ASSIGN_OR_RETURN(uint16_t from, Emit(*s.children[1]));
        NATIX_ASSIGN_OR_RETURN(uint16_t to, Emit(*s.children[2]));
        uint16_t reg = NewRegister();
        EmitIns(OpCode::kTranslate, reg, str, from, to);
        return reg;
      }
      case FunctionId::kFloor:
        return unary(OpCode::kFloor);
      case FunctionId::kCeiling:
        return unary(OpCode::kCeiling);
      case FunctionId::kRound:
        return unary(OpCode::kRound);
      case FunctionId::kLang:
        return binary(OpCode::kLang);
      case FunctionId::kRootInternal:
        return unary(OpCode::kRoot);
      default:
        return Status::Internal(
            std::string("function has no NVM lowering: ") +
            xpath::FunctionInfoFor(s.function).name);
    }
  }

  const AttrResolver& resolve_attr_;
  const NestedRegistrar& register_nested_;
  Program program_;
  uint16_t next_register_ = 0;
};

}  // namespace

StatusOr<Program> CompileScalar(const Scalar& scalar,
                                const AttrResolver& resolve_attr,
                                const NestedRegistrar& register_nested) {
  AssemblerImpl impl(resolve_attr, register_nested);
  return impl.Compile(scalar);
}

}  // namespace natix::nvm
