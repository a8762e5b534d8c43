#include "nvm/program.h"

namespace natix::nvm {

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kLoadConst:
      return "load_const";
    case OpCode::kLoadAttr:
      return "load_attr";
    case OpCode::kLoadVar:
      return "load_var";
    case OpCode::kAdd:
      return "add";
    case OpCode::kSub:
      return "sub";
    case OpCode::kMul:
      return "mul";
    case OpCode::kDiv:
      return "div";
    case OpCode::kMod:
      return "mod";
    case OpCode::kNeg:
      return "neg";
    case OpCode::kNot:
      return "not";
    case OpCode::kToBool:
      return "to_bool";
    case OpCode::kToNum:
      return "to_num";
    case OpCode::kToStr:
      return "to_str";
    case OpCode::kCompare:
      return "compare";
    case OpCode::kJump:
      return "jump";
    case OpCode::kJumpIfTrue:
      return "jump_if_true";
    case OpCode::kJumpIfFalse:
      return "jump_if_false";
    case OpCode::kConcat2:
      return "concat2";
    case OpCode::kStartsWith:
      return "starts_with";
    case OpCode::kContains:
      return "contains";
    case OpCode::kSubstringBefore:
      return "substring_before";
    case OpCode::kSubstringAfter:
      return "substring_after";
    case OpCode::kSubstring2:
      return "substring2";
    case OpCode::kSubstring3:
      return "substring3";
    case OpCode::kStringLength:
      return "string_length";
    case OpCode::kNormalizeSpace:
      return "normalize_space";
    case OpCode::kTranslate:
      return "translate";
    case OpCode::kFloor:
      return "floor";
    case OpCode::kCeiling:
      return "ceiling";
    case OpCode::kRound:
      return "round";
    case OpCode::kRoot:
      return "root";
    case OpCode::kNodeName:
      return "node_name";
    case OpCode::kNodeLocalName:
      return "node_local_name";
    case OpCode::kLang:
      return "lang";
    case OpCode::kEvalNested:
      return "eval_nested";
    case OpCode::kHalt:
      return "halt";
    case OpCode::kCmpAttrConst:
      return "cmp_attr_const";
  }
  return "?";
}

}  // namespace natix::nvm
