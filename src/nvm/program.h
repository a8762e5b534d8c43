#ifndef NATIX_NVM_PROGRAM_H_
#define NATIX_NVM_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/value.h"

namespace natix::nvm {

/// Opcodes of the Natix Virtual Machine: an assembler-like register
/// program evaluating the non-sequence-valued subscripts of the physical
/// algebra (Sec. 5.2.2). Registers hold runtime::Value. `a` is always the
/// destination.
enum class OpCode : uint8_t {
  kLoadConst,   // r[a] = consts[b]
  kLoadAttr,    // r[a] = tuple registers[b] (attribute access)
  kLoadVar,     // r[a] = execution-context variable names[b]
  // Arithmetic (operands converted with number()):
  kAdd,         // r[a] = r[b] + r[c]
  kSub,
  kMul,
  kDiv,
  kMod,
  kNeg,         // r[a] = -r[b]
  // Boolean:
  kNot,         // r[a] = not boolean(r[b])
  kToBool,      // r[a] = boolean(r[b])
  kToNum,       // r[a] = number(r[b])
  kToStr,       // r[a] = string(r[b])
  kCompare,     // r[a] = r[b] <cmp d> r[c]  (atomic promotion rules)
  // Control flow (short-circuit and/or):
  kJump,        // pc = b
  kJumpIfTrue,  // if boolean(r[a]) pc = b
  kJumpIfFalse, // if not boolean(r[a]) pc = b
  // String functions:
  kConcat2,        // r[a] = string(r[b]) + string(r[c])
  kStartsWith,     // r[a] = starts-with(r[b], r[c])
  kContains,
  kSubstringBefore,
  kSubstringAfter,
  kSubstring2,     // r[a] = substring(r[b], r[c])         (XPath rounding)
  kSubstring3,     // r[a] = substring(r[b], r[c], r[d])
  kStringLength,   // r[a] = string-length(r[b])
  kNormalizeSpace,
  kTranslate,      // r[a] = translate(r[b], r[c], r[d])
  // Number functions:
  kFloor,
  kCeiling,
  kRound,
  // Node navigation against the page buffer (Sec. 5.2.2):
  kRoot,           // r[a] = document node of node r[b]
  kNodeName,       // r[a] = name of node r[b] ("" for unnamed kinds)
  kNodeLocalName,  // r[a] = local part of the name of node r[b]
  kLang,           // r[a] = lang-test(string r[b], context node r[c])
  // Nested iterator access (Sec. 5.2.3):
  kEvalNested,     // r[a] = aggregated result of nested plan #b
  kHalt,           // return r[a]
  // Emitted by the assembler for every compare of a tuple attribute with
  // a literal. d bits 0-7 encode the runtime::CompareOp; d bit 8 swaps
  // the operand order (constant on the left). A node compared for
  // (in)equality with a string runs in place on the buffer pages.
  kCmpAttrConst    // r[a] = tuple[b] <cmp d&0xFF> consts[c]
};

/// Flag bit 8 of the d operand of kCmpAttrConst (operand swap).
inline constexpr uint16_t kCmpFlagBit = 0x100;

const char* OpCodeName(OpCode op);

struct Instruction {
  OpCode op = OpCode::kHalt;
  uint16_t a = 0;
  uint16_t b = 0;
  uint16_t c = 0;
  uint16_t d = 0;  // third operand / comparison op / jump slack
};

/// A compiled NVM program.
struct Program {
  std::vector<Instruction> code;
  std::vector<runtime::Value> constants;
  /// Execution-context variable names referenced by kLoadVar.
  std::vector<std::string> variable_names;
  /// Number of NVM registers the program uses.
  uint16_t register_count = 0;
};

}  // namespace natix::nvm

#endif  // NATIX_NVM_PROGRAM_H_
