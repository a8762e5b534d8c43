#ifndef NATIX_ANALYSIS_NVM_DATAFLOW_H_
#define NATIX_ANALYSIS_NVM_DATAFLOW_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nvm/program.h"

// Static structure of NVM bytecode: the operand-role model the Layer-3
// verifier checks every instruction against, a basic-block CFG built
// from the jump targets, and the symbolic listing shared by the
// verifier diagnostics and natixq --dump-nvm.
//
// NVM programs are tiny (a subscript compiles to tens of instructions);
// the CFG exists for reachability and for the labeled disassembly.

namespace natix::analysis {

/// Operand roles of one NVM instruction, derived from the VM's dispatch
/// loop: which fields name frame registers (read/written), table
/// indices, or jump targets. `read_fields` points at the Instruction
/// members holding the read registers, so consumers walk the reads
/// without re-encoding the per-opcode field layout.
struct NvmOperandRoles {
  using Field = uint16_t nvm::Instruction::*;
  Field read_fields[3] = {nullptr, nullptr, nullptr};
  int read_count = 0;
  bool writes_a = false;
  bool const_b = false;    // b indexes program.constants
  bool var_b = false;      // b indexes program.variable_names
  bool attr_b = false;     // b indexes the plan (tuple) register file
  bool nested_b = false;   // b indexes the nested-iterator table
  bool jump_b = false;     // b is a jump target
  bool const_c = false;    // c indexes program.constants (kCmpAttrConst)
  bool cmp_d = false;      // d encodes a runtime::CompareOp
  /// d additionally carries the operand-swap flag in bit 8
  /// (kCmpAttrConst).
  bool cmp_flag_d = false;

  uint16_t read(const nvm::Instruction& ins, int i) const {
    return ins.*read_fields[i];
  }
};

NvmOperandRoles NvmRolesOf(const nvm::Instruction& ins);

/// Fall-through/branch successors of the instruction at `pc` (indices
/// into program.code; kHalt has none).
void NvmSuccessors(const nvm::Program& program, size_t pc,
                   std::vector<size_t>* out);

/// Basic-block CFG: block leaders are the entry, every jump target, and
/// every instruction after a (conditional) branch.
struct NvmCfg {
  struct Block {
    size_t begin = 0;  ///< first pc of the block
    size_t end = 0;    ///< one past the last pc
    std::vector<size_t> succs;  ///< successor block indices
    std::vector<size_t> preds;  ///< predecessor block indices
    bool reachable = false;     ///< reachable from the entry block
  };
  std::vector<Block> blocks;
  /// pc -> index of the containing block.
  std::vector<size_t> block_of;

  static NvmCfg Build(const nvm::Program& program);

  /// "L<i>" when `pc` starts a block, "" otherwise.
  std::string LabelAt(size_t pc) const;
  bool Reachable(size_t pc) const { return blocks[block_of[pc]].reachable; }
};

/// Symbolic rendering of one instruction: opcode name, register
/// operands, resolved constants/variables, comparison mnemonics. Shared
/// by the Layer-3 verifier diagnostics and --dump-nvm.
std::string RenderNvmInstruction(const nvm::Program& program, size_t pc);

/// Full symbolic listing with basic-block labels ("L<i>:") and labeled
/// jump targets.
std::string RenderNvmProgram(const nvm::Program& program);

}  // namespace natix::analysis

#endif  // NATIX_ANALYSIS_NVM_DATAFLOW_H_
