#include "analysis/nvm_dataflow.h"

#include <algorithm>
#include <deque>

#include "runtime/conversions.h"

namespace natix::analysis {

namespace {

using nvm::Instruction;
using nvm::OpCode;
using nvm::Program;

}  // namespace

NvmOperandRoles NvmRolesOf(const Instruction& ins) {
  NvmOperandRoles roles;
  auto read = [&roles](NvmOperandRoles::Field field) {
    roles.read_fields[roles.read_count++] = field;
  };
  switch (ins.op) {
    case OpCode::kLoadConst:
      roles.writes_a = true;
      roles.const_b = true;
      break;
    case OpCode::kLoadAttr:
      roles.writes_a = true;
      roles.attr_b = true;
      break;
    case OpCode::kLoadVar:
      roles.writes_a = true;
      roles.var_b = true;
      break;
    case OpCode::kAdd:
    case OpCode::kSub:
    case OpCode::kMul:
    case OpCode::kDiv:
    case OpCode::kMod:
    case OpCode::kConcat2:
    case OpCode::kStartsWith:
    case OpCode::kContains:
    case OpCode::kSubstringBefore:
    case OpCode::kSubstringAfter:
    case OpCode::kSubstring2:
    case OpCode::kLang:
      roles.writes_a = true;
      read(&Instruction::b);
      read(&Instruction::c);
      break;
    case OpCode::kCompare:
      roles.writes_a = true;
      read(&Instruction::b);
      read(&Instruction::c);
      roles.cmp_d = true;
      break;
    case OpCode::kSubstring3:
    case OpCode::kTranslate:
      roles.writes_a = true;
      read(&Instruction::b);
      read(&Instruction::c);
      read(&Instruction::d);
      break;
    case OpCode::kNeg:
    case OpCode::kNot:
    case OpCode::kToBool:
    case OpCode::kToNum:
    case OpCode::kToStr:
    case OpCode::kStringLength:
    case OpCode::kNormalizeSpace:
    case OpCode::kFloor:
    case OpCode::kCeiling:
    case OpCode::kRound:
    case OpCode::kRoot:
    case OpCode::kNodeName:
    case OpCode::kNodeLocalName:
      roles.writes_a = true;
      read(&Instruction::b);
      break;
    case OpCode::kJump:
      roles.jump_b = true;
      break;
    case OpCode::kJumpIfTrue:
    case OpCode::kJumpIfFalse:
      read(&Instruction::a);
      roles.jump_b = true;
      break;
    case OpCode::kEvalNested:
      roles.writes_a = true;
      roles.nested_b = true;
      break;
    case OpCode::kHalt:
      read(&Instruction::a);
      break;
    case OpCode::kCmpAttrConst:
      roles.writes_a = true;
      roles.attr_b = true;
      roles.const_c = true;
      roles.cmp_d = true;
      roles.cmp_flag_d = true;
      break;
  }
  return roles;
}

void NvmSuccessors(const Program& program, size_t pc,
                   std::vector<size_t>* out) {
  out->clear();
  const Instruction& ins = program.code[pc];
  switch (ins.op) {
    case OpCode::kHalt:
      break;
    case OpCode::kJump:
      out->push_back(ins.b);
      break;
    case OpCode::kJumpIfTrue:
    case OpCode::kJumpIfFalse:
      out->push_back(ins.b);
      if (pc + 1 < program.code.size()) out->push_back(pc + 1);
      break;
    default:
      if (pc + 1 < program.code.size()) out->push_back(pc + 1);
      break;
  }
}

NvmCfg NvmCfg::Build(const Program& program) {
  NvmCfg cfg;
  const size_t n = program.code.size();
  if (n == 0) return cfg;

  // Leaders: the entry, every jump target, and every fall-through
  // successor of an instruction that also branches elsewhere (or ends
  // the block).
  std::vector<bool> leader(n, false);
  leader[0] = true;
  std::vector<size_t> succs;
  for (size_t pc = 0; pc < n; ++pc) {
    const Instruction& ins = program.code[pc];
    NvmOperandRoles roles = NvmRolesOf(ins);
    if (roles.jump_b && ins.b < n) leader[ins.b] = true;
    const bool ends_block = ins.op == OpCode::kJump ||
                            ins.op == OpCode::kJumpIfTrue ||
                            ins.op == OpCode::kJumpIfFalse ||
                            ins.op == OpCode::kHalt;
    if (ends_block && pc + 1 < n) leader[pc + 1] = true;
  }

  cfg.block_of.assign(n, 0);
  for (size_t pc = 0; pc < n; ++pc) {
    if (leader[pc]) {
      Block block;
      block.begin = pc;
      cfg.blocks.push_back(block);
    }
    cfg.block_of[pc] = cfg.blocks.size() - 1;
    cfg.blocks.back().end = pc + 1;
  }

  for (size_t b = 0; b < cfg.blocks.size(); ++b) {
    const size_t last = cfg.blocks[b].end - 1;
    NvmSuccessors(program, last, &succs);
    for (size_t succ_pc : succs) {
      size_t succ = cfg.block_of[succ_pc];
      if (std::find(cfg.blocks[b].succs.begin(), cfg.blocks[b].succs.end(),
                    succ) == cfg.blocks[b].succs.end()) {
        cfg.blocks[b].succs.push_back(succ);
        cfg.blocks[succ].preds.push_back(b);
      }
    }
  }

  std::deque<size_t> worklist;
  cfg.blocks[0].reachable = true;
  worklist.push_back(0);
  while (!worklist.empty()) {
    size_t b = worklist.front();
    worklist.pop_front();
    for (size_t succ : cfg.blocks[b].succs) {
      if (!cfg.blocks[succ].reachable) {
        cfg.blocks[succ].reachable = true;
        worklist.push_back(succ);
      }
    }
  }
  return cfg;
}

std::string NvmCfg::LabelAt(size_t pc) const {
  size_t b = block_of[pc];
  if (blocks[b].begin != pc) return std::string();
  return "L" + std::to_string(b);
}

namespace {

std::string RenderTarget(const NvmCfg* cfg, size_t target) {
  if (cfg != nullptr && target < cfg->block_of.size()) {
    std::string label = cfg->LabelAt(target);
    if (!label.empty()) return "-> " + label;
  }
  return "-> @" + std::to_string(target);
}

std::string RenderInstruction(const Program& program, size_t pc,
                              const NvmCfg* cfg) {
  const Instruction& ins = program.code[pc];
  std::string out = OpCodeName(ins.op);
  auto reg = [](uint16_t r) { return " r" + std::to_string(r); };
  auto cmp_name = [](uint16_t d) {
    return std::string(
        runtime::CompareOpName(static_cast<runtime::CompareOp>(d & 0xFF)));
  };
  switch (ins.op) {
    case OpCode::kLoadConst:
      out += reg(ins.a) + ", " +
             (ins.b < program.constants.size()
                  ? program.constants[ins.b].DebugString()
                  : "c?" + std::to_string(ins.b));
      break;
    case OpCode::kLoadAttr:
      out += reg(ins.a) + ", t" + std::to_string(ins.b);
      break;
    case OpCode::kLoadVar:
      out += reg(ins.a) + ", $" +
             (ins.b < program.variable_names.size()
                  ? program.variable_names[ins.b]
                  : "?" + std::to_string(ins.b));
      break;
    case OpCode::kCompare:
      out += reg(ins.a) + "," + reg(ins.b) + " " + cmp_name(ins.d) +
             reg(ins.c);
      break;
    case OpCode::kJump:
      out += " " + RenderTarget(cfg, ins.b);
      break;
    case OpCode::kJumpIfTrue:
    case OpCode::kJumpIfFalse:
      out += reg(ins.a) + " " + RenderTarget(cfg, ins.b);
      break;
    case OpCode::kEvalNested:
      out += reg(ins.a) + ", nested#" + std::to_string(ins.b);
      break;
    case OpCode::kHalt:
      out += reg(ins.a);
      break;
    case OpCode::kCmpAttrConst: {
      std::string attr = "t" + std::to_string(ins.b);
      std::string constant = ins.c < program.constants.size()
                                 ? program.constants[ins.c].DebugString()
                                 : "c?" + std::to_string(ins.c);
      bool swapped = (ins.d & nvm::kCmpFlagBit) != 0;
      out += reg(ins.a) + ", " + (swapped ? constant : attr) + " " +
             cmp_name(ins.d) + " " + (swapped ? attr : constant);
      break;
    }
    default: {
      NvmOperandRoles roles = NvmRolesOf(ins);
      out += reg(ins.a);
      for (int i = 0; i < roles.read_count; ++i) {
        out += "," + reg(roles.read(ins, i));
      }
      break;
    }
  }
  return out;
}

}  // namespace

std::string RenderNvmInstruction(const Program& program, size_t pc) {
  return RenderInstruction(program, pc, nullptr);
}

std::string RenderNvmProgram(const Program& program) {
  if (program.code.empty()) return "(empty program)\n";
  NvmCfg cfg = NvmCfg::Build(program);
  std::string out;
  for (size_t pc = 0; pc < program.code.size(); ++pc) {
    std::string label = cfg.LabelAt(pc);
    if (!label.empty()) {
      out += label + ":";
      if (!cfg.Reachable(pc)) out += "  ; unreachable";
      out += "\n";
    }
    out += "  " + std::to_string(pc) + ": " +
           RenderInstruction(program, pc, &cfg) + "\n";
  }
  return out;
}

}  // namespace natix::analysis
