// Tests for the static structure of NVM bytecode: hand-built programs
// pin the basic-block CFG (leaders, edges, reachability) and the
// symbolic listing shared by the Layer-3 verifier and --dump-nvm.

#include "analysis/nvm_dataflow.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace natix::analysis {
namespace {

using nvm::Instruction;
using nvm::OpCode;
using nvm::Program;
using runtime::Value;

Instruction Ins(OpCode op, uint16_t a = 0, uint16_t b = 0, uint16_t c = 0,
                uint16_t d = 0) {
  return Instruction{op, a, b, c, d};
}

Program MakeProgram(std::vector<Instruction> code, uint16_t register_count,
                    std::vector<Value> constants = {}) {
  Program program;
  program.code = std::move(code);
  program.register_count = register_count;
  program.constants = std::move(constants);
  return program;
}

// ---------------------------------------------------------------------------
// CFG
// ---------------------------------------------------------------------------

TEST(NvmCfgTest, BlocksLabelsAndReachability) {
  // if (c0) r1 = c1 else r1 = c0 — a diamond of four blocks.
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kJumpIfTrue, 0, 4),
       Ins(OpCode::kLoadConst, 1, 0), Ins(OpCode::kJump, 0, 5),
       Ins(OpCode::kLoadConst, 1, 1), Ins(OpCode::kHalt, 1)},
      2, {Value::Boolean(true), Value::Number(7)});
  NvmCfg cfg = NvmCfg::Build(p);
  ASSERT_EQ(cfg.blocks.size(), 4u);
  EXPECT_EQ(cfg.block_of[0], cfg.block_of[1]);  // 0-1 share a block
  EXPECT_NE(cfg.block_of[1], cfg.block_of[2]);
  EXPECT_EQ(cfg.LabelAt(0), "L0");
  EXPECT_EQ(cfg.LabelAt(1), "");  // not a leader
  EXPECT_EQ(cfg.LabelAt(4), "L2");
  for (size_t pc = 0; pc < p.code.size(); ++pc) {
    EXPECT_TRUE(cfg.Reachable(pc)) << "pc " << pc;
  }
  // The entry block branches to both arms; both arms flow into the exit.
  const NvmCfg::Block& entry = cfg.blocks[cfg.block_of[0]];
  ASSERT_EQ(entry.succs.size(), 2u);
  const NvmCfg::Block& exit = cfg.blocks[cfg.block_of[5]];
  EXPECT_EQ(exit.preds.size(), 2u);
}

TEST(NvmCfgTest, MarksUnreachableBlocks) {
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kJump, 0, 3),
       Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kHalt, 0)},
      1, {Value::Number(1)});
  NvmCfg cfg = NvmCfg::Build(p);
  EXPECT_TRUE(cfg.Reachable(0));
  EXPECT_FALSE(cfg.Reachable(2));
  EXPECT_TRUE(cfg.Reachable(3));
}

// ---------------------------------------------------------------------------
// Listing
// ---------------------------------------------------------------------------

TEST(NvmRenderTest, ListingCarriesLabelsAndOperands) {
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kJumpIfTrue, 0, 2),
       Ins(OpCode::kHalt, 0)},
      1, {Value::Boolean(true)});
  std::string listing = RenderNvmProgram(p);
  EXPECT_NE(listing.find("L0:"), std::string::npos);
  EXPECT_NE(listing.find("jump_if_true r0 -> L1"), std::string::npos);
  EXPECT_NE(listing.find("load_const r0, true"), std::string::npos);
}

}  // namespace
}  // namespace natix::analysis
