// Tests for the lock-order ledger (src/obs/lock_ledger.h): opposing
// acquisition orders across threads must surface as a cycle in the
// class-level acquisition graph, same-class instances taken out of
// ascending order must count as violations, and the /statusz JSON
// export must carry the evidence. Threads use private mutex instances
// (no real contention) so the test records the deadlock-prone *order*
// without ever being able to deadlock itself.

#include "obs/lock_ledger.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace natix::obs {
namespace {

#if !defined(NATIX_OBS_DISABLED)

class LockLedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ledger_ = &LockLedger::Global();
    saved_mode_ = ledger_->mode();
    ledger_->set_mode(LockLedger::Mode::kRecord);
    ledger_->Reset();
  }
  void TearDown() override {
    ledger_->Reset();
    ledger_->set_mode(saved_mode_);
  }

  LockLedger* ledger_ = nullptr;
  LockLedger::Mode saved_mode_ = LockLedger::Mode::kOff;
};

TEST_F(LockLedgerTest, OpposingOrdersAcrossEightThreadsReportACycle) {
  // Half the threads acquire shard-A -> plan-cache -> shard-B, the other
  // half shard-B -> plan-cache -> shard-A: class-level edges
  // buffer_shard -> plan_cache and plan_cache -> buffer_shard, a cycle
  // (and a latent deadlock) no single execution exhibits.
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([t] {
      std::mutex shard_a, cache, shard_b;
      for (int i = 0; i < 100; ++i) {
        if (t % 2 == 0) {
          LedgeredMutexLock a(shard_a, LockClass::kBufferShard, 1);
          LedgeredMutexLock c(cache, LockClass::kPlanCache);
          LedgeredMutexLock b(shard_b, LockClass::kBufferShard, 2);
        } else {
          LedgeredMutexLock b(shard_b, LockClass::kBufferShard, 2);
          LedgeredMutexLock c(cache, LockClass::kPlanCache);
          LedgeredMutexLock a(shard_a, LockClass::kBufferShard, 1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(ledger_->HasCycle());
  const std::vector<std::string> cycles = ledger_->Cycles();
  ASSERT_FALSE(cycles.empty());
  bool named = false;
  for (const std::string& cycle : cycles) {
    if (cycle.find("buffer_shard") != std::string::npos &&
        cycle.find("plan_cache") != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named) << "cycle listing: " << cycles.front();
  // The odd threads also took shard instance 1 while holding instance 2.
  EXPECT_GT(ledger_->order_violations(), 0u);

  const std::string json = ledger_->GraphJson();
  EXPECT_NE(json.find("\"cycles\":[\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"from\":\"plan_cache\",\"to\":\"buffer_shard\""),
            std::string::npos)
      << json;
}

TEST_F(LockLedgerTest, NestedOrderWithoutOpposersIsClean) {
  std::mutex alloc, shard, cache;
  for (int i = 0; i < 10; ++i) {
    LedgeredMutexLock a(alloc, LockClass::kBufferAlloc);
    LedgeredMutexLock s(shard, LockClass::kBufferShard, 1);
  }
  {
    LedgeredMutexLock c(cache, LockClass::kPlanCache);
  }
  EXPECT_FALSE(ledger_->HasCycle());
  EXPECT_TRUE(ledger_->Cycles().empty());
  EXPECT_EQ(ledger_->order_violations(), 0u);
  const std::string json = ledger_->GraphJson();
  EXPECT_NE(json.find("\"from\":\"buffer_alloc\",\"to\":\"buffer_shard\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cycles\":[]"), std::string::npos) << json;
}

TEST_F(LockLedgerTest, AscendingSameClassInstancesAreSanctioned) {
  // BufferManager::Snapshot's pattern: every shard, in index order.
  std::mutex shards[4];
  {
    std::vector<std::unique_ptr<LedgeredMutexLock>> locks;
    for (int s = 0; s < 4; ++s) {
      locks.push_back(std::make_unique<LedgeredMutexLock>(
          shards[s], LockClass::kBufferShard,
          static_cast<uintptr_t>(s + 1)));
    }
  }
  EXPECT_EQ(ledger_->order_violations(), 0u);
  EXPECT_FALSE(ledger_->HasCycle());
}

TEST_F(LockLedgerTest, DescendingSameClassInstancesViolate) {
  std::mutex shard_hi, shard_lo;
  {
    LedgeredMutexLock hi(shard_hi, LockClass::kBufferShard, 2);
    LedgeredMutexLock lo(shard_lo, LockClass::kBufferShard, 1);
  }
  EXPECT_EQ(ledger_->order_violations(), 1u);
}

TEST_F(LockLedgerTest, OffModeRecordsNothing) {
  ledger_->set_mode(LockLedger::Mode::kOff);
  std::mutex a, b;
  {
    LedgeredMutexLock l1(a, LockClass::kPlanCache);
    LedgeredMutexLock l2(b, LockClass::kAdmission);
  }
  ledger_->set_mode(LockLedger::Mode::kRecord);
  const std::string json = ledger_->GraphJson();
  EXPECT_NE(json.find("\"edges\":[]"), std::string::npos) << json;
}

TEST_F(LockLedgerTest, ContendedAcquisitionsChargeWaitToTheirClass) {
  // One thread holds the mutex for 30 ms while this one blocks on it: a
  // contended acquisition of plan_cache with a nonzero wait. Retried in
  // case a loaded host schedules this thread only after the holder let
  // go (then try_lock succeeds and nothing is charged).
  std::mutex mu;
  for (int attempt = 0; attempt < 20; ++attempt) {
    std::atomic<bool> held{false};
    std::thread holder([&] {
      LedgeredMutexLock lock(mu, LockClass::kPlanCache);
      held.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    });
    while (!held.load()) std::this_thread::yield();
    { LedgeredUniqueLock waiter(mu, LockClass::kPlanCache); }
    holder.join();
    if (ledger_->wait(LockClass::kPlanCache).contended > 0) break;
  }
  const LockWait wait = ledger_->wait(LockClass::kPlanCache);
  EXPECT_GE(wait.contended, 1u);
  EXPECT_GT(wait.wait_ns, 0u);
  // Uncontended acquisitions charge nothing to their class.
  EXPECT_EQ(ledger_->wait(LockClass::kBufferShard).contended, 0u);
  const std::string json = ledger_->WaitJson();
  EXPECT_NE(json.find("\"plan_cache\":{\"contended\":"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"buffer_shard\":{\"contended\":0,\"wait_ns\":0}"),
            std::string::npos)
      << json;
}

#else  // NATIX_OBS_DISABLED

TEST(LockLedgerTest, DisabledBuildKeepsTheSurface) {
  std::mutex mu;
  {
    LedgeredMutexLock lock(mu, LockClass::kPlanCache);
  }
  EXPECT_FALSE(LockLedger::Global().HasCycle());
  EXPECT_EQ(LockLedger::Global().GraphJson(), "{\"disabled\":true}");
  EXPECT_EQ(LockLedger::Global().wait(LockClass::kPlanCache).contended, 0u);
}

#endif  // NATIX_OBS_DISABLED

}  // namespace
}  // namespace natix::obs
