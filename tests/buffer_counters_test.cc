// Buffer-manager counter semantics: the page hit/miss/write/eviction
// counters surfaced by the observability layer (src/obs) must match a
// hand-computed trace. A 4-frame pool is driven through allocation,
// re-fix, and CLOCK eviction; every counter is asserted exactly.

#include <gtest/gtest.h>

#include "obs/stats.h"
#include "storage/buffer_manager.h"
#include "storage/paged_file.h"

namespace natix::storage {
namespace {

TEST(BufferCountersTest, HandComputedTraceUnderFourPagePool) {
  auto file = PagedFile::OpenTemp();
  ASSERT_TRUE(file.ok());
  BufferManager bm(file->get(), 4);

  // Phase 1: allocate six pages p0..p5, dropping each pin immediately
  // (which sets the frame's reference bit). p0..p3 fill frames 0..3.
  // p4's claim: the hand clears all four reference bits in one turn and
  // takes frame 0 (p0); p5's takes frame 1 (p1), unreferenced since that
  // turn. NewPage marks frames dirty, so both evictions write back a
  // page. Fresh allocations are not faults: nothing is read from the
  // file. Frames: {p4, p5, p2, p3}, hand at frame 2.
  PageId ids[6];
  for (int i = 0; i < 6; ++i) {
    auto page = bm.NewPage();
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    page->mutable_data()[0] = static_cast<uint8_t>(i + 1);
    ids[i] = page->page_id();
  }
  EXPECT_EQ(bm.fault_count(), 0u);
  EXPECT_EQ(bm.hit_count(), 0u);
  EXPECT_EQ(bm.eviction_count(), 2u);
  EXPECT_EQ(bm.write_count(), 2u);

  // Phase 2: p0 left the pool, so fixing it faults it back in. The hand
  // is at frame 2, whose p2 is unreferenced: it is evicted (dirty: third
  // write-back). Frames: {p4, p5, p0, p3}, hand at frame 3.
  {
    auto page = bm.FixPage(ids[0]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->data()[0], 1);  // written back at eviction, reloaded
  }
  EXPECT_EQ(bm.fault_count(), 1u);
  EXPECT_EQ(bm.eviction_count(), 3u);
  EXPECT_EQ(bm.write_count(), 3u);

  // Phase 3: p0 and p3 are resident — two hits, no I/O; both frames are
  // referenced again.
  { auto page = bm.FixPage(ids[0]); ASSERT_TRUE(page.ok()); }
  { auto page = bm.FixPage(ids[3]); ASSERT_TRUE(page.ok()); }
  EXPECT_EQ(bm.hit_count(), 2u);
  EXPECT_EQ(bm.fault_count(), 1u);

  // Phase 4: p1 is not resident. Every frame is referenced, so the hand
  // (from frame 3) clears all four bits in one turn and comes back to
  // frame 3: the fault evicts dirty p3. Frames: {p4, p5, p0, p1}.
  {
    auto page = bm.FixPage(ids[1]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->data()[0], 2);
  }
  EXPECT_EQ(bm.fault_count(), 2u);
  EXPECT_EQ(bm.eviction_count(), 4u);
  EXPECT_EQ(bm.write_count(), 4u);

  // Phase 5: FlushAll writes exactly the dirty residents. p4 and p5 are
  // dirty since creation; p0 and p1 were reloaded from disk (clean).
  ASSERT_TRUE(bm.FlushAll().ok());
  EXPECT_EQ(bm.write_count(), 6u);
  ASSERT_TRUE(bm.FlushAll().ok());
  EXPECT_EQ(bm.write_count(), 6u);  // second flush: nothing dirty

  // The obs snapshot mirrors the four counters field by field.
  obs::BufferCounters snap = obs::CaptureBufferCounters(&bm);
  EXPECT_EQ(snap.page_reads, bm.fault_count());
  EXPECT_EQ(snap.page_hits, bm.hit_count());
  EXPECT_EQ(snap.page_writes, bm.write_count());
  EXPECT_EQ(snap.evictions, bm.eviction_count());
}

TEST(BufferCountersTest, NullBufferCapturesZero) {
  obs::BufferCounters snap = obs::CaptureBufferCounters(nullptr);
  EXPECT_EQ(snap.page_reads, 0u);
  EXPECT_EQ(snap.page_hits, 0u);
  EXPECT_EQ(snap.page_writes, 0u);
  EXPECT_EQ(snap.evictions, 0u);
}

}  // namespace
}  // namespace natix::storage
