#include "storage/buffer_manager.h"

#include <bit>
#include <cstring>
#include <memory>
#include <thread>

#include "base/logging.h"
#include "obs/lock_ledger.h"

namespace natix::storage {

namespace {

/// Ledger instance id of shard `s`: 1-based so 0 keeps its "use the
/// mutex address" meaning in the guard, and ascending with the index —
/// the order Snapshot() takes them in.
uintptr_t ShardInstance(size_t s) { return static_cast<uintptr_t>(s + 1); }

thread_local PageCounters tls_page_counters;

// Page-table slots pack (page id << 32 | frame index); a free slot holds
// kInvalidPage as its page, which is never mapped.
constexpr uint64_t kEmptySlot = ~uint64_t{0};

uint64_t PackSlot(PageId id, size_t frame) {
  return (static_cast<uint64_t>(id) << 32) | static_cast<uint64_t>(frame);
}
PageId SlotPage(uint64_t slot) { return static_cast<PageId>(slot >> 32); }
size_t SlotFrame(uint64_t slot) {
  return static_cast<size_t>(slot & 0xFFFFFFFFu);
}
/// Fibonacci hashing: page ids are dense and strided by the shard
/// count; the multiply spreads them over the table's low bits.
size_t SlotHash(PageId id) {
  return static_cast<size_t>((static_cast<uint64_t>(id) *
                              0x9E3779B97F4A7C15ull) >> 32);
}

}  // namespace

PageHandle::PageHandle(const PageHandle& other)
    : manager_(other.manager_), page_id_(other.page_id_),
      frame_(other.frame_) {
  if (manager_ != nullptr) manager_->Pin(frame_);
}

PageHandle& PageHandle::operator=(const PageHandle& other) {
  if (this == &other) return *this;
  Release();
  manager_ = other.manager_;
  page_id_ = other.page_id_;
  frame_ = other.frame_;
  if (manager_ != nullptr) manager_->Pin(frame_);
  return *this;
}

PageHandle::PageHandle(PageHandle&& other) noexcept
    : manager_(other.manager_), page_id_(other.page_id_),
      frame_(other.frame_) {
  other.manager_ = nullptr;
}

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this == &other) return *this;
  Release();
  manager_ = other.manager_;
  page_id_ = other.page_id_;
  frame_ = other.frame_;
  other.manager_ = nullptr;
  return *this;
}

PageHandle::~PageHandle() { Release(); }

void PageHandle::Release() {
  if (manager_ != nullptr) {
    manager_->Unpin(frame_);
    manager_ = nullptr;
  }
}

const uint8_t* PageHandle::data() const {
  NATIX_DCHECK(valid());
  return manager_->frames_[frame_].data;
}

uint8_t* PageHandle::mutable_data() {
  NATIX_DCHECK(valid());
  manager_->frames_[frame_].dirty.store(true, std::memory_order_relaxed);
  return manager_->frames_[frame_].data;
}

BufferManager::BufferManager(PagedFile* file, size_t capacity, size_t shards)
    : file_(file),
      page_memory_(
          std::make_unique_for_overwrite<uint8_t[]>(capacity * kPageSize)),
      frames_(capacity),
      shards_(shards == 0 ? 1 : shards) {
  NATIX_CHECK(capacity >= shards_.size());
  NATIX_CHECK(capacity < 0xFFFFFFFFu);  // frame indices pack in 32 bits
  // Distribute frames over shards as evenly as possible; shard s owns a
  // contiguous run of global frame indices, which its hand walks in
  // order (so an empty pool hands out frames lowest-index-first).
  size_t next = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    shard.first_frame = next;
    shard.frame_count = capacity / shards_.size() +
                        (s < capacity % shards_.size() ? 1 : 0);
    for (size_t i = 0; i < shard.frame_count; ++i, ++next) {
      frames_[next].shard = static_cast<uint32_t>(s);
      frames_[next].data = page_memory_.get() + next * kPageSize;
    }
    const size_t slots = std::bit_ceil(2 * shard.frame_count);
    shard.table = std::make_unique<std::atomic<uint64_t>[]>(slots);
    for (size_t i = 0; i < slots; ++i) {
      shard.table[i].store(kEmptySlot, std::memory_order_relaxed);
    }
    shard.table_mask = slots - 1;
  }
}

BufferManager::~BufferManager() {
  // Best-effort write-back; callers that care about durability call
  // FlushAll explicitly and check the status.
  (void)FlushAll();
}

size_t BufferManager::Lookup(const Shard& shard, PageId id) const {
  // A probe racing a deletion's backward shift can miss an entry; that
  // only sends the caller to the locked path.
  for (size_t i = SlotHash(id) & shard.table_mask, probes = 0;
       probes <= shard.table_mask; i = (i + 1) & shard.table_mask, ++probes) {
    const uint64_t slot = shard.table[i].load(std::memory_order_relaxed);
    if (slot == kEmptySlot) return kNoFrame;
    if (SlotPage(slot) == id) return SlotFrame(slot);
  }
  return kNoFrame;
}

void BufferManager::InsertMapping(Shard& shard, PageId id, size_t frame) {
  size_t i = SlotHash(id) & shard.table_mask;
  while (shard.table[i].load(std::memory_order_relaxed) != kEmptySlot) {
    i = (i + 1) & shard.table_mask;
  }
  shard.table[i].store(PackSlot(id, frame), std::memory_order_relaxed);
}

void BufferManager::EraseMapping(Shard& shard, PageId id) {
  const size_t mask = shard.table_mask;
  size_t hole = SlotHash(id) & mask;
  while (SlotPage(shard.table[hole].load(std::memory_order_relaxed)) != id) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: move each later entry of the probe run
  // whose home slot does not lie cyclically in (hole, j] into the hole.
  for (size_t j = (hole + 1) & mask;; j = (j + 1) & mask) {
    const uint64_t slot = shard.table[j].load(std::memory_order_relaxed);
    if (slot == kEmptySlot) break;
    const size_t home = SlotHash(SlotPage(slot)) & mask;
    const bool stays = hole <= j ? (hole < home && home <= j)
                                 : (hole < home || home <= j);
    if (stays) continue;
    shard.table[hole].store(slot, std::memory_order_relaxed);
    hole = j;
  }
  shard.table[hole].store(kEmptySlot, std::memory_order_relaxed);
}

bool BufferManager::TryPin(size_t frame, PageId id) {
  Frame& f = frames_[frame];
  uint32_t pins = f.pin_count.load(std::memory_order_relaxed);
  do {
    if (pins == kEvicting) return false;
    // Acquire pairs with Publish's release: a pin taken after a reload
    // sees the reloaded page id and bytes.
  } while (!f.pin_count.compare_exchange_weak(pins, pins + 1,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed));
  // Held, the pin keeps the frame from being claimed, so the page id
  // cannot change under the check.
  if (f.page_id.load(std::memory_order_acquire) == id) return true;
  f.pin_count.fetch_sub(1, std::memory_order_release);
  return false;
}

void BufferManager::Pin(size_t frame) {
  // Only reachable by copying a valid handle: the frame is already
  // pinned, hence not claimable — a plain increment suffices.
  uint32_t prev =
      frames_[frame].pin_count.fetch_add(1, std::memory_order_relaxed);
  NATIX_DCHECK(prev > 0 && prev != kEvicting);
  (void)prev;
}

void BufferManager::Unpin(size_t frame) {
  Frame& f = frames_[frame];
  // The reference bit goes first, so the hand never sees the frame
  // unpinned without it; release pairs with ClaimFrame's acquire, so a
  // write-back sees the writer's bytes.
  f.referenced.store(true, std::memory_order_relaxed);
  uint32_t prev = f.pin_count.fetch_sub(1, std::memory_order_release);
  NATIX_DCHECK(prev > 0 && prev != kEvicting);
  (void)prev;
}

StatusOr<size_t> BufferManager::ClaimFrame(Shard& shard) {
  PageCounters& counters = ThreadPageCounters();
  // Two turns of the hand. The first gives referenced frames their
  // second chance (clearing the bit); the second takes any unpinned
  // frame, so hits that re-reference frames during the sweep cannot
  // starve it. A failed second turn is retried once after yielding: a
  // frame may carry a transient pin from a lock-free hit that is about
  // to back off.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (attempt > 0) std::this_thread::yield();
    for (size_t step = 0; step < 2 * shard.frame_count; ++step) {
      const size_t frame = shard.first_frame + shard.hand;
      if (++shard.hand == shard.frame_count) shard.hand = 0;
      Frame& f = frames_[frame];
      if (f.pin_count.load(std::memory_order_relaxed) != 0) continue;
      if (step < shard.frame_count &&
          f.referenced.exchange(false, std::memory_order_relaxed)) {
        continue;
      }
      uint32_t unpinned = 0;
      if (!f.pin_count.compare_exchange_strong(unpinned, kEvicting,
                                               std::memory_order_acquire,
                                               std::memory_order_relaxed)) {
        continue;  // pinned by a hit since the load above
      }
      const PageId victim = f.page_id.load(std::memory_order_relaxed);
      if (victim != kInvalidPage) {
        if (f.dirty.load(std::memory_order_relaxed)) {
          Status st = file_->WritePage(victim, f.data);
          if (!st.ok()) {
            f.pin_count.store(0, std::memory_order_release);
            return st;
          }
          f.dirty.store(false, std::memory_order_relaxed);
          shard.writes.fetch_add(1, std::memory_order_relaxed);
          ++counters.page_writes;
        }
        EraseMapping(shard, victim);
        --shard.resident;
        f.page_id.store(kInvalidPage, std::memory_order_relaxed);
        shard.evictions.fetch_add(1, std::memory_order_relaxed);
        ++counters.evictions;
      }
      f.referenced.store(false, std::memory_order_relaxed);
      return frame;
    }
  }
  return Status::ResourceExhausted(
      "buffer pool exhausted: all frames of the page's shard are pinned");
}

PageHandle BufferManager::Publish(Shard& shard, size_t frame, PageId id,
                                  bool dirty) {
  Frame& f = frames_[frame];
  f.dirty.store(dirty, std::memory_order_relaxed);
  f.page_id.store(id, std::memory_order_release);
  InsertMapping(shard, id, frame);
  ++shard.resident;
  // Ends the kEvicting state: hits may pin the frame from here on.
  f.pin_count.store(1, std::memory_order_release);
  return PageHandle(this, id, frame);
}

StatusOr<PageHandle> BufferManager::FixPage(PageId id) {
  const size_t shard_index = ShardOf(id);
  const size_t frame = Lookup(shards_[shard_index], id);
  if (frame != kNoFrame && TryPin(frame, id)) {
    frames_[frame].hits.fetch_add(1, std::memory_order_relaxed);
    ++ThreadPageCounters().page_hits;
    return PageHandle(this, id, frame);
  }
  return FixPageLocked(shard_index, id);
}

StatusOr<PageHandle> BufferManager::FixPageLocked(size_t shard_index,
                                                  PageId id) {
  Shard& shard = shards_[shard_index];
  obs::LedgeredMutexLock lock(shard.mutex, obs::LockClass::kBufferShard,
                              ShardInstance(shard_index));
  PageCounters& counters = ThreadPageCounters();
  size_t frame = Lookup(shard, id);
  if (frame != kNoFrame) {
    // Under the mutex no frame of this shard is being reloaded, so the
    // mapping is exact and the frame can be pinned directly.
    Frame& f = frames_[frame];
    f.pin_count.fetch_add(1, std::memory_order_acquire);
    f.hits.fetch_add(1, std::memory_order_relaxed);
    ++counters.page_hits;
    return PageHandle(this, id, frame);
  }
  shard.faults.fetch_add(1, std::memory_order_relaxed);
  ++counters.page_reads;
  NATIX_ASSIGN_OR_RETURN(frame, ClaimFrame(shard));
  Frame& f = frames_[frame];
  // The read runs under the shard lock: faults on one stripe serialize,
  // but hits, and faults on other stripes, proceed (PagedFile reads are
  // positioned pread calls, safe concurrently).
  Status st = file_->ReadPage(id, f.data);
  if (!st.ok()) {
    f.pin_count.store(0, std::memory_order_release);  // stays empty
    return st;
  }
  return Publish(shard, frame, id, /*dirty=*/false);
}

StatusOr<PageHandle> BufferManager::NewPage() {
  PageId id;
  {
    obs::LedgeredMutexLock alloc_lock(alloc_mutex_,
                                      obs::LockClass::kBufferAlloc);
    NATIX_ASSIGN_OR_RETURN(id, file_->AllocatePage());
  }
  const size_t shard_index = ShardOf(id);
  Shard& shard = shards_[shard_index];
  obs::LedgeredMutexLock lock(shard.mutex, obs::LockClass::kBufferShard,
                              ShardInstance(shard_index));
  NATIX_ASSIGN_OR_RETURN(size_t frame, ClaimFrame(shard));
  std::memset(frames_[frame].data, 0, kPageSize);
  return Publish(shard, frame, id, /*dirty=*/true);
}

Status BufferManager::FlushAll() {
  PageCounters& counters = ThreadPageCounters();
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    obs::LedgeredMutexLock lock(shard.mutex, obs::LockClass::kBufferShard,
                                ShardInstance(s));
    for (size_t i = 0; i < shard.frame_count; ++i) {
      Frame& f = frames_[shard.first_frame + i];
      const PageId id = f.page_id.load(std::memory_order_relaxed);
      if (id != kInvalidPage && f.dirty.load(std::memory_order_relaxed)) {
        NATIX_RETURN_IF_ERROR(file_->WritePage(id, f.data));
        f.dirty.store(false, std::memory_order_relaxed);
        shard.writes.fetch_add(1, std::memory_order_relaxed);
        ++counters.page_writes;
      }
    }
  }
  return Status::OK();
}

uint64_t BufferManager::ShardHits(const Shard& shard) const {
  uint64_t total = 0;
  for (size_t i = 0; i < shard.frame_count; ++i) {
    total += frames_[shard.first_frame + i].hits.load(
        std::memory_order_relaxed);
  }
  return total;
}

uint64_t BufferManager::hit_count() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) total += ShardHits(shard);
  return total;
}

BufferManager::CounterSnapshot BufferManager::Snapshot() const {
  // Lock every shard (in index order — the only multi-shard acquisition,
  // so no ordering conflicts), then read: no fault, write or eviction
  // can interleave. Hits keep landing; they take no lock.
  std::vector<std::unique_ptr<obs::LedgeredMutexLock>> locks;
  locks.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    locks.push_back(std::make_unique<obs::LedgeredMutexLock>(
        shards_[s].mutex, obs::LockClass::kBufferShard, ShardInstance(s)));
  }
  CounterSnapshot snap;
  for (const Shard& shard : shards_) {
    snap.faults += shard.faults.load(std::memory_order_relaxed);
    snap.hits += ShardHits(shard);
    snap.writes += shard.writes.load(std::memory_order_relaxed);
    snap.evictions += shard.evictions.load(std::memory_order_relaxed);
  }
  return snap;
}

std::vector<BufferManager::ShardSnapshot> BufferManager::ShardSnapshots()
    const {
  std::vector<ShardSnapshot> out;
  out.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    obs::LedgeredMutexLock lock(shard.mutex, obs::LockClass::kBufferShard,
                                ShardInstance(s));
    ShardSnapshot snap;
    snap.faults = shard.faults.load(std::memory_order_relaxed);
    snap.hits = ShardHits(shard);
    snap.writes = shard.writes.load(std::memory_order_relaxed);
    snap.evictions = shard.evictions.load(std::memory_order_relaxed);
    snap.resident_pages = shard.resident;
    out.push_back(snap);
  }
  return out;
}

PageCounters& ThreadPageCounters() { return tls_page_counters; }

}  // namespace natix::storage
