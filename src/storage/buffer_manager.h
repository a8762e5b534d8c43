#ifndef NATIX_STORAGE_BUFFER_MANAGER_H_
#define NATIX_STORAGE_BUFFER_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <memory>
#include <vector>

#include "base/status.h"
#include "base/statusor.h"
#include "storage/page_counters.h"
#include "storage/paged_file.h"

namespace natix::storage {

class BufferManager;

/// RAII pin on a page frame. The referenced memory is valid (and the page
/// cannot be evicted) while the handle is alive. Copying a handle takes an
/// additional pin.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(const PageHandle& other);
  PageHandle& operator=(const PageHandle& other);
  PageHandle(PageHandle&& other) noexcept;
  PageHandle& operator=(PageHandle&& other) noexcept;
  ~PageHandle();

  bool valid() const { return manager_ != nullptr; }
  PageId page_id() const { return page_id_; }

  const uint8_t* data() const;
  /// Grants write access and marks the frame dirty.
  uint8_t* mutable_data();

  void Release();

 private:
  friend class BufferManager;
  PageHandle(BufferManager* manager, PageId page_id, size_t frame)
      : manager_(manager), page_id_(page_id), frame_(frame) {}

  BufferManager* manager_ = nullptr;
  PageId page_id_ = kInvalidPage;
  size_t frame_ = 0;
};

/// A striped pin/unpin buffer manager with per-shard CLOCK (second
/// chance) replacement over a PagedFile — the "Natix page buffer" the
/// paper's physical algebra navigates directly (Sec. 5.2.2).
///
/// The pool is partitioned into `shards` independent stripes; a page
/// belongs to the shard `page_id % shards`, and each shard owns a fixed
/// run of frames, an open-addressed page table and a clock hand.
///
/// A hit takes no lock and allocates nothing: FixPage probes the shard's
/// page table without the lock, CAS-increments the frame's pin count
/// and re-checks the frame's page id; on a mismatch (the frame was
/// reloaded after the probe) it backs off to the locked path, which
/// stays the authority — a false miss is only slower, never wrong.
/// Unpin is a decrement plus setting the frame's reference bit. Only
/// faults, NewPage, eviction and FlushAll take the shard mutex; eviction
/// claims a victim by CAS-ing its pin count from 0 to a sentinel, so an
/// optimistic pin can never land on a frame that is being reloaded.
///
/// Thread safety: FixPage/NewPage/FlushAll/Snapshot and handle
/// copy/release may be called from any thread. Writers (document
/// loading) must not run concurrently with readers — the caller
/// serializes load vs. query, not the pool.
class BufferManager {
 public:
  /// `capacity` is the number of page frames held in memory, distributed
  /// as evenly as possible over `shards` stripes (capacity must be >=
  /// shards; shards >= 1). One shard is the classic single-lock pool.
  BufferManager(PagedFile* file, size_t capacity, size_t shards = 1);
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Pins page `id`, faulting it in if necessary.
  StatusOr<PageHandle> FixPage(PageId id);

  /// Allocates a fresh page in the file and pins it.
  StatusOr<PageHandle> NewPage();

  /// Writes back all dirty frames.
  Status FlushAll();

  /// A point-in-time snapshot of all four counters. Faults, writes and
  /// evictions are coherent: every shard mutex is held while reading and
  /// they only change under it, so a fault cannot show without its
  /// matching eviction. Hits are counted outside the lock (the hit path
  /// takes none), so they are the sum at some instant during the call.
  /// Per-query deltas do not use this: they read the executing thread's
  /// PageCounters (ThreadPageCounters).
  struct CounterSnapshot {
    uint64_t faults = 0;     ///< pages faulted in from the file
    uint64_t hits = 0;       ///< fixes served from the pool
    uint64_t writes = 0;     ///< dirty pages written back
    uint64_t evictions = 0;  ///< frames reclaimed by the clock hand
  };
  CounterSnapshot Snapshot() const;

  /// Per-shard snapshot in shard order, plus the pages each shard
  /// currently maps. Each shard is read under its own mutex; unlike
  /// Snapshot() the shards are not locked jointly, so cross-shard sums
  /// may skew by in-flight increments — fine for the /statusz rendering
  /// this feeds.
  struct ShardSnapshot {
    uint64_t faults = 0;
    uint64_t hits = 0;
    uint64_t writes = 0;
    uint64_t evictions = 0;
    size_t resident_pages = 0;  ///< pages currently mapped by the shard
  };
  std::vector<ShardSnapshot> ShardSnapshots() const;

  /// Pool-wide statistics for tests, benchmarks, and natixd's surfaces.
  /// Relaxed atomics summed over shards (hits over frames): cheap to
  /// read while other queries run, but a multi-counter read can tear —
  /// use Snapshot() for coherent fault/eviction pairs.
  uint64_t fault_count() const { return SumCounter(&Shard::faults); }
  /// Fixes served from the pool without touching the file.
  uint64_t hit_count() const;
  /// Dirty pages written back (eviction or FlushAll).
  uint64_t write_count() const { return SumCounter(&Shard::writes); }
  uint64_t eviction_count() const { return SumCounter(&Shard::evictions); }

  size_t capacity() const { return frames_.size(); }
  size_t shard_count() const { return shards_.size(); }

 private:
  friend class PageHandle;

  /// Pin count of a frame the shard mutex is reloading.
  static constexpr uint32_t kEvicting = ~uint32_t{0};
  /// Lookup result for "not in the page table".
  static constexpr size_t kNoFrame = ~size_t{0};

  /// One page frame, alone on its cache line: pins of different hot
  /// pages do not share a line.
  struct alignas(64) Frame {
    /// Pins held by handles, or kEvicting while the shard mutex reloads
    /// the frame. Lock-free hits CAS-increment it.
    std::atomic<uint32_t> pin_count{0};
    /// The page held (kInvalidPage when empty). Changed only under the
    /// shard mutex while pin_count is kEvicting; hits re-check it after
    /// pinning.
    std::atomic<PageId> page_id{kInvalidPage};
    /// CLOCK reference bit: set by Unpin, cleared by the passing hand.
    std::atomic<bool> referenced{false};
    /// Set by writers holding a pin; read by eviction / flush under the
    /// shard mutex.
    std::atomic<bool> dirty{false};
    /// The owning shard (fixed at construction).
    uint32_t shard = 0;
    /// Hits served by this frame, kept here rather than per shard so a
    /// hit writes only the cache line its pin already owns.
    std::atomic<uint64_t> hits{0};
    /// This frame's kPageSize bytes within page_memory_.
    uint8_t* data = nullptr;
  };

  struct Shard {
    mutable std::mutex mutex;
    /// The shard owns frames [first_frame, first_frame + frame_count).
    size_t first_frame = 0;
    size_t frame_count = 0;
    /// Offset (within the shard's frames) the clock hand inspects next.
    size_t hand = 0;
    /// Pages currently mapped (under `mutex`).
    size_t resident = 0;
    /// Open-addressed page table, linear probing, at most half full:
    /// each slot packs (page id << 32 | frame), kEmptySlot when free.
    /// Written only under `mutex` (deletion shifts entries back, so
    /// there are no tombstones); probed lock-free by hits.
    std::unique_ptr<std::atomic<uint64_t>[]> table;
    size_t table_mask = 0;
    // Incremented only under `mutex`; atomic so the lock-free accessors
    // above may read them concurrently.
    std::atomic<uint64_t> faults{0};
    std::atomic<uint64_t> writes{0};
    std::atomic<uint64_t> evictions{0};
  };

  size_t ShardOf(PageId id) const { return id % shards_.size(); }

  uint64_t SumCounter(std::atomic<uint64_t> Shard::* counter) const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += (shard.*counter).load(std::memory_order_relaxed);
    }
    return total;
  }
  uint64_t ShardHits(const Shard& shard) const;

  /// The frame the shard's table maps `id` to, or kNoFrame. Exact under
  /// the shard mutex; without it a hint that TryPin validates.
  size_t Lookup(const Shard& shard, PageId id) const;
  void InsertMapping(Shard& shard, PageId id, size_t frame);
  void EraseMapping(Shard& shard, PageId id);

  /// The lock-free hit: pins `frame` if it is not being reloaded and
  /// still holds `id`.
  bool TryPin(size_t frame, PageId id);
  /// FixPage's authoritative path, under the shard mutex.
  StatusOr<PageHandle> FixPageLocked(size_t shard_index, PageId id);
  void Pin(size_t frame);
  void Unpin(size_t frame);
  /// Runs the clock hand to claim an empty or evicted frame of `shard`,
  /// left unmapped with pin_count kEvicting. Caller holds the mutex.
  StatusOr<size_t> ClaimFrame(Shard& shard);
  /// Maps a claimed frame to `id` and publishes it with one pin.
  PageHandle Publish(Shard& shard, size_t frame, PageId id, bool dirty);

  PagedFile* file_;
  /// Serializes PagedFile::AllocatePage (the file's page counter is not
  /// itself thread-safe).
  std::mutex alloc_mutex_;
  /// The frames' bytes, one block left uninitialized: pages of frames
  /// the pool never uses are never touched, so they cost address space,
  /// not memory. A frame's bytes are written (ReadPage, or NewPage's
  /// memset) before any handle exposes them.
  std::unique_ptr<uint8_t[]> page_memory_;
  /// Globally indexed so PageHandle stays a (manager, frame) pair; each
  /// frame is owned by exactly one shard and never migrates.
  std::vector<Frame> frames_;
  std::vector<Shard> shards_;
};

}  // namespace natix::storage

#endif  // NATIX_STORAGE_BUFFER_MANAGER_H_
