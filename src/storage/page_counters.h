#ifndef NATIX_STORAGE_PAGE_COUNTERS_H_
#define NATIX_STORAGE_PAGE_COUNTERS_H_

#include <cstdint>

namespace natix::storage {

/// Tally of buffer-pool page I/O. As a per-thread counter
/// (ThreadPageCounters) it counts what the calling thread caused through
/// any BufferManager: its fixes (hits and faults), and the evictions and
/// write-backs its faults, NewPage calls and FlushAll calls performed. An
/// execution runs on one thread, so a delta taken around an evaluation
/// counts exactly that evaluation's page I/O, without atomics and
/// without other threads' queries.
struct PageCounters {
  uint64_t page_reads = 0;   ///< pages faulted in from the file
  uint64_t page_hits = 0;    ///< fixes served from the pool
  uint64_t page_writes = 0;  ///< dirty pages written back
  uint64_t evictions = 0;    ///< frames reclaimed by the clock hand

  PageCounters& operator+=(const PageCounters& o) {
    page_reads += o.page_reads;
    page_hits += o.page_hits;
    page_writes += o.page_writes;
    evictions += o.evictions;
    return *this;
  }
  friend PageCounters operator-(const PageCounters& a, const PageCounters& b) {
    return {a.page_reads - b.page_reads, a.page_hits - b.page_hits,
            a.page_writes - b.page_writes, a.evictions - b.evictions};
  }
};

/// The calling thread's counters.
PageCounters& ThreadPageCounters();

}  // namespace natix::storage

#endif  // NATIX_STORAGE_PAGE_COUNTERS_H_
