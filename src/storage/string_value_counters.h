#ifndef NATIX_STORAGE_STRING_VALUE_COUNTERS_H_
#define NATIX_STORAGE_STRING_VALUE_COUNTERS_H_

#include <cstdint>

namespace natix::storage {

/// Per-thread tally of string-value materializations: the calls of
/// NodeStore::StringValue and NodeStore::ReadContent and the bytes they
/// copied out of the page buffer. An execution runs on one thread, so a
/// delta taken around an evaluation counts exactly that evaluation's
/// strings, without atomics and without other threads' queries.
struct StringValueCounters {
  uint64_t materializations = 0;
  uint64_t bytes = 0;

  StringValueCounters& operator+=(const StringValueCounters& o) {
    materializations += o.materializations;
    bytes += o.bytes;
    return *this;
  }
  friend StringValueCounters operator-(const StringValueCounters& a,
                                       const StringValueCounters& b) {
    return {a.materializations - b.materializations, a.bytes - b.bytes};
  }
};

/// The calling thread's counters.
StringValueCounters& ThreadStringValueCounters();

}  // namespace natix::storage

#endif  // NATIX_STORAGE_STRING_VALUE_COUNTERS_H_
