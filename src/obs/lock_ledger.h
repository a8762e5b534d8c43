#ifndef NATIX_OBS_LOCK_LEDGER_H_
#define NATIX_OBS_LOCK_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

// Lock-order ledger: a runtime acquisition-order checker over the
// process's long-lived mutex classes (buffer-pool shards, the page
// allocator, the prepared-plan cache, natixd admission/connection state,
// the slow-query log). Every ledgered acquisition records a class-level
// edge held-class -> acquired-class; a cycle in that graph is a
// potential deadlock even if no execution has deadlocked yet. The only
// sanctioned multi-instance acquisition — BufferManager::Snapshot
// locking all shards — is covered by a same-class rule: instances of
// one class must be taken in ascending instance order.
//
// Modes (NATIX_LOCK_LEDGER environment variable, read once):
//   unset/"0"/"off"  kOff     zero work beyond one relaxed load
//   "1"/"record"     kRecord  edges + violations recorded, exported on
//                             /statusz ("lock_ledger")
//   "fail"           kFail    a cycle or same-class order violation
//                             aborts the process (CI hard-fail job)
//
// Lock wait: independent of the mode, every guard below tries the mutex
// first and reads the clock only when that fails, accumulating the
// contended-acquisition count and the nanoseconds spent blocked per
// class (LockLedger::wait). natixd exports them on /metrics
// (natix_lock_wait_seconds_total / natix_lock_contended_total) and
// /statusz ("lock_wait").
//
// Zero-cost discipline (src/obs/stats.h): under NATIX_OBS_DISABLED the
// ledger collapses to inline no-ops and the guards become plain locks.

namespace natix::obs {

/// The instrumented mutex classes. Order is the documented acquisition
/// order for classes that nest today (shard after alloc in NewPage;
/// everything else is leaf-level).
enum class LockClass : uint8_t {
  kBufferAlloc = 0,   ///< BufferManager::alloc_mutex_
  kBufferShard = 1,   ///< BufferManager::Shard::mutex (instance = index)
  kPlanCache = 2,     ///< api::PlanCache::mutex_
  kAdmission = 3,     ///< server::Server::admission_mu_
  kServerConn = 4,    ///< server::Server::conn_mu_
  kSlowQueryLog = 5,  ///< obs::SlowQueryLog::mu_
};

inline constexpr int kLockClassCount = 6;

const char* LockClassName(LockClass cls);

/// Contention of one lock class since process start (or Reset()).
struct LockWait {
  uint64_t contended = 0;  ///< acquisitions that found the mutex held
  uint64_t wait_ns = 0;    ///< time those acquisitions spent blocked
};

#if !defined(NATIX_OBS_DISABLED)

/// The process-wide acquisition-order ledger. Acquired/Released maintain
/// a thread-local stack of held locks; edges and violation counts are
/// relaxed atomics, so recording never introduces ordering of its own.
class LockLedger {
 public:
  enum class Mode : int { kOff = 0, kRecord = 1, kFail = 2 };

  /// The global ledger; mode initialized from NATIX_LOCK_LEDGER on
  /// first use.
  static LockLedger& Global();

  Mode mode() const {
    return static_cast<Mode>(mode_.load(std::memory_order_relaxed));
  }
  void set_mode(Mode mode) {
    mode_.store(static_cast<int>(mode), std::memory_order_relaxed);
  }

  /// Records that the calling thread acquired `instance` of `cls`:
  /// one edge per lock currently held by this thread, the same-class
  /// ascending-instance check, and (kFail) the cycle check.
  void Acquired(LockClass cls, uintptr_t instance);

  /// Pops the (most recent) matching hold from the thread's stack.
  void Released(LockClass cls, uintptr_t instance);

  /// Whether the recorded class graph contains a cycle (self-edges
  /// excluded — same-class nesting is policed by instance order).
  bool HasCycle() const;

  /// Every elementary cycle through the recorded edges, rendered as
  /// "a -> b -> a" strings (deterministic order; empty when acyclic).
  std::vector<std::string> Cycles() const;

  /// Same-class acquisitions taken out of ascending instance order.
  uint64_t order_violations() const {
    return order_violations_.load(std::memory_order_relaxed);
  }

  /// JSON for /statusz: mode, recorded edges with counts, cycles,
  /// order-violation count.
  std::string GraphJson() const;

  /// Blocks on `mu` (whose try_lock just failed) and charges the wait
  /// to `cls`.
  void LockContended(std::mutex& mu, LockClass cls);
  LockWait wait(LockClass cls) const {
    return {contended_[static_cast<int>(cls)].load(std::memory_order_relaxed),
            wait_ns_[static_cast<int>(cls)].load(std::memory_order_relaxed)};
  }
  /// JSON for /statusz: {"<class>":{"contended":N,"wait_ns":N},...}.
  std::string WaitJson() const;

  /// Clears edges, violation counts and lock waits (tests). Held-stacks
  /// of live threads are untouched.
  void Reset();

 private:
  LockLedger();

  std::atomic<uint64_t> edges_[kLockClassCount][kLockClassCount] = {};
  std::atomic<uint64_t> contended_[kLockClassCount] = {};
  std::atomic<uint64_t> wait_ns_[kLockClassCount] = {};
  std::atomic<uint64_t> order_violations_{0};
  std::atomic<int> mode_{0};
};

/// std::lock_guard with ledger bookkeeping. `instance` disambiguates
/// same-class instances (shard index); defaults to the mutex address,
/// which is ascending for shards stored in one vector anyway.
class LedgeredMutexLock {
 public:
  LedgeredMutexLock(std::mutex& mu, LockClass cls, uintptr_t instance = 0)
      : mu_(mu),
        cls_(cls),
        instance_(instance != 0 ? instance
                                : reinterpret_cast<uintptr_t>(&mu)) {
    if (!mu_.try_lock()) LockLedger::Global().LockContended(mu_, cls_);
    LockLedger::Global().Acquired(cls_, instance_);
  }
  ~LedgeredMutexLock() {
    LockLedger::Global().Released(cls_, instance_);
    mu_.unlock();
  }
  LedgeredMutexLock(const LedgeredMutexLock&) = delete;
  LedgeredMutexLock& operator=(const LedgeredMutexLock&) = delete;

 private:
  std::mutex& mu_;
  LockClass cls_;
  uintptr_t instance_;
};

/// std::unique_lock variant for condition-variable waits. The hold is
/// ledgered for the full scope: a waiting thread acquires nothing else,
/// so the transient release inside wait() cannot order against anything.
class LedgeredUniqueLock {
 public:
  LedgeredUniqueLock(std::mutex& mu, LockClass cls, uintptr_t instance = 0)
      : lock_(mu, std::defer_lock),
        cls_(cls),
        instance_(instance != 0 ? instance
                                : reinterpret_cast<uintptr_t>(&mu)) {
    if (!lock_.try_lock()) {
      LockLedger::Global().LockContended(mu, cls_);
      lock_ = std::unique_lock<std::mutex>(mu, std::adopt_lock);
    }
    LockLedger::Global().Acquired(cls_, instance_);
  }
  ~LedgeredUniqueLock() { LockLedger::Global().Released(cls_, instance_); }
  LedgeredUniqueLock(const LedgeredUniqueLock&) = delete;
  LedgeredUniqueLock& operator=(const LedgeredUniqueLock&) = delete;

  std::unique_lock<std::mutex>& lock() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
  LockClass cls_;
  uintptr_t instance_;
};

#else  // NATIX_OBS_DISABLED: plain locks, same surface.

class LockLedger {
 public:
  enum class Mode : int { kOff = 0, kRecord = 1, kFail = 2 };
  static LockLedger& Global() {
    static LockLedger ledger;
    return ledger;
  }
  Mode mode() const { return Mode::kOff; }
  void set_mode(Mode) {}
  void Acquired(LockClass, uintptr_t) {}
  void Released(LockClass, uintptr_t) {}
  bool HasCycle() const { return false; }
  std::vector<std::string> Cycles() const { return {}; }
  uint64_t order_violations() const { return 0; }
  std::string GraphJson() const { return "{\"disabled\":true}"; }
  LockWait wait(LockClass) const { return {}; }
  std::string WaitJson() const { return "{\"disabled\":true}"; }
  void Reset() {}
};

class LedgeredMutexLock {
 public:
  LedgeredMutexLock(std::mutex& mu, LockClass, uintptr_t = 0) : lock_(mu) {}

 private:
  std::lock_guard<std::mutex> lock_;
};

class LedgeredUniqueLock {
 public:
  LedgeredUniqueLock(std::mutex& mu, LockClass, uintptr_t = 0) : lock_(mu) {}
  std::unique_lock<std::mutex>& lock() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

#endif  // NATIX_OBS_DISABLED

}  // namespace natix::obs

#endif  // NATIX_OBS_LOCK_LEDGER_H_
