#include "obs/lock_ledger.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"

namespace natix::obs {

const char* LockClassName(LockClass cls) {
  switch (cls) {
    case LockClass::kBufferAlloc:
      return "buffer_alloc";
    case LockClass::kBufferShard:
      return "buffer_shard";
    case LockClass::kPlanCache:
      return "plan_cache";
    case LockClass::kAdmission:
      return "admission";
    case LockClass::kServerConn:
      return "server_conn";
    case LockClass::kSlowQueryLog:
      return "slow_query_log";
  }
  return "unknown";
}

#if !defined(NATIX_OBS_DISABLED)

namespace {

struct HeldLock {
  LockClass cls;
  uintptr_t instance;
};

std::vector<HeldLock>& HeldStack() {
  thread_local std::vector<HeldLock> held;
  return held;
}

}  // namespace

LockLedger::LockLedger() {
  const char* env = std::getenv("NATIX_LOCK_LEDGER");
  Mode mode = Mode::kOff;
  if (env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0 &&
      std::strcmp(env, "off") != 0) {
    mode = std::strcmp(env, "fail") == 0 ? Mode::kFail : Mode::kRecord;
  }
  mode_.store(static_cast<int>(mode), std::memory_order_relaxed);
}

LockLedger& LockLedger::Global() {
  static LockLedger ledger;
  return ledger;
}

void LockLedger::Acquired(LockClass cls, uintptr_t instance) {
  if (mode() == Mode::kOff) return;
  std::vector<HeldLock>& held = HeldStack();
  bool out_of_order = false;
  for (const HeldLock& h : held) {
    edges_[static_cast<int>(h.cls)][static_cast<int>(cls)].fetch_add(
        1, std::memory_order_relaxed);
    // Same-class instances must be taken in ascending instance order
    // (BufferManager::Snapshot's shard-index order is the template).
    if (h.cls == cls && instance <= h.instance) out_of_order = true;
  }
  if (out_of_order) {
    order_violations_.fetch_add(1, std::memory_order_relaxed);
  }
  if (mode() == Mode::kFail && !held.empty() &&
      (out_of_order || HasCycle())) {
    std::fprintf(stderr,
                 "lock ledger: ordering violation acquiring %s"
                 " (instance %zu) while holding %s — %s\n%s\n",
                 LockClassName(cls), static_cast<size_t>(instance),
                 LockClassName(held.back().cls),
                 out_of_order ? "same-class locks out of ascending order"
                              : "acquisition graph has a cycle",
                 GraphJson().c_str());
    std::abort();
  }
  held.push_back({cls, instance});
}

void LockLedger::LockContended(std::mutex& mu, LockClass cls) {
  const uint64_t begin_ns = MonotonicNowNs();
  mu.lock();
  const int c = static_cast<int>(cls);
  contended_[c].fetch_add(1, std::memory_order_relaxed);
  wait_ns_[c].fetch_add(MonotonicNowNs() - begin_ns,
                        std::memory_order_relaxed);
}

void LockLedger::Released(LockClass cls, uintptr_t instance) {
  if (mode() == Mode::kOff) return;
  std::vector<HeldLock>& held = HeldStack();
  for (size_t i = held.size(); i > 0; --i) {
    if (held[i - 1].cls == cls && held[i - 1].instance == instance) {
      held.erase(held.begin() + static_cast<ptrdiff_t>(i - 1));
      return;
    }
  }
}

namespace {

/// DFS three-coloring over the class graph; self-edges are skipped
/// (same-class order is policed by instance, not by the graph).
bool CycleFrom(const std::atomic<uint64_t> (&edges)[kLockClassCount]
                                                   [kLockClassCount],
               int node, int color[kLockClassCount],
               std::vector<int>* path) {
  color[node] = 1;
  if (path != nullptr) path->push_back(node);
  for (int next = 0; next < kLockClassCount; ++next) {
    if (next == node) continue;
    if (edges[node][next].load(std::memory_order_relaxed) == 0) continue;
    if (color[next] == 1) {
      if (path != nullptr) path->push_back(next);
      return true;
    }
    if (color[next] == 0 && CycleFrom(edges, next, color, path)) return true;
  }
  color[node] = 2;
  if (path != nullptr) path->pop_back();
  return false;
}

}  // namespace

bool LockLedger::HasCycle() const {
  int color[kLockClassCount] = {};
  for (int n = 0; n < kLockClassCount; ++n) {
    if (color[n] == 0 && CycleFrom(edges_, n, color, nullptr)) return true;
  }
  return false;
}

std::vector<std::string> LockLedger::Cycles() const {
  std::vector<std::string> out;
  int color[kLockClassCount] = {};
  for (int n = 0; n < kLockClassCount; ++n) {
    if (color[n] != 0) continue;
    std::vector<int> path;
    if (!CycleFrom(edges_, n, color, &path)) continue;
    // The path ends with the node that closed the cycle; trim the
    // acyclic prefix so the rendering is just the loop.
    int closer = path.back();
    size_t start = 0;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      if (path[i] == closer) {
        start = i;
        break;
      }
    }
    std::string cycle;
    for (size_t i = start; i < path.size(); ++i) {
      if (i > start) cycle += " -> ";
      cycle += LockClassName(static_cast<LockClass>(path[i]));
    }
    out.push_back(std::move(cycle));
  }
  return out;
}

std::string LockLedger::GraphJson() const {
  std::string out = "{\"mode\":\"";
  switch (mode()) {
    case Mode::kOff:
      out += "off";
      break;
    case Mode::kRecord:
      out += "record";
      break;
    case Mode::kFail:
      out += "fail";
      break;
  }
  out += "\",\"edges\":[";
  bool first = true;
  for (int from = 0; from < kLockClassCount; ++from) {
    for (int to = 0; to < kLockClassCount; ++to) {
      uint64_t count = edges_[from][to].load(std::memory_order_relaxed);
      if (count == 0) continue;
      if (!first) out += ",";
      first = false;
      out += "{\"from\":\"";
      out += LockClassName(static_cast<LockClass>(from));
      out += "\",\"to\":\"";
      out += LockClassName(static_cast<LockClass>(to));
      out += "\",\"count\":" + std::to_string(count) + "}";
    }
  }
  out += "],\"cycles\":[";
  const std::vector<std::string> cycles = Cycles();
  for (size_t i = 0; i < cycles.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + cycles[i] + "\"";
  }
  out += "],\"order_violations\":" + std::to_string(order_violations()) +
         "}";
  return out;
}

std::string LockLedger::WaitJson() const {
  std::string out = "{";
  for (int c = 0; c < kLockClassCount; ++c) {
    const LockWait w = wait(static_cast<LockClass>(c));
    if (c > 0) out += ",";
    out += "\"";
    out += LockClassName(static_cast<LockClass>(c));
    out += "\":{\"contended\":" + std::to_string(w.contended) +
           ",\"wait_ns\":" + std::to_string(w.wait_ns) + "}";
  }
  out += "}";
  return out;
}

void LockLedger::Reset() {
  for (auto& row : edges_) {
    for (auto& cell : row) cell.store(0, std::memory_order_relaxed);
  }
  for (int c = 0; c < kLockClassCount; ++c) {
    contended_[c].store(0, std::memory_order_relaxed);
    wait_ns_[c].store(0, std::memory_order_relaxed);
  }
  order_violations_.store(0, std::memory_order_relaxed);
}

#endif  // !NATIX_OBS_DISABLED

}  // namespace natix::obs
