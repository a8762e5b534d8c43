#ifndef NATIX_SERVER_SERVER_H_
#define NATIX_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <condition_variable>
#include <functional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "api/database.h"
#include "base/status.h"
#include "server/http.h"

// natixd's serving core: a multi-tenant HTTP/1.1 query daemon over one
// Database — thread-per-connection with keep-alive, an admission
// semaphore bounding concurrent executions, per-request deadlines with
// cooperative pipeline cancellation, and the observability plane
// (/metrics Prometheus exposition, /statusz JSON introspection).
//
// Endpoints:
//   /healthz                         liveness ("ok")
//   /metrics                         Prometheus text exposition 0.0.4
//                                    ({"disabled":true} under
//                                    NATIX_OBS=OFF)
//   /statusz                         JSON: admission state, plan cache,
//                                    buffer-pool shards, slow queries
//   /query?doc=D&q=XP[&limit=N]      evaluate XPath XP against document
//         [&deadline_ms=M]           D; mode=values|xml|count (default
//         [&mode=values|xml|count]   values); limit caps the node-set
//                                    through the plan's Limit operator
//                                    (early pipeline close), deadline_ms
//                                    bounds queue wait + execution.
//
// The request lifecycle is traced as spans server/parse, server/queue,
// server/exec, server/serialize under one server/request root, and
// feeds the registry's queue_wait_ns histogram, queue_depth /
// requests_in_flight gauges and http_requests / requests_rejected /
// deadline_exceeded / queries_cancelled counters.

namespace natix::server {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back
  /// through Server::port()).
  uint16_t port = 0;
  /// Executions allowed to run concurrently (admission semaphore).
  size_t max_concurrency = 4;
  /// Requests allowed to wait for an execution slot; one more is
  /// rejected with 503.
  size_t queue_capacity = 16;
  /// Concurrently open connections; further accepts are turned away.
  size_t max_connections = 128;
  /// Default per-request budget (queue wait + execution) when the
  /// request carries no deadline_ms parameter. 0 = no deadline.
  uint64_t default_deadline_ms = 0;
  /// Keep-alive socket read timeout.
  int idle_timeout_ms = 30000;
  /// Instantiate executions with per-operator stats so slow-query log
  /// entries carry EXPLAIN ANALYZE trees (costs per-next counters).
  bool collect_stats = false;
  /// Test hook: runs on the request's thread right after the request
  /// takes an execution slot, before its query is prepared. Tests use it
  /// to hold the slot for as long as they need. Empty by default.
  std::function<void()> on_admitted;
};

/// The daemon. Start() spawns the acceptor; Shutdown() cancels in-
/// flight executions (cooperatively, through their cancel flag), closes
/// every connection and joins all threads. The Database must outlive
/// the server and is not mutated (documents load before Start).
class Server {
 public:
  Server(Database* db, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:port and starts accepting.
  Status Start();

  /// Stops accepting, cancels and joins everything. Idempotent.
  void Shutdown();

  /// The bound port (after Start).
  int port() const { return port_; }

  /// Requests fully served (any endpoint, any outcome).
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  // Renderings behind /metrics and /statusz, exposed for in-process
  // tests (no socket needed).
  std::string RenderMetrics() const;
  std::string RenderStatus() const;

 private:
  enum class AdmitResult { kAdmitted, kRejected, kDeadlineExpired,
                           kShutdown };

  void AcceptLoop();
  void ServeConnection(int fd);
  HttpResponse Dispatch(const HttpRequest& request);
  HttpResponse HandleQuery(const HttpRequest& request);

  /// Blocks until an execution slot frees up, the deadline passes, or
  /// the queue is full. Records queue_wait_ns and maintains the
  /// queue_depth gauge. `deadline_ns` of 0 waits indefinitely.
  AdmitResult Admit(uint64_t deadline_ns);
  void Release();

  Database* db_;
  ServerOptions options_;
  int port_ = 0;
  int listen_fd_ = -1;

  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<size_t> open_connections_{0};
  std::atomic<uint64_t> start_ns_{0};

  mutable std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  size_t executing_ = 0;
  size_t waiting_ = 0;

  std::mutex conn_mu_;
  std::unordered_set<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
  std::thread acceptor_;
};

}  // namespace natix::server

#endif  // NATIX_SERVER_SERVER_H_
