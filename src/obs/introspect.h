#ifndef SNOR_OBS_INTROSPECT_H_
#define SNOR_OBS_INTROSPECT_H_

/// \file
/// Live introspection server: a tiny blocking TCP/HTTP 1.1 endpoint that
/// lets an operator `curl` a running service.
///
/// One background thread accepts connections (poll-gated so `Stop()`
/// returns promptly), reads a single GET request, dispatches to a
/// registered handler, writes the response, and closes. This is an
/// operations surface, not a web server: one request per connection, no
/// keep-alive, no TLS, bind to loopback only.
///
/// Default endpoints (registered by the constructor):
///  - `/healthz`  — liveness: `{"status":"ok"}`.
///  - `/metricsz` — `MetricsRegistry::DumpJson()` (per-bucket histograms).
///  - `/tracez`   — `RequestTraceStore::TracezJson()` (tail-kept traces).
///
/// Richer endpoints (`/statusz` with ServiceStats, breaker state, SLO
/// burn rates) are registered by the owning layer via `Register` — obs
/// sits at the bottom of the stack and cannot see serve types.
///
/// Telemetry: `obs.introspect.requests` counts served requests,
/// `obs.introspect.errors` counts malformed/unroutable ones.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "obs/lock_rank.h"

namespace snor::obs {

/// \brief One endpoint's reply.
struct IntrospectResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// \brief Blocking TCP/HTTP introspection server bound to 127.0.0.1.
class IntrospectServer {
 public:
  using Handler = std::function<IntrospectResponse()>;

  IntrospectServer();
  ~IntrospectServer();

  IntrospectServer(const IntrospectServer&) = delete;
  IntrospectServer& operator=(const IntrospectServer&) = delete;

  /// Registers (or replaces) the handler for `path` (e.g. "/statusz").
  /// Safe to call while the server is running.
  void Register(const std::string& path, Handler handler);

  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts the
  /// accept thread. False if the socket could not be bound.
  bool Start(int port);

  /// Stops accepting, joins the accept thread, closes the socket.
  /// Idempotent; called by the destructor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// The bound port (resolved after Start with port 0); 0 when stopped.
  int port() const { return port_.load(std::memory_order_relaxed); }

 private:
  void Serve();
  void HandleConnection(int fd);
  IntrospectResponse Dispatch(const std::string& path);

  mutable RankedMutex mutex_{LockRank::kIntrospectServer};
  std::map<std::string, Handler> handlers_;  // GUARDED_BY(mutex_)
  std::thread thread_;  // GUARDED_BY(caller): Start/Stop are serialized.
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<int> port_{0};
  int listen_fd_ = -1;  // GUARDED_BY(caller): Start/Stop are serialized.
};

}  // namespace snor::obs

#endif  // SNOR_OBS_INTROSPECT_H_
