#include "obs/introspect.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace snor::obs {
namespace {

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 400:
      return "Bad Request";
    default:
      return "Error";
  }
}

/// Writes the full buffer, retrying on short writes; false on error.
bool SendAll(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void WriteResponse(int fd, const IntrospectResponse& response) {
  char header[256];
  const int n = std::snprintf(header, sizeof(header),
                              "HTTP/1.1 %d %s\r\n"
                              "Content-Type: %s\r\n"
                              "Content-Length: %zu\r\n"
                              "Connection: close\r\n"
                              "\r\n",
                              response.status, StatusText(response.status),
                              response.content_type.c_str(),
                              response.body.size());
  if (n <= 0) return;
  if (!SendAll(fd, header, static_cast<std::size_t>(n))) return;
  (void)SendAll(fd, response.body.data(), response.body.size());
}

}  // namespace

IntrospectServer::IntrospectServer() {
  Register("/healthz", [] {
    IntrospectResponse response;
    response.body = "{\"status\":\"ok\"}";
    return response;
  });
  Register("/metricsz", [] {
    IntrospectResponse response;
    response.body = MetricsRegistry::Global().DumpJson();
    return response;
  });
  Register("/tracez", [] {
    IntrospectResponse response;
    response.body = RequestTraceStore::Global().TracezJson();
    return response;
  });
}

IntrospectServer::~IntrospectServer() { Stop(); }

void IntrospectServer::Register(const std::string& path, Handler handler) {
  std::lock_guard<RankedMutex> lock(mutex_);
  handlers_[path] = std::move(handler);
}

bool IntrospectServer::Start(int port) {
  if (running()) return false;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    ::close(fd);
    return false;
  }
  listen_fd_ = fd;
  port_.store(ntohs(bound.sin_port), std::memory_order_relaxed);
  stop_.store(false, std::memory_order_relaxed);
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { Serve(); });
  return true;
}

void IntrospectServer::Stop() {
  if (!running()) return;
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  port_.store(0, std::memory_order_relaxed);
  running_.store(false, std::memory_order_relaxed);
}

void IntrospectServer::Serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    // Poll-gated accept so Stop() is honored within ~100ms even when no
    // client ever connects.
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    HandleConnection(client);
    ::close(client);
  }
}

IntrospectResponse IntrospectServer::Dispatch(const std::string& path) {
  Handler handler;
  {
    std::lock_guard<RankedMutex> lock(mutex_);
    auto it = handlers_.find(path);
    if (it != handlers_.end()) handler = it->second;
  }
  // Invoked without the lock: handlers serialize registries with their
  // own (higher-rank) mutexes and may be slow.
  if (handler) return handler();
  IntrospectResponse response;
  response.status = 404;
  std::string endpoints;
  {
    std::lock_guard<RankedMutex> lock(mutex_);
    for (const auto& [known_path, unused] : handlers_) {
      if (!endpoints.empty()) endpoints += ",";
      endpoints += "\"" + known_path + "\"";
    }
  }
  response.body = "{\"error\":\"not found\",\"endpoints\":[" + endpoints + "]}";
  return response;
}

void IntrospectServer::HandleConnection(int fd) {
  static Counter& requests =
      MetricsRegistry::Global().counter("obs.introspect.requests");
  static Counter& errors =
      MetricsRegistry::Global().counter("obs.introspect.errors");
  // One short read is enough for the operator GETs this serves; anything
  // that does not fit or parse is a 400.
  char buffer[2048];
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  if (::poll(&pfd, 1, 1000) <= 0) {
    errors.Increment();
    return;
  }
  const ssize_t n = ::recv(fd, buffer, sizeof(buffer) - 1, 0);
  if (n <= 0) {
    errors.Increment();
    return;
  }
  buffer[n] = '\0';
  requests.Increment();
  // Request line: "GET /path HTTP/1.1".
  const char* line_end = std::strstr(buffer, "\r\n");
  const std::string line(buffer, line_end != nullptr
                                     ? static_cast<std::size_t>(line_end -
                                                                buffer)
                                     : std::strlen(buffer));
  IntrospectResponse response;
  const std::size_t first_space = line.find(' ');
  const std::size_t second_space =
      first_space == std::string::npos ? std::string::npos
                                       : line.find(' ', first_space + 1);
  if (first_space == std::string::npos || second_space == std::string::npos) {
    errors.Increment();
    response.status = 400;
    response.body = "{\"error\":\"malformed request line\"}";
  } else if (line.substr(0, first_space) != "GET") {
    errors.Increment();
    response.status = 405;
    response.body = "{\"error\":\"only GET is supported\"}";
  } else {
    std::string path =
        line.substr(first_space + 1, second_space - first_space - 1);
    const std::size_t query = path.find('?');
    if (query != std::string::npos) path.resize(query);
    response = Dispatch(path);
    if (response.status != 200) errors.Increment();
  }
  WriteResponse(fd, response);
}

}  // namespace snor::obs
