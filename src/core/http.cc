#include "core/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "core/telemetry.h"

namespace ugrpc::core {

namespace {

/// Requests are one GET line + a few headers; anything bigger is hostile.
constexpr std::size_t kMaxRequestBytes = 8192;
constexpr int kListenBacklog = 16;

std::string http_response(int status, std::string_view reason, std::string_view content_type,
                          std::string_view body) {
  std::string out = "HTTP/1.0 " + std::to_string(status) + " " + std::string(reason) + "\r\n";
  out += "Content-Type: " + std::string(content_type) + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

TelemetryServer::~TelemetryServer() { close(); }

bool TelemetryServer::listen(const std::string& host, std::uint16_t port, std::string* error) {
  close();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "telemetry host must be a numeric IPv4 address: " + host;
    ::close(fd);
    return false;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, kListenBacklog) != 0) {
    if (error != nullptr) *error = std::string("bind/listen: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (error != nullptr) *error = std::string("getsockname: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  return true;
}

void TelemetryServer::close() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
  for (Conn& conn : conns_) ::close(conn.fd);
  conns_.clear();
}

std::string TelemetryServer::route(const std::string& method, const std::string& path) {
  if (method != "GET") {
    return http_response(405, "Method Not Allowed", "text/plain", "GET only\n");
  }
  if (path == "/metrics") {
    return http_response(200, "OK", "text/plain; version=0.0.4; charset=utf-8",
                         telemetry_.metrics_text());
  }
  if (path == "/introspect") {
    return http_response(200, "OK", "application/json", telemetry_.introspection_json());
  }
  if (path == "/healthz") return http_response(200, "OK", "text/plain", "ok\n");
  if (path == "/") {
    return http_response(200, "OK", "text/plain",
                         "ugrpc live telemetry\n"
                         "  /metrics        Prometheus text exposition\n"
                         "  /introspect     live composite-state snapshot\n"
                         "  /healthz        liveness probe\n");
  }
  return http_response(404, "Not Found", "text/plain", "unknown path\n");
}

void TelemetryServer::handle_request(Conn& conn) {
  // Request line: "GET /path HTTP/1.x".  Headers are ignored.
  const std::size_t eol = conn.in.find("\r\n");
  const std::string line = conn.in.substr(0, eol == std::string::npos ? conn.in.size() : eol);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    conn.out = http_response(400, "Bad Request", "text/plain", "malformed request line\n");
  } else {
    conn.out = route(line.substr(0, sp1), line.substr(sp1 + 1, sp2 - sp1 - 1));
  }
  conn.responding = true;
  ++served_;
}

void TelemetryServer::poll_once() {
  if (listen_fd_ < 0) return;

  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) break;  // EAGAIN: no more pending connections
    Conn conn;
    conn.fd = fd;
    conns_.push_back(conn);
  }
  if (conns_.empty()) return;

  std::vector<pollfd> fds;
  fds.reserve(conns_.size());
  for (const Conn& conn : conns_) {
    fds.push_back(pollfd{conn.fd, static_cast<short>(conn.responding ? POLLOUT : POLLIN), 0});
  }
  if (::poll(fds.data(), fds.size(), 0) <= 0) return;

  std::size_t i = 0;
  for (auto it = conns_.begin(); it != conns_.end(); ++i) {
    Conn& conn = *it;
    const short revents = fds[i].revents;
    bool done = false;
    if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 && !conn.responding) {
      done = true;
    } else if (!conn.responding && (revents & POLLIN) != 0) {
      char buf[2048];
      for (;;) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          conn.in.append(buf, static_cast<std::size_t>(n));
          if (conn.in.size() > kMaxRequestBytes) {
            conn.out = http_response(400, "Bad Request", "text/plain", "request too large\n");
            conn.responding = true;
            ++served_;
            break;
          }
          if (conn.in.find("\r\n\r\n") != std::string::npos) {
            handle_request(conn);
            break;
          }
        } else if (n == 0) {
          done = true;  // peer closed before completing a request
          break;
        } else {
          break;  // EAGAIN: wait for more bytes
        }
      }
    }
    if (conn.responding && !done) {
      while (conn.sent < conn.out.size()) {
        const ssize_t n =
            ::send(conn.fd, conn.out.data() + conn.sent, conn.out.size() - conn.sent, MSG_NOSIGNAL);
        if (n <= 0) break;  // EAGAIN (or error -- retried/detected next poll)
        conn.sent += static_cast<std::size_t>(n);
      }
      if (conn.sent == conn.out.size() || (revents & (POLLERR | POLLNVAL)) != 0) done = true;
    }
    if (done) {
      ::close(conn.fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace ugrpc::core
