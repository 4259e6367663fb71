// TelemetryServer: a tiny non-blocking HTTP/1.0 listener over a
// SiteTelemetry.
//
// Serves the live plane to off-the-shelf consumers -- `curl`, a Prometheus
// scraper, tools/ugrpcstat -- without threads: the owner
// (SiteTelemetry::serve's periodic timer) calls poll_once(), which accepts
// pending connections, progresses partial reads/writes with zero-timeout
// poll(2), and closes finished responses.  Because poll_once() runs
// *between* fibers of the cooperative executor, every response is a
// consistent point-in-time snapshot of the site -- no locks, no torn reads.
//
// Routes (GET only; one request per connection, Connection: close):
//   /metrics        Prometheus text exposition        (metrics_text())
//   /introspect     channelz-style live-state JSON    (introspection_json())
//   /healthz        "ok"
//   /               plain-text index of the above
//
// The listener binds one host/port (default loopback, port 0 = ephemeral --
// parallel CI runs cannot collide; the example publishes the chosen port via
// --port-file).  Malformed or oversized requests get a 400 and the
// connection dropped; slow readers are bounded by a per-connection byte cap,
// not timeouts (the process' lifetime bounds the leak).
#pragma once

#include <cstdint>
#include <list>
#include <string>

namespace ugrpc::core {

class SiteTelemetry;

class TelemetryServer {
 public:
  explicit TelemetryServer(SiteTelemetry& telemetry) : telemetry_(telemetry) {}
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Binds + listens (non-blocking).  `port` 0 picks an ephemeral port.
  /// False (with a diagnostic in `error` when non-null) on failure.
  bool listen(const std::string& host, std::uint16_t port, std::string* error = nullptr);

  /// The bound port (after listen()), 0 otherwise.
  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Accepts and progresses all connections without blocking.  Call
  /// periodically from the event loop (cheap when idle: one accept(2) that
  /// finds nothing).
  void poll_once();

  /// Closes the listener and every open connection.
  void close();

  [[nodiscard]] std::size_t open_connections() const { return conns_.size(); }
  /// Requests answered (any status) since construction.
  [[nodiscard]] std::uint64_t requests_served() const { return served_; }

 private:
  struct Conn {
    int fd = -1;
    std::string in;       ///< request bytes until the blank line
    std::string out;      ///< rendered response, drained incrementally
    std::size_t sent = 0;
    bool responding = false;
  };

  void handle_request(Conn& conn);
  [[nodiscard]] std::string route(const std::string& method, const std::string& path);

  SiteTelemetry& telemetry_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::list<Conn> conns_;
  std::uint64_t served_ = 0;
};

}  // namespace ugrpc::core
