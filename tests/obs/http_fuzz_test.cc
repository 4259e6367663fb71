// Seeded mutation test for the live-telemetry HTTP request parser
// (core/http.cc).  A request is bytes from the network: whatever a
// truncated, oversized, binary or malformed GET looks like, the server must
// answer it or close the connection -- never crash, under ASan/UBSan in CI --
// and every connection must be gone once its client has left.  The server
// and the clients share this thread over 127.0.0.1, exactly as
// SiteTelemetry::serve's timer drives the server from the transport's loop.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/http.h"
#include "core/scenario.h"
#include "core/telemetry.h"
#include "obs/trace.h"

namespace ugrpc::core {
namespace {

/// A non-blocking TCP client connected to the server under test.
class ClientSocket {
 public:
  explicit ClientSocket(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int rc = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    connected_ = rc == 0 || errno == EINPROGRESS;
  }
  ~ClientSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  ClientSocket(const ClientSocket&) = delete;
  ClientSocket& operator=(const ClientSocket&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0 && connected_; }

  /// Sends what the socket takes now; returns false once the peer is gone.
  bool send_some(const std::string& bytes, std::size_t& sent) {
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else {
        return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOTCONN);
      }
    }
    return true;
  }
  void half_close() { ::shutdown(fd_, SHUT_WR); }

  /// Reads what has arrived; returns false once the server closed (EOF or
  /// reset).
  bool recv_some(std::string& into) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        into.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0) {
        return false;
      } else {
        return errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOTCONN;
      }
    }
  }

  void wait_readable(int timeout_ms) const {
    pollfd p{fd_, POLLIN, 0};
    (void)::poll(&p, 1, timeout_ms);
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

struct Exchange {
  std::string response;
  bool server_closed = false;
};

/// Sends `request` on a fresh connection, half-closing after it when asked,
/// and drives the server until it closes the connection (or ~5 s pass).
Exchange exchange(TelemetryServer& server, const std::string& request, bool half_close) {
  ClientSocket client(server.port());
  EXPECT_TRUE(client.connected());
  Exchange ex;
  std::size_t sent = 0;
  bool closed_write = false;
  for (int round = 0; round < 5000 && !ex.server_closed; ++round) {
    server.poll_once();
    if (!closed_write) {
      const bool alive = client.send_some(request, sent);
      if (!alive || sent == request.size()) {
        if (half_close) client.half_close();
        closed_write = true;
      }
    }
    server.poll_once();
    client.wait_readable(1);
    ex.server_closed = !client.recv_some(ex.response);
  }
  return ex;
}

/// The response's status code; 0 when `response` is not an HTTP/1.0 status
/// line.
int status_of(const std::string& response) {
  const std::string prefix = "HTTP/1.0 ";
  if (response.compare(0, prefix.size(), prefix) != 0 || response.size() < prefix.size() + 3) {
    return 0;
  }
  return std::stoi(response.substr(prefix.size(), 3));
}

void drain(TelemetryServer& server) {
  for (int i = 0; i < 1000 && server.open_connections() > 0; ++i) {
    server.poll_once();
    ::usleep(100);
  }
}

class HttpFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string error;
    ASSERT_TRUE(server_.listen("127.0.0.1", 0, &error)) << error;
  }

  obs::Tracer tracer_;
  Scenario scenario_{[this] {
    ScenarioParams p;
    p.num_servers = 1;
    p.tracer = &tracer_;
    return p;
  }()};
  SiteTelemetry telemetry_{scenario_.client_site(0)};
  TelemetryServer server_{telemetry_};
};

TEST_F(HttpFuzz, WellFormedRequestsAreAnswered) {
  const struct {
    std::string request;
    int status;
  } cases[] = {
      {"GET /healthz HTTP/1.0\r\n\r\n", 200},
      {"GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n", 200},
      {"GET / HTTP/1.0\r\n\r\n", 200},
      {"GET /nowhere HTTP/1.0\r\n\r\n", 404},
      {"GET /metrics.json HTTP/1.0\r\n\r\n", 404},
      {"POST /metrics HTTP/1.0\r\n\r\n", 405},
      {"GET\r\n\r\n", 400},
  };
  for (const auto& c : cases) {
    const Exchange ex = exchange(server_, c.request, /*half_close=*/false);
    EXPECT_TRUE(ex.server_closed) << c.request;
    EXPECT_EQ(status_of(ex.response), c.status) << c.request;
  }
  EXPECT_EQ(server_.open_connections(), 0u);
}

/// One mutation of a valid request, chosen by `rng`.
std::string mutate(std::mt19937_64& rng) {
  static const std::vector<std::string> kSeeds = {
      "GET /metrics HTTP/1.0\r\n\r\n",
      "GET / HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
      "GET /introspect HTTP/1.0\r\nUser-Agent: ugrpcstat\r\n\r\n",
      "GET /healthz HTTP/1.0\r\n\r\n",
  };
  std::string r = kSeeds[rng() % kSeeds.size()];
  const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % (n + 1)); };
  switch (rng() % 8) {
    case 0:  // truncated anywhere, terminator included
      r.resize(pick(r.size()));
      break;
    case 1:  // bytes flipped, binary included
      for (int i = 0, n = 1 + static_cast<int>(rng() % 8); i < n && !r.empty(); ++i) {
        r[pick(r.size() - 1)] = static_cast<char>(rng() & 0xFF);
      }
      break;
    case 2:  // binary bytes inserted
      for (int i = 0, n = 1 + static_cast<int>(rng() % 16); i < n; ++i) {
        r.insert(pick(r.size()), 1, static_cast<char>(rng() & 0xFF));
      }
      break;
    case 3: {  // oversized: a header past the server's request cap
      const std::size_t len = 4000 + rng() % 20000;
      r.insert(r.find("\r\n") + 2, "X-Pad: " + std::string(len, 'a') + "\r\n");
      break;
    }
    case 4: {  // oversized path, no header terminator for a long way
      r = "GET /" + std::string(8000 + rng() % 8000, '/') + " HTTP/1.0\r\n\r\n";
      break;
    }
    case 5: {  // bad request lines
      static const std::vector<std::string> kLines = {
          "", " ", "GET", "GET/metrics", "  GET  /  ", std::string(3, '\0'), "GET /metrics",
          "GET  HTTP/1.0", "get /metrics http/1.0", "\r", "GET \xff\xfe HTTP/1.0",
      };
      r = kLines[rng() % kLines.size()] + "\r\n\r\n";
      break;
    }
    case 6: {  // pure noise
      r.assign(pick(512), '\0');
      for (char& c : r) c = static_cast<char>(rng() & 0xFF);
      break;
    }
    default:  // several requests back to back on one connection
      r += r + r;
      break;
  }
  return r;
}

TEST_F(HttpFuzz, MutatedRequestsAreAnsweredOrClosedNeverCrash) {
  std::mt19937_64 rng(20240611);
  std::map<int, int> statuses;  // 0 = closed without an answer
  for (int i = 0; i < 600; ++i) {
    const std::string request = mutate(rng);
    // A request without its blank line is never answered, so the client has
    // to hang up; a complete one may also be followed by an early hang-up.
    const std::size_t end = request.find("\r\n\r\n");
    const bool half_close = end == std::string::npos || (rng() % 2) == 0;
    const Exchange ex = exchange(server_, request, half_close);
    ASSERT_TRUE(ex.server_closed) << "case " << i << " left its connection open";
    const int status = status_of(ex.response);
    ++statuses[status];
    if (ex.response.empty()) continue;
    EXPECT_TRUE(status == 200 || status == 400 || status == 404 || status == 405)
        << "case " << i << ": " << ex.response.substr(0, 40);
    // The server reads at most 8 KiB (plus one read) of request head.
    if (end == std::string::npos ? request.size() > 12 * 1024 : end > 12 * 1024) {
      EXPECT_EQ(status, 400) << "case " << i << ": an oversized request must be refused";
    }
  }
  drain(server_);
  EXPECT_EQ(server_.open_connections(), 0u);
  EXPECT_GT(statuses[0], 0) << "some cases must end unanswered";
  EXPECT_GT(statuses[200], 0);
  EXPECT_GT(statuses[400], 0);
  EXPECT_EQ(server_.requests_served(), 600u - static_cast<std::uint64_t>(statuses[0]))
      << "every answer is one served request";
}

TEST_F(HttpFuzz, AbandonedConnectionsAreAllReleased) {
  // Many clients open at once, each leaving after a partial request (or
  // none); the server must release every connection.
  std::mt19937_64 rng(7);
  {
    std::vector<std::unique_ptr<ClientSocket>> clients;
    for (int i = 0; i < 32; ++i) {
      clients.push_back(std::make_unique<ClientSocket>(server_.port()));
      ASSERT_TRUE(clients.back()->connected());
      std::string partial = mutate(rng);
      partial.resize(std::min(partial.size(), static_cast<std::size_t>(rng() % 20)));
      if (partial.find("\r\n\r\n") != std::string::npos) partial.clear();
      std::size_t sent = 0;
      (void)clients.back()->send_some(partial, sent);
      server_.poll_once();
    }
    for (int i = 0; i < 20; ++i) server_.poll_once();
    EXPECT_GT(server_.open_connections(), 0u) << "unfinished requests wait for more bytes";
  }
  drain(server_);
  EXPECT_EQ(server_.open_connections(), 0u);
}

}  // namespace
}  // namespace ugrpc::core
