#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <ctime>
#include <deque>
#include <string_view>
#include <utility>

#include "trace.h"
#include "util/json_reader.h"

namespace bench_e2e {

std::vector<double> PhaseResult::latencies_us() const {
  std::vector<double> out;
  out.reserve(outcomes.size());
  for (const auto& o : outcomes) {
    if (o.done_ns > 0) {
      out.push_back(static_cast<double>(o.done_ns - o.due_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> PhaseResult::lateness_ms() const {
  std::vector<double> out;
  out.reserve(outcomes.size());
  for (const auto& o : outcomes) {
    if (o.sent_ns > 0) {
      out.push_back(static_cast<double>(o.sent_ns - o.due_ns) / 1e6);
    }
  }
  return out;
}

bool status_ok(QueryKind kind, int status) {
  if (kind == QueryKind::Incidents) return status == 200;
  return status == 200 || status == 404;
}

namespace {

struct Connection {
  int fd = -1;
  bool dead = false;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t in_off = 0;
  std::deque<std::size_t> inflight;  ///< request indices, send order

  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  Connection(Connection&& other) noexcept
      : fd(std::exchange(other.fd, -1)),
        dead(other.dead),
        out(std::move(other.out)),
        out_off(other.out_off),
        in(std::move(other.in)),
        in_off(other.in_off),
        inflight(std::move(other.inflight)) {}
  Connection& operator=(Connection&&) = delete;
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Case-insensitive "content-length:" search inside one response head.
std::size_t content_length(std::string_view head, bool& found) {
  found = false;
  constexpr std::string_view kName = "content-length:";
  std::size_t line = head.find("\r\n");
  while (line != std::string_view::npos && line + 2 < head.size()) {
    const std::size_t start = line + 2;
    const std::size_t end = head.find("\r\n", start);
    const std::string_view text = head.substr(
        start, end == std::string_view::npos ? head.size() - start
                                             : end - start);
    if (text.size() > kName.size()) {
      bool match = true;
      for (std::size_t i = 0; i < kName.size(); ++i) {
        const char c = static_cast<char>(
            text[i] >= 'A' && text[i] <= 'Z' ? text[i] - 'A' + 'a' : text[i]);
        if (c != kName[i]) {
          match = false;
          break;
        }
      }
      if (match) {
        std::string_view value = text.substr(kName.size());
        while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
        std::size_t n = 0;
        const auto [ptr, ec] =
            std::from_chars(value.data(), value.data() + value.size(), n);
        found = ec == std::errc{} && ptr != value.data();
        return n;
      }
    }
    line = end;
  }
  return 0;
}

/// Whether a response body is one JSON document, by the repository's one
/// JSON reader.
bool parses_as_json(std::string_view body) {
  try {
    static_cast<void>(blameit::util::json::parse(body));
    return true;
  } catch (const blameit::util::json::ParseError&) {
    return false;
  }
}

}  // namespace

PhaseResult run_open_loop(std::uint16_t port, int connections,
                          const std::vector<Query>& queries,
                          const OpenLoopSchedule& schedule,
                          std::int64_t timeout_ns) {
  PhaseResult result;
  const std::size_t n = schedule.count;
  result.outcomes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.outcomes[i].due_ns = schedule.due_ns(i);
  }
  if (n == 0 || queries.empty()) return result;

  std::vector<Connection> conns;
  conns.reserve(static_cast<std::size_t>(std::max(connections, 1)));
  for (int c = 0; c < std::max(connections, 1); ++c) {
    Connection conn;
    conn.fd = connect_loopback(port);
    conn.dead = conn.fd < 0;
    conns.push_back(std::move(conn));
  }

  std::size_t settled = 0;  // completed or failed
  const auto fail = [&](std::size_t i, std::size_t& counter) {
    auto& o = result.outcomes[i];
    if (o.ok || o.status < 0) return;
    o.status = -1;
    ++counter;
    ++result.failed;
    ++settled;
  };
  const auto fail_connection = [&](Connection& conn) {
    conn.dead = true;
    for (const std::size_t i : conn.inflight) fail(i, result.transport_errors);
    conn.inflight.clear();
    if (conn.fd >= 0) {
      ::close(conn.fd);
      conn.fd = -1;
    }
  };

  std::size_t next = 0;
  std::vector<pollfd> fds(conns.size());
  char buf[64 * 1024];
  while (settled < n) {
    std::int64_t now = now_ns();
    while (next < n && result.outcomes[next].due_ns <= now) {
      Connection& conn = conns[next % conns.size()];
      result.outcomes[next].sent_ns = now;
      if (conn.dead) {
        fail(next, result.transport_errors);
      } else {
        conn.out.append(queries[next % queries.size()].wire);
        conn.inflight.push_back(next);
      }
      ++next;
    }

    // Write what is pending; EAGAIN leaves the rest for POLLOUT.
    for (auto& conn : conns) {
      while (!conn.dead && conn.out_off < conn.out.size()) {
        const ssize_t w =
            ::send(conn.fd, conn.out.data() + conn.out_off,
                   conn.out.size() - conn.out_off, MSG_NOSIGNAL);
        if (w > 0) {
          conn.out_off += static_cast<std::size_t>(w);
        } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else if (w < 0 && errno == EINTR) {
          continue;
        } else {
          fail_connection(conn);
        }
      }
      if (conn.out_off == conn.out.size()) {
        conn.out.clear();
        conn.out_off = 0;
      }
    }

    // Wait for responses until the next request is due (or briefly).
    std::int64_t wait_ns = 1'000'000;
    if (next < n) {
      wait_ns = std::clamp<std::int64_t>(result.outcomes[next].due_ns - now,
                                         0, 1'000'000);
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      fds[c].fd = conns[c].dead ? -1 : conns[c].fd;
      fds[c].events = static_cast<short>(
          POLLIN | (conns[c].out_off < conns[c].out.size() ? POLLOUT : 0));
      fds[c].revents = 0;
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      for (auto& conn : conns) fail_connection(conn);
    }
    now = now_ns();

    for (std::size_t c = 0; c < conns.size(); ++c) {
      Connection& conn = conns[c];
      if (conn.dead || !(fds[c].revents & (POLLIN | POLLERR | POLLHUP))) {
        continue;
      }
      while (true) {
        const ssize_t r = ::recv(conn.fd, buf, sizeof buf, 0);
        if (r > 0) {
          conn.in.append(buf, static_cast<std::size_t>(r));
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        if (r == 0 || !(errno == EAGAIN || errno == EWOULDBLOCK)) {
          // Peer closed or errored: parse what arrived, fail the rest.
          conn.dead = true;
        }
        break;
      }
      // Parse every complete response in the buffer.
      while (!conn.inflight.empty()) {
        const std::string_view pending =
            std::string_view{conn.in}.substr(conn.in_off);
        const std::size_t head_end = pending.find("\r\n\r\n");
        if (head_end == std::string_view::npos) break;
        const std::string_view head = pending.substr(0, head_end);
        bool has_length = false;
        const std::size_t body_len = content_length(head, has_length);
        if (!has_length) {
          fail_connection(conn);
          break;
        }
        const std::size_t total = head_end + 4 + body_len;
        if (pending.size() < total) break;
        int status = 0;
        if (head.size() >= 12 && head.substr(0, 5) == "HTTP/") {
          std::from_chars(head.data() + 9, head.data() + 12, status);
        }
        const std::size_t i = conn.inflight.front();
        conn.inflight.pop_front();
        auto& o = result.outcomes[i];
        o.done_ns = now;
        o.status = status;
        const QueryKind kind = queries[i % queries.size()].kind;
        if (!status_ok(kind, status)) {
          o.status = status;
          ++result.bad_status;
          ++result.failed;
        } else if (status == 200 &&
                   (++result.json_checked,
                    !parses_as_json(pending.substr(head_end + 4, body_len)))) {
          ++result.bad_json;
          ++result.failed;
        } else {
          o.ok = true;
        }
        ++settled;
        conn.in_off += total;
      }
      if (conn.in_off > 0 && conn.in_off * 2 >= conn.in.size()) {
        conn.in.erase(0, conn.in_off);
        conn.in_off = 0;
      }
      if (conn.dead) fail_connection(conn);
    }

    // Requests outstanding past the timeout fail; so does everything
    // behind them on the same connection.
    for (auto& conn : conns) {
      if (!conn.dead && !conn.inflight.empty() &&
          now - result.outcomes[conn.inflight.front()].due_ns > timeout_ns) {
        for (const std::size_t i : conn.inflight) fail(i, result.timeouts);
        conn.inflight.clear();
        conn.dead = true;
        ::close(conn.fd);
        conn.fd = -1;
      }
    }
  }
  return result;
}

}  // namespace bench_e2e
