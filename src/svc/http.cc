#include "svc/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>

#include "util/json.h"

namespace blameit::svc {

namespace {

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool is_token_char(char c) noexcept {
  // RFC 7230 tchar, the characters legal in a method or header name.
  static constexpr std::string_view kExtra = "!#$%&'*+-.^_`|~";
  const auto uc = static_cast<unsigned char>(c);
  return std::isalnum(uc) || kExtra.find(c) != std::string_view::npos;
}

std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

int hex_value(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

const std::string* HttpRequest::query_param(std::string_view key) const {
  for (const auto& [k, v] : query) {
    if (k == key) return &v;
  }
  return nullptr;
}

const std::string* HttpRequest::header(std::string_view name) const {
  for (const auto& [k, v] : headers) {
    if (iequals(k, name)) return &v;
  }
  return nullptr;
}

std::string_view status_reason(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string render_response(const HttpResponse& response, bool keep_alive) {
  std::string out;
  out.reserve(128 + response.body.size());
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += status_reason(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: ";
  out += keep_alive ? "keep-alive" : "close";
  out += "\r\n\r\n";
  out += response.body;
  return out;
}

bool url_decode(std::string_view in, std::string& out, bool plus_is_space) {
  out.clear();
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    if (c == '%') {
      if (i + 2 >= in.size()) return false;
      const int hi = hex_value(in[i + 1]);
      const int lo = hex_value(in[i + 2]);
      if (hi < 0 || lo < 0) return false;
      out += static_cast<char>((hi << 4) | lo);
      i += 2;
    } else if (c == '+' && plus_is_space) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return true;
}

ParseStatus parse_request_head(std::string_view buf, const HttpLimits& limits,
                               HttpRequest& request, std::size_t& head_bytes,
                               std::size_t& body_bytes) {
  head_bytes = 0;
  body_bytes = 0;
  const auto head_end = buf.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return buf.size() > limits.max_head_bytes ? ParseStatus::HeadTooLarge
                                              : ParseStatus::NeedMore;
  }
  if (head_end + 4 > limits.max_head_bytes) return ParseStatus::HeadTooLarge;
  head_bytes = head_end + 4;
  const std::string_view head = buf.substr(0, head_end);

  // Request line: METHOD SP target SP HTTP/1.x
  const auto line_end = head.find("\r\n");
  const std::string_view line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const auto sp1 = line.find(' ');
  const auto sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) {
    return ParseStatus::BadRequest;
  }
  const std::string_view method = line.substr(0, sp1);
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);
  if (method.empty() || target.empty() ||
      !std::all_of(method.begin(), method.end(), is_token_char)) {
    return ParseStatus::BadRequest;
  }
  if (target.front() != '/' && target != "*") return ParseStatus::BadRequest;
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return ParseStatus::BadRequest;
  }

  request = HttpRequest{};
  request.method = std::string{method};
  request.target = std::string{target};
  request.version_minor = version.back() == '1' ? 1 : 0;
  request.keep_alive = request.version_minor >= 1;

  // Split target into decoded path + query parameters.
  const auto qpos = target.find('?');
  if (!url_decode(target.substr(0, qpos), request.path, false)) {
    return ParseStatus::BadRequest;
  }
  if (qpos != std::string_view::npos) {
    std::string_view qs = target.substr(qpos + 1);
    while (!qs.empty()) {
      const auto amp = qs.find('&');
      const std::string_view pair =
          amp == std::string_view::npos ? qs : qs.substr(0, amp);
      qs = amp == std::string_view::npos ? std::string_view{}
                                         : qs.substr(amp + 1);
      if (pair.empty()) continue;
      const auto eq = pair.find('=');
      std::string k, v;
      if (!url_decode(pair.substr(0, eq), k, true)) {
        return ParseStatus::BadRequest;
      }
      if (eq != std::string_view::npos &&
          !url_decode(pair.substr(eq + 1), v, true)) {
        return ParseStatus::BadRequest;
      }
      request.query.emplace_back(std::move(k), std::move(v));
    }
  }

  // Header fields.
  std::string_view rest = line_end == std::string_view::npos
                              ? std::string_view{}
                              : head.substr(line_end + 2);
  int count = 0;
  bool have_length = false;
  while (!rest.empty()) {
    const auto eol = rest.find("\r\n");
    const std::string_view field =
        eol == std::string_view::npos ? rest : rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 2);
    if (field.empty()) continue;
    if (++count > limits.max_headers) return ParseStatus::HeadTooLarge;
    const auto colon = field.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return ParseStatus::BadRequest;
    }
    const std::string_view name = field.substr(0, colon);
    if (!std::all_of(name.begin(), name.end(), is_token_char)) {
      return ParseStatus::BadRequest;  // catches "Name space: v" smuggling
    }
    const std::string_view value = trim(field.substr(colon + 1));
    request.headers.emplace_back(std::string{name}, std::string{value});

    if (iequals(name, "content-length")) {
      std::size_t n = 0;
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), n);
      if (ec != std::errc{} || ptr != value.data() + value.size() ||
          (have_length && n != body_bytes)) {
        return ParseStatus::BadRequest;
      }
      have_length = true;
      body_bytes = n;
    } else if (iequals(name, "transfer-encoding")) {
      // Chunked bodies are out of scope; rejecting beats smuggling.
      return ParseStatus::BadRequest;
    } else if (iequals(name, "connection")) {
      if (iequals(value, "close")) request.keep_alive = false;
      if (iequals(value, "keep-alive")) request.keep_alive = true;
    }
  }
  if (body_bytes > limits.max_body_bytes) return ParseStatus::BodyTooLarge;
  return ParseStatus::Ok;
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

HttpServer::HttpServer(Handler handler, HttpServerConfig config)
    : handler_(std::move(handler)),
      config_(std::move(config)),
      active_fds_(static_cast<std::size_t>(std::max(1, config_.workers))) {
  if (!handler_) throw std::invalid_argument{"HttpServer: null handler"};
  config_.workers = std::max(1, config_.workers);
  for (auto& fd : active_fds_) fd.store(-1, std::memory_order_relaxed);
}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start() {
  if (running_.load(std::memory_order_acquire)) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, config_.listen_backlog) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_.store(ntohs(addr.sin_port), std::memory_order_release);
  }

  stopping_.store(false, std::memory_order_release);
  pending_ =
      std::make_unique<BoundedQueue<int>>(config_.max_pending_connections);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  return true;
}

void HttpServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  // No new connections past this point. Close the queue (workers drain the
  // already-accepted sockets) and kick any worker blocked in recv().
  pending_->close();
  for (auto& slot : active_fds_) {
    const int fd = slot.load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  // Anything still queued was closed by the draining workers; the queue is
  // empty now. Tear down the listener last.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  pending_.reset();
  running_.store(false, std::memory_order_release);
}

void HttpServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0 || !(pfd.revents & POLLIN)) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK) {
        continue;
      }
      break;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    if (pending_->push(fd) == PushStatus::Closed) {
      ::close(fd);  // raced with stop()
    }
  }
}

void HttpServer::worker_loop(int worker_index) {
  while (true) {
    auto fd = pending_->pop();
    if (!fd) return;  // queue closed and drained
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(*fd);  // draining: shed queued sockets without serving
      continue;
    }
    serve_connection(*fd, worker_index);
  }
}

bool HttpServer::send_error(int fd, int status, std::string_view detail) {
  util::json::Writer w;
  w.begin_object().member("error", detail).end_object();
  const auto wire =
      render_response(HttpResponse::json(status, std::move(w).str()), false);
  (void)::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
  return false;
}

void HttpServer::serve_connection(int fd, int worker_index) {
  auto& slot = active_fds_[static_cast<std::size_t>(worker_index)];
  slot.store(fd, std::memory_order_release);

  timeval tv{};
  tv.tv_sec = config_.limits.read_timeout_ms / 1000;
  tv.tv_usec = (config_.limits.read_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::string buffer;
  char chunk[4096];
  bool alive = true;
  while (alive && !stopping_.load(std::memory_order_acquire)) {
    // Parse everything already buffered (pipelined requests) before
    // touching the socket again.
    HttpRequest request;
    std::size_t head_bytes = 0;
    std::size_t body_bytes = 0;
    const auto status = parse_request_head(buffer, config_.limits, request,
                                           head_bytes, body_bytes);
    switch (status) {
      case ParseStatus::NeedMore: {
        const auto rc = ::recv(fd, chunk, sizeof(chunk), 0);
        if (rc > 0) {
          buffer.append(chunk, static_cast<std::size_t>(rc));
          continue;
        }
        if (rc == 0) {
          // Peer closed. Mid-request garbage gets a 400 the half-closed
          // peer can still read; a clean idle close gets silence.
          alive = buffer.empty() ? false
                                 : send_error(fd, 400, "truncated request");
          continue;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          alive = buffer.empty() ? false  // idle keep-alive expiry
                                 : send_error(fd, 408, "request timeout");
          continue;
        }
        alive = false;
        continue;
      }
      case ParseStatus::BadRequest:
        alive = send_error(fd, 400, "malformed request");
        continue;
      case ParseStatus::HeadTooLarge:
        alive = send_error(fd, 431, "request head too large");
        continue;
      case ParseStatus::BodyTooLarge:
        alive = send_error(fd, 413, "request body too large");
        continue;
      case ParseStatus::Ok:
        break;
    }

    // Read the declared body (it may be partially buffered already).
    bool body_ok = true;
    while (buffer.size() < head_bytes + body_bytes) {
      const auto rc = ::recv(fd, chunk, sizeof(chunk), 0);
      if (rc > 0) {
        buffer.append(chunk, static_cast<std::size_t>(rc));
        continue;
      }
      if (rc < 0 && errno == EINTR) continue;
      body_ok = false;
      alive = (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                  ? send_error(fd, 408, "request timeout")
                  : send_error(fd, 400, "truncated body");
      break;
    }
    if (!body_ok) continue;
    request.body = buffer.substr(head_bytes, body_bytes);
    buffer.erase(0, head_bytes + body_bytes);

    HttpResponse response;
    try {
      response = handler_(request);
    } catch (const std::exception&) {
      response = HttpResponse::json(
          500, std::string{R"({"error":"internal error"})"});
    }
    requests_.fetch_add(1, std::memory_order_relaxed);

    const bool keep =
        request.keep_alive && !stopping_.load(std::memory_order_acquire);
    const auto wire = render_response(response, keep);
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const auto rc =
          ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (rc < 0) {
        if (errno == EINTR) continue;
        break;
      }
      sent += static_cast<std::size_t>(rc);
    }
    alive = keep && sent == wire.size();
  }

  slot.store(-1, std::memory_order_release);
  ::close(fd);
}

}  // namespace blameit::svc
