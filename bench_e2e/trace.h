// In-memory spans for the traced run, and the arithmetic that turns them
// into per-layer times.
//
// The benchmark records a span around each of its own calls into a module's
// public API (submit, flush, take_bucket, step, publish, each HTTP request).
// A span holds a name, start, end, its parent, and a group id shared by
// every span of one step or one request. Nothing is written while the run
// measures; write_json dumps the spans when it ends.
//
// Self time of a span is its duration minus the part of it that its
// children cover, so self times of a tree add up exactly to its root.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bench_e2e {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  int name = 0;
  int parent = -1;          ///< index of the enclosing span, -1 at a root
  std::uint64_t group = 0;  ///< step id or request id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Pauses or resumes recording (e.g. around untimed steps).
  void set_enabled(bool on) { enabled_ = on; }

  /// Stable id for a span name.
  int intern(std::string_view name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<int>(i);
    }
    names_.emplace_back(name);
    return static_cast<int>(names_.size() - 1);
  }

  /// Opens a span under the innermost open one. Returns its index, or -1
  /// when tracing is off (no clock read).
  int open(int name, std::uint64_t group) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, parent, group, now_ns(), 0});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

  /// Adds a span measured elsewhere (e.g. a request timed by the client).
  void add(int name, std::uint64_t group, int parent, std::int64_t start_ns,
           std::int64_t end_ns) {
    if (!enabled_) return;
    spans_.push_back(Span{name, parent, group, start_ns, end_ns});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }

  /// One JSON object per line: name, parent, group, start/end in ns.
  void write_json(std::FILE* out) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"i\":%zu,\"name\":\"%s\",\"parent\":%d,\"group\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   i, names_[static_cast<std::size_t>(s.name)].c_str(),
                   s.parent, static_cast<unsigned long long>(s.group),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; free when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, int name, std::uint64_t group)
      : tracer_(tracer), index_(tracer.open(name, group)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the span.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    out[i] = s.duration_ns() - covered;
  }
  return out;
}

/// Per span name: total duration and total self time, in milliseconds.
struct NameTotals {
  double total_ms = 0.0;
  double self_ms = 0.0;
};

inline std::map<std::string, NameTotals> totals_by_name(const Tracer& tracer) {
  std::map<std::string, NameTotals> out;
  const auto& spans = tracer.spans();
  const auto self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& t = out[tracer.names()[static_cast<std::size_t>(spans[i].name)]];
    t.total_ms += static_cast<double>(spans[i].duration_ns()) / 1e6;
    t.self_ms += static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

}  // namespace bench_e2e
