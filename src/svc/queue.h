// Bounded FIFO queue between the HTTP server's accept thread and its
// workers (svc/http.h): accepted sockets wait here for a free worker.
//
// Deliberately simple: one mutex and two condition variables, since one
// item is a whole connection. What matters is the contract:
//  - push() blocks while the queue is at capacity — that is the
//    backpressure mechanism (the kernel's listen backlog takes over), and
//    every blocking push is counted;
//  - FIFO order is preserved, so connections are served in accept order;
//  - close() is the shutdown valve: it wakes every blocked producer and
//    consumer, push() then refuses (and counts) new items, and pop() keeps
//    draining what was already queued before reporting exhaustion. Without
//    it, a producer blocked against a full queue deadlocks the moment the
//    workers stop draining.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

namespace blameit::svc {

/// What happened to a push(): accepted immediately, accepted after blocking
/// on a full queue (backpressure), or refused because the queue was closed.
enum class PushStatus : std::uint8_t { Ok, OkAfterBlocking, Closed };

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full (backpressure) unless the queue is closed; a close()
  /// while waiting wakes the call, which then drops the item and reports
  /// Closed (the drop is counted).
  PushStatus push(T item) {
    std::unique_lock lock{mutex_};
    bool blocked = false;
    if (queue_.size() >= capacity_ && !closed_) {
      blocked = true;
      ++blocked_pushes_;
      not_full_.wait(lock,
                     [&] { return queue_.size() < capacity_ || closed_; });
    }
    if (closed_) {
      ++dropped_pushes_;
      return PushStatus::Closed;
    }
    queue_.push_back(std::move(item));
    if (queue_.size() > high_water_) high_water_ = queue_.size();
    lock.unlock();
    not_empty_.notify_one();
    return blocked ? PushStatus::OkAfterBlocking : PushStatus::Ok;
  }

  /// Blocks while empty; returns nullopt once the queue is closed AND
  /// drained (items queued before close() are still delivered in order).
  [[nodiscard]] std::optional<T> pop() {
    std::unique_lock lock{mutex_};
    not_empty_.wait(lock, [&] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return std::nullopt;
    std::optional<T> item{std::move(queue_.front())};
    queue_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Irreversibly stops admission and wakes every waiter. Idempotent.
  void close() {
    {
      std::lock_guard lock{mutex_};
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock{mutex_};
    return closed_;
  }
  [[nodiscard]] std::size_t high_water() const {
    std::lock_guard lock{mutex_};
    return high_water_;
  }
  [[nodiscard]] std::uint64_t blocked_pushes() const {
    std::lock_guard lock{mutex_};
    return blocked_pushes_;
  }
  /// Pushes refused (and items dropped) because the queue was closed.
  [[nodiscard]] std::uint64_t dropped_pushes() const {
    std::lock_guard lock{mutex_};
    return dropped_pushes_;
  }
  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock{mutex_};
    return queue_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> queue_;
  bool closed_ = false;
  std::size_t high_water_ = 0;
  std::uint64_t blocked_pushes_ = 0;
  std::uint64_t dropped_pushes_ = 0;
};

}  // namespace blameit::svc
