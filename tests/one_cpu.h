// The serial analytics step in tests: a pipeline learns beside localize only
// when the thread that constructs it may use two or more CPUs, so a test
// gets the serial step by constructing on a thread pinned to one CPU, as
// `taskset -c 0` pins a whole process.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <cstddef>
#include <filesystem>
#include <iterator>
#include <system_error>

#include "core/pipeline.h"

namespace blameit::core {

/// Pins the calling thread to the first CPU it may use until destroyed,
/// then restores its affinity. Threads it starts meanwhile inherit the pin.
class PinnedToOneCpu {
 public:
  PinnedToOneCpu() {
    CPU_ZERO(&original_);
    check(pthread_getaffinity_np(pthread_self(), sizeof original_,
                                 &original_));
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(detail::LearnHelper::allowed_cpus().front(), &one);
    check(pthread_setaffinity_np(pthread_self(), sizeof one, &one));
  }
  ~PinnedToOneCpu() {
    pthread_setaffinity_np(pthread_self(), sizeof original_, &original_);
  }
  PinnedToOneCpu(const PinnedToOneCpu&) = delete;
  PinnedToOneCpu& operator=(const PinnedToOneCpu&) = delete;

 private:
  static void check(int rc) {
    if (rc != 0) throw std::system_error{rc, std::generic_category()};
  }
  cpu_set_t original_;
};

/// Threads of this process: the entries of /proc/self/task.
inline std::ptrdiff_t thread_count() {
  return std::distance(
      std::filesystem::directory_iterator{"/proc/self/task"},
      std::filesystem::directory_iterator{});
}

}  // namespace blameit::core
