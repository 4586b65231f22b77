#pragma once
// Bounded MPMC job queue with blocking backpressure.
//
// The batch runner's producer feeds this queue and worker threads drain it.
// The bound is the backpressure mechanism: a full queue blocks the producer,
// so total throughput is governed by the workers and the manifest is never
// read further ahead than the queue depth.
//
// close() ends the stream: producers stop enqueuing, consumers drain what is
// left and then see nullopt. All operations are thread-safe; a TSan-covered
// test drives concurrent producers and consumers through it.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>

#include "service/job.h"

namespace rgleak::service {

class JobQueue {
 public:
  explicit JobQueue(std::size_t capacity);

  /// Waits until there is space or the queue closes. Returns true when `job`
  /// was queued, false when the queue was closed first.
  bool push(JobSpec job);

  /// Blocks until a job is available or the queue is closed and drained
  /// (then returns nullopt).
  std::optional<JobSpec> pop();

  /// No further pushes succeed; blocked producers and consumers wake. Idempotent.
  void close();

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  /// Deepest the queue has been, for backpressure diagnostics.
  std::size_t high_watermark() const;

 private:
  const std::size_t capacity_;

  mutable std::mutex mutex_;
  std::condition_variable space_;  // producers wait here
  std::condition_variable items_;  // consumers wait here
  std::deque<JobSpec> queue_;
  bool closed_ = false;
  std::size_t high_watermark_ = 0;
};

}  // namespace rgleak::service
