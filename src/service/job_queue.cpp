#include "service/job_queue.h"

#include <algorithm>

#include "util/require.h"

namespace rgleak::service {

JobQueue::JobQueue(std::size_t capacity) : capacity_(capacity) {
  RGLEAK_REQUIRE(capacity > 0, "JobQueue capacity must be positive");
}

bool JobQueue::push(JobSpec job) {
  std::unique_lock<std::mutex> lock(mutex_);
  space_.wait(lock, [&] { return closed_ || queue_.size() < capacity_; });
  if (closed_) return false;
  queue_.push_back(std::move(job));
  high_watermark_ = std::max(high_watermark_, queue_.size());
  lock.unlock();
  items_.notify_one();
  return true;
}

std::optional<JobSpec> JobQueue::pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  items_.wait(lock, [&] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return std::nullopt;  // closed and drained
  JobSpec job = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  space_.notify_one();
  return job;
}

void JobQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  space_.notify_all();
  items_.notify_all();
}

std::size_t JobQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t JobQueue::high_watermark() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return high_watermark_;
}

}  // namespace rgleak::service
