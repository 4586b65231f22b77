// The bounded MPMC job queue: blocking backpressure, close semantics, and a
// TSan-covered concurrent accounting test (run by scripts/tsan_check.sh via
// the *Concurrent* filter).

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/job_queue.h"

namespace rgleak::service {
namespace {

JobSpec job(const std::string& id) {
  JobSpec j;
  j.id = id;
  j.kind = "test";
  return j;
}

TEST(JobQueue, FifoWithinCapacity) {
  JobQueue q(4);
  for (const char* id : {"a", "b", "c"}) EXPECT_TRUE(q.push(job(id)));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.high_watermark(), 3u);
  EXPECT_EQ(q.pop()->id, "a");
  EXPECT_EQ(q.pop()->id, "b");
  EXPECT_EQ(q.pop()->id, "c");
}

TEST(JobQueue, CloseDrainsThenEndsAndRefusesNewPushes) {
  JobQueue q(4);
  q.push(job("a"));
  q.close();
  q.close();  // idempotent
  EXPECT_FALSE(q.push(job("b")));  // refused after close
  EXPECT_EQ(q.pop()->id, "a");
  EXPECT_FALSE(q.pop().has_value());
}

TEST(JobQueue, ConcurrentBlockingPushWaitsForSpace) {
  JobQueue q(1);
  EXPECT_TRUE(q.push(job("a")));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(job("b")));  // blocks until the pop below
    pushed.store(true);
  });
  EXPECT_EQ(q.pop()->id, "a");
  EXPECT_EQ(q.pop()->id, "b");  // blocks until the producer lands it
  producer.join();
  EXPECT_TRUE(pushed.load());
}

TEST(JobQueue, ConcurrentCloseWakesBlockedProducerAndConsumers) {
  JobQueue q(1);
  q.push(job("a"));
  std::thread producer([&] {
    // Blocked on the full queue until either the consumer makes space or
    // close() wakes it — the interleaving decides which, so the assertion is
    // only that the push returned at all.
    (void)q.push(job("b"));
  });
  std::thread consumer([&] {
    while (q.pop().has_value()) {
    }
  });
  q.close();
  producer.join();
  consumer.join();
}

// Accounting under contention: with P producers and C consumers, every job is
// consumed exactly once, the queue drains empty, and nothing deadlocks.
TEST(JobQueue, ConcurrentAccountingBlock) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 200;
  JobQueue q(8);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i)
        EXPECT_TRUE(q.push(job(std::to_string(p) + ":" + std::to_string(i))));
    });
  }

  std::mutex popped_mutex;
  std::set<std::string> popped;
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto j = q.pop()) {
        std::lock_guard<std::mutex> lock(popped_mutex);
        EXPECT_TRUE(popped.insert(j->id).second) << "job consumed twice";
      }
    });
  }

  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(popped.size(), static_cast<std::size_t>(kProducers) * kPerProducer);
  EXPECT_LE(q.high_watermark(), q.capacity());
}

}  // namespace
}  // namespace rgleak::service
