#include "base/thread_pool.h"

#include <atomic>
#include <chrono>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel_for.h"

namespace geopriv {
namespace {

TEST(BoundedQueueTest, FifoWithinCapacity) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_TRUE(q.TryPush(3));
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_EQ(q.size(), 1u);
}

TEST(BoundedQueueTest, TryPushFailsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full: admission control kicks in
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_TRUE(q.TryPush(3));  // space again
}

TEST(BoundedQueueTest, CloseDrainsRemainingItems) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(7));
  q.Close();
  EXPECT_FALSE(q.TryPush(8));  // closed: rejected
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));  // ... but existing items drain
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(q.Pop(&v));  // closed and empty
}

TEST(BoundedQueueTest, TryPushWakesABlockedConsumer) {
  BoundedQueue<int> q(2);
  int v = 0;
  std::thread consumer([&] { EXPECT_TRUE(q.Pop(&v)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(q.TryPush(5));
  consumer.join();  // hangs here if TryPush does not wake the consumer
  EXPECT_EQ(v, 5);
}

TEST(BoundedQueueTest, CloseWakesEveryBlockedConsumer) {
  BoundedQueue<int> q(2);
  std::atomic<int> woken{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; ++i) {
    consumers.emplace_back([&] {
      int v = 0;
      EXPECT_FALSE(q.Pop(&v));  // closed and empty
      woken.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  for (std::thread& consumer : consumers) consumer.join();
  EXPECT_EQ(woken.load(), 3);
}

TEST(ThreadPoolTest, RunsEveryTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4, 256);  // room for every task: none is refused
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(pool.TrySubmit([&count](int) { ++count; }));
    }
  }  // destructor drains and joins
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, WorkerIdsAreStableAndInRange) {
  std::mutex mu;
  std::set<int> seen;
  {
    ThreadPool pool(3, 128);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(pool.TrySubmit([&](int worker_id) {
        std::lock_guard<std::mutex> lock(mu);
        seen.insert(worker_id);
      }));
    }
  }
  ASSERT_FALSE(seen.empty());
  EXPECT_GE(*seen.begin(), 0);
  EXPECT_LT(*seen.rbegin(), 3);
}

TEST(ThreadPoolTest, TrySubmitAppliesBackpressure) {
  // One worker blocked on a gate + a full queue => TrySubmit must fail.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;

  ThreadPool pool(1, 2);
  ASSERT_TRUE(pool.TrySubmit([&](int) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  }));
  // Wait until the worker has dequeued the gate task, then fill the queue.
  while (pool.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(pool.TrySubmit([](int) {}));
  EXPECT_TRUE(pool.TrySubmit([](int) {}));
  EXPECT_FALSE(pool.TrySubmit([](int) {}));  // queue full
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Shutdown();
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(2, 8);
  EXPECT_FALSE(pool.shut_down());
  pool.Shutdown();
  EXPECT_TRUE(pool.shut_down());
  EXPECT_FALSE(pool.TrySubmit([](int) {}));
}

TEST(ThreadPoolTest, ConcurrentProducers) {
  std::atomic<int> count{0};
  ThreadPool pool(4, 32);
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        // 400 tasks through 32 slots: a refusal means "full", so retry.
        while (!pool.TrySubmit([&count](int) { ++count; })) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.Shutdown();
  EXPECT_EQ(count.load(), 400);
}

TEST(ParallelChunksTest, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(4, 64);
  constexpr int kChunks = 97;
  std::vector<std::atomic<int>> hits(kChunks);
  ParallelChunks(&pool, 8, kChunks,
                 [&](int c) { hits[static_cast<size_t>(c)].fetch_add(1); });
  for (int c = 0; c < kChunks; ++c) {
    EXPECT_EQ(hits[static_cast<size_t>(c)].load(), 1) << "chunk " << c;
  }
  pool.Shutdown();
}

TEST(ParallelChunksTest, NullPoolRunsSeriallyInOrder) {
  std::vector<int> order;
  ParallelChunks(nullptr, 8, 10, [&](int c) { order.push_back(c); });
  ASSERT_EQ(order.size(), 10u);
  for (int c = 0; c < 10; ++c) EXPECT_EQ(order[static_cast<size_t>(c)], c);
}

TEST(ParallelChunksTest, SafeFromPoolWorker) {
  // A nested ParallelChunks issued from one of the pool's own workers must
  // not deadlock: helpers are recruited non-blockingly and the issuing
  // worker claims whatever nobody picks up.
  ThreadPool pool(2, 4);
  std::atomic<int> inner_hits{0};
  std::atomic<bool> done{false};
  ASSERT_TRUE(pool.TrySubmit([&](int) {
    ParallelChunks(&pool, 4, 16, [&](int) { inner_hits.fetch_add(1); });
    done.store(true);
  }));
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(inner_hits.load(), 16);
  pool.Shutdown();
}

TEST(ParallelChunksTest, ShutDownPoolFallsBackToCaller) {
  ThreadPool pool(2, 4);
  pool.Shutdown();
  std::atomic<int> hits{0};
  ParallelChunks(&pool, 4, 8, [&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 8);
}

TEST(ParallelChunksTest, EffectiveParallelismResolution) {
  EXPECT_EQ(EffectiveParallelism(nullptr), 1);
  ThreadPool pool(3, 8);
  EXPECT_EQ(EffectiveParallelism(&pool), 4);  // workers + caller
  pool.Shutdown();
}

}  // namespace
}  // namespace geopriv
