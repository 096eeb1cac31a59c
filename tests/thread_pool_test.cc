#include "base/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

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

TEST(BoundedQueueTest, CapacityOneHoldsExactlyOneItem) {
  // A ring whose sequence words are pos (empty) and pos + 1 (full) reads
  // "full at lap n" as "empty at lap n + 1" when it has one cell, and
  // accepts the second push.
  BoundedQueue<int> q(1);
  int v = 0;
  for (int lap = 0; lap < 4; ++lap) {
    EXPECT_TRUE(q.TryPush(2 * lap));
    EXPECT_FALSE(q.TryPush(2 * lap + 1)) << "lap " << lap;  // full
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.Pop(&v));
    EXPECT_EQ(v, 2 * lap);  // the first push, not the refused one
    EXPECT_EQ(q.size(), 0u);
  }
}

TEST(BoundedQueueTest, ManyProducersManyConsumersDeliverEachItemOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5000;
  for (const size_t capacity : {size_t{1}, size_t{2}, size_t{3}, size_t{64}}) {
    SCOPED_TRACE(capacity);
    BoundedQueue<int> q(capacity);
    std::atomic<bool> consumers_go{false};
    std::atomic<bool> producers_go{false};
    std::atomic<int> gated_done{0};
    std::atomic<size_t> gated_accepted{0};
    std::vector<std::atomic<int>> pops(kProducers * kPerProducer);
    std::atomic<bool> out_of_order{false};

    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
      consumers.emplace_back([&] {
        while (!consumers_go.load()) std::this_thread::yield();
        // Positions leave the ring in order, so one consumer sees each
        // producer's items in the order they were pushed.
        std::vector<int> last(kProducers, -1);
        int item = 0;
        while (q.Pop(&item)) {
          pops[static_cast<size_t>(item)].fetch_add(1);
          const int producer = item / kPerProducer;
          if (item % kPerProducer <= last[static_cast<size_t>(producer)]) {
            out_of_order.store(true);
          }
          last[static_cast<size_t>(producer)] = item % kPerProducer;
        }
      });
    }
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        int next = 0;
        // Consumers gated: push until refused.
        while (next < kPerProducer && q.TryPush(p * kPerProducer + next)) {
          ++next;
          gated_accepted.fetch_add(1);
        }
        gated_done.fetch_add(1);
        while (!producers_go.load()) std::this_thread::yield();
        while (next < kPerProducer) {
          if (q.TryPush(p * kPerProducer + next)) {
            ++next;
          } else {
            std::this_thread::yield();
          }
        }
      });
    }
    while (gated_done.load() < kProducers) std::this_thread::yield();
    // Every producer was refused once, so the ring is exactly full.
    EXPECT_EQ(gated_accepted.load(), capacity);
    EXPECT_EQ(q.size(), capacity);
    consumers_go.store(true);
    producers_go.store(true);
    for (std::thread& t : producers) t.join();
    q.Close();
    for (std::thread& t : consumers) t.join();
    int missing = 0, repeated = 0;
    for (const std::atomic<int>& n : pops) {
      missing += n.load() == 0 ? 1 : 0;
      repeated += n.load() > 1 ? 1 : 0;
    }
    EXPECT_EQ(missing, 0);
    EXPECT_EQ(repeated, 0);
    EXPECT_FALSE(out_of_order.load());
    EXPECT_EQ(q.size(), 0u);
  }
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

TEST(ThreadPoolTest, ShutdownRunsEveryAcceptedTask) {
  // Producers race Shutdown(): a task accepted while the queue closes
  // must still run before Shutdown() returns, and no submission that
  // starts after shut_down() reads true may be accepted.
  constexpr int kProducers = 3;
  constexpr int kMaxTasks = 1 << 15;
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE(round);
    ThreadPool pool(2, 8);
    std::vector<std::atomic<int>> runs(kProducers * kMaxTasks);
    std::vector<std::vector<char>> accepted(kProducers);
    std::atomic<int> late_accepts{0};
    std::atomic<int> submitted{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        int late_calls = 0;
        for (int i = 0; i < kMaxTasks && late_calls < 16; ++i) {
          const bool shut_before = pool.shut_down();
          std::atomic<int>* run = &runs[static_cast<size_t>(p * kMaxTasks + i)];
          const bool ok = pool.TrySubmit([run](int) { run->fetch_add(1); });
          accepted[static_cast<size_t>(p)].push_back(ok ? 1 : 0);
          submitted.fetch_add(1);
          if (shut_before) {
            ++late_calls;
            if (ok) late_accepts.fetch_add(1);
          }
        }
      });
    }
    while (submitted.load() < 200) std::this_thread::yield();
    pool.Shutdown();
    std::vector<int> at_shutdown(runs.size());
    for (size_t i = 0; i < runs.size(); ++i) at_shutdown[i] = runs[i].load();
    for (std::thread& t : producers) t.join();
    EXPECT_EQ(late_accepts.load(), 0);
    int lost = 0, repeated = 0, ran_refused = 0;
    for (int p = 0; p < kProducers; ++p) {
      const std::vector<char>& flags = accepted[static_cast<size_t>(p)];
      for (size_t i = 0; i < flags.size(); ++i) {
        const size_t id = static_cast<size_t>(p * kMaxTasks) + i;
        if (flags[i] != 0) {
          lost += at_shutdown[id] == 0 ? 1 : 0;
          repeated += runs[id].load() > 1 ? 1 : 0;
        } else {
          ran_refused += runs[id].load() != 0 ? 1 : 0;
        }
      }
    }
    EXPECT_EQ(lost, 0) << "accepted tasks had not run when Shutdown() returned";
    EXPECT_EQ(repeated, 0);
    EXPECT_EQ(ran_refused, 0);
  }
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

}  // namespace
}  // namespace geopriv
