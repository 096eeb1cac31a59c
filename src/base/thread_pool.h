// Fixed-size worker thread pool over a bounded MPMC task queue — the
// execution substrate of the sanitization service (src/service/) and of
// the MSM prewarm's cross-node fan-out. Two deliberate departures from a
// generic pool:
//
//  * tasks receive the id of the worker running them, so callers can keep
//    per-worker state (deterministic RNG streams, scratch buffers) without
//    any synchronization;
//  * the queue is bounded and exposes only a non-blocking TrySubmit,
//    which is how the service applies backpressure: when the queue is full
//    the submission fails immediately instead of growing an unbounded
//    backlog.
//
// The queue is a bounded sequence ring (Vyukov's MPMC ring): one cell per
// slot, each with a sequence word that says whose turn the cell is. A push
// is one CAS on the tail and a pop one CAS on the head; producers and
// consumers meet only on the cell they hand over, never on a lock. The
// sequence words count in half-steps (2p: empty for position p, 2p + 1:
// holds position p's item), so "full at lap n" and "empty at lap n + 1"
// differ for every capacity, 1 included, and the capacity is exact.
// Closing is a bit in the tail word, so a push either claims its cell
// before the close or sees the bit; a consumer stops only once the queue
// is closed and every claimed cell has been taken.
//
// Waking. A consumer that finds the queue empty spins for a fixed
// kSpinPauses pauses (~50 us) before it parks on a futex. A producer wakes
// one parked consumer whenever any is parked; under saturation every
// consumer is busy or spinning, so a push pays no wake at all.

#ifndef GEOPRIV_BASE_THREAD_POOL_H_
#define GEOPRIV_BASE_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/sharded_counter.h"

namespace geopriv {

// Bounded multi-producer multi-consumer queue. All methods are thread-safe.
// Producers never block: TryPush is the one way in. Closing wakes every
// parked consumer; a closed queue rejects pushes but drains its remaining
// items.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity), cells_(new Cell[capacity]) {
    for (size_t i = 0; i < capacity_; ++i) {
      cells_[i].seq.store(2 * i, std::memory_order_relaxed);
    }
  }

  ~BoundedQueue() {
    const uint64_t tail = tail_.load(std::memory_order_acquire) >> 1;
    for (uint64_t p = head_.load(std::memory_order_acquire); p < tail; ++p) {
      Cell& cell = cells_[p % capacity_];
      if (cell.seq.load(std::memory_order_acquire) == 2 * p + 1) {
        cell.item()->~T();
      }
    }
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Non-blocking; false when the queue is full or closed.
  bool TryPush(T item) {
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    for (;;) {
      if ((tail & kClosedBit) != 0) return false;
      const uint64_t pos = tail >> 1;
      Cell& cell = cells_[pos % capacity_];
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const int64_t lag = static_cast<int64_t>(seq - 2 * pos);
      if (lag == 0) {
        if (tail_.compare_exchange_weak(tail, tail + 2,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
          ::new (static_cast<void*>(cell.storage)) T(std::move(item));
          cell.seq.store(2 * pos + 1, std::memory_order_release);
          // A seq_cst load after the seq_cst tail CAS: see Park().
          if (sleepers_.load(std::memory_order_seq_cst) > 0) WakeOne();
          return true;
        }
      } else if (lag < 0) {
        return false;  // the cell still holds the previous lap's item
      } else {
        tail = tail_.load(std::memory_order_relaxed);  // another push won
      }
    }
  }

  // Blocks until an item is available; false when the queue is closed and
  // drained.
  bool Pop(T* out) {
    for (;;) {
      for (int i = 0; i < kSpinPauses; ++i) {
        switch (TryPop(out)) {
          case PopResult::kItem:
            return true;
          case PopResult::kDrained:
            return false;
          case PopResult::kEmpty:
            CpuRelax();
            break;
        }
      }
      Park();
    }
  }

  void Close() {
    tail_.fetch_or(kClosedBit, std::memory_order_seq_cst);
    closed_.store(true, std::memory_order_release);
    wake_epoch_.fetch_add(1, std::memory_order_seq_cst);
    wake_epoch_.notify_all();
  }

  bool closed() const {
    return (tail_.load(std::memory_order_acquire) & kClosedBit) != 0;
  }

  size_t size() const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t tail = tail_.load(std::memory_order_acquire) >> 1;
    // The tail is read second and only grows, so tail >= head; a head read
    // before pops the tail already counts can overstate, hence the clamp.
    return static_cast<size_t>(std::min<uint64_t>(tail - head, capacity_));
  }

  size_t capacity() const { return capacity_; }

 private:
  // Pauses a consumer spins through before it parks: ~50 us at ~24 ns a
  // pause. Long enough that a worker under steady traffic rarely parks,
  // short enough that an idle pool stops burning its CPUs at once.
  static constexpr int kSpinPauses = 2000;
  // Tail bit 0; the tail position lives in the bits above it.
  static constexpr uint64_t kClosedBit = 1;

  enum class PopResult { kItem, kEmpty, kDrained };

  // Spin-loop hint: lets a sibling hyperthread run and eases the exit
  // from the loop.
  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  struct Cell {
    // 2p: empty, position p may fill it; 2p + 1: holds position p's item.
    std::atomic<uint64_t> seq;
    alignas(T) unsigned char storage[sizeof(T)];
    T* item() { return std::launder(reinterpret_cast<T*>(storage)); }
  };

  PopResult TryPop(T* out) {
    uint64_t head = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[head % capacity_];
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const int64_t lag = static_cast<int64_t>(seq - (2 * head + 1));
      if (lag == 0) {
        if (head_.compare_exchange_weak(head, head + 1,
                                        std::memory_order_relaxed)) {
          T* item = cell.item();
          *out = std::move(*item);
          item->~T();
          cell.seq.store(2 * (head + capacity_), std::memory_order_release);
          return PopResult::kItem;
        }
      } else if (lag < 0) {
        // Nothing published at `head`. Drained only if the queue is
        // closed and nothing was claimed there either; a claimed cell is a
        // push in progress, which wakes a parked consumer once it
        // publishes. An open queue is told by closed_, so spinning
        // consumers never pull the producers' line.
        if (!closed_.load(std::memory_order_acquire)) return PopResult::kEmpty;
        const uint64_t tail = tail_.load(std::memory_order_acquire);
        return (tail >> 1) == head && (tail & kClosedBit) != 0
                   ? PopResult::kDrained
                   : PopResult::kEmpty;
      } else {
        head = head_.load(std::memory_order_relaxed);  // another pop won
      }
    }
  }

  // Sleeps until a producer or Close() wakes this consumer. Counting
  // itself a sleeper before it re-reads the tail closes the lost-wakeup
  // window: the producer's seq_cst tail CAS and its seq_cst sleepers_ load
  // are ordered against this seq_cst increment and re-read, so either the
  // producer sees the sleeper and wakes it, or the re-read sees the claimed
  // cell. The wake epoch read before the re-read makes a wake that lands in
  // between return the wait at once.
  void Park() {
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    const uint32_t epoch = wake_epoch_.load(std::memory_order_seq_cst);
    const uint64_t tail = tail_.load(std::memory_order_seq_cst);
    if ((tail & kClosedBit) == 0 &&
        (tail >> 1) == head_.load(std::memory_order_seq_cst)) {
      wake_epoch_.wait(epoch, std::memory_order_seq_cst);
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }

  void WakeOne() {
    wake_epoch_.fetch_add(1, std::memory_order_seq_cst);
    wake_epoch_.notify_one();
  }

  const size_t capacity_;
  const std::unique_ptr<Cell[]> cells_;
  // Producers' line: position << 1 | kClosedBit.
  alignas(kCounterSlotAlign) std::atomic<uint64_t> tail_{0};
  // Consumers' line.
  alignas(kCounterSlotAlign) std::atomic<uint64_t> head_{0};
  // Wake state: read by every push, written only when a consumer parks.
  alignas(kCounterSlotAlign) std::atomic<int> sleepers_{0};
  std::atomic<uint32_t> wake_epoch_{0};
  // Set by Close() after the tail's closed bit, for spinning consumers.
  std::atomic<bool> closed_{false};
};

class ThreadPool {
 public:
  // A queued task: a move-only handle to a heap-allocated callable that is
  // handed the id (0-based) of the worker executing it. One pointer wide,
  // so a ring cell is 16 bytes.
  class Task {
   public:
    Task() = default;
    template <typename F, typename = std::enable_if_t<
                              !std::is_same_v<std::decay_t<F>, Task>>>
    Task(F&& fn)  // NOLINT(google-explicit-constructor): lambdas convert
        : impl_(std::make_unique<Impl<std::decay_t<F>>>(std::forward<F>(fn))) {
    }

    void operator()(int worker_id) { impl_->Run(worker_id); }

   private:
    struct Base {
      virtual ~Base() = default;
      virtual void Run(int worker_id) = 0;
    };
    template <typename F>
    struct Impl final : Base {
      template <typename G>
      explicit Impl(G&& g) : fn(std::forward<G>(g)) {}
      void Run(int worker_id) override { fn(worker_id); }
      F fn;
    };
    std::unique_ptr<Base> impl_;
  };

  // Spawns `num_threads` workers (>= 1) over a queue of `queue_capacity`
  // pending tasks.
  ThreadPool(int num_threads, size_t queue_capacity);

  // Drains remaining tasks and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Non-blocking submission; false when the queue is full (backpressure)
  // or the pool is shut down.
  bool TrySubmit(Task task);

  // Stops accepting tasks, runs what is already queued, joins the workers.
  // Idempotent; also called by the destructor.
  void Shutdown();

  // True once Shutdown() has begun: every later TrySubmit fails. Tells a
  // refused submission's two causes apart.
  bool shut_down() const { return queue_.closed(); }

  int num_threads() const { return static_cast<int>(workers_.size()); }
  size_t queue_depth() const { return queue_.size(); }
  size_t queue_capacity() const { return queue_.capacity(); }

 private:
  void WorkerLoop(int worker_id);

  BoundedQueue<Task> queue_;
  std::vector<std::thread> workers_;
};

}  // namespace geopriv

#endif  // GEOPRIV_BASE_THREAD_POOL_H_
