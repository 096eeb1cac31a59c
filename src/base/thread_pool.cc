#include "base/thread_pool.h"

#include "base/check.h"

namespace geopriv {

ThreadPool::ThreadPool(int num_threads, size_t queue_capacity)
    : queue_(queue_capacity) {
  GEOPRIV_CHECK_MSG(num_threads >= 1, "thread pool needs >= 1 worker");
  GEOPRIV_CHECK_MSG(queue_capacity >= 1, "queue capacity must be >= 1");
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::TrySubmit(Task task) { return queue_.TryPush(std::move(task)); }

void ThreadPool::Shutdown() {
  queue_.Close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::WorkerLoop(int worker_id) {
  Task task;
  while (queue_.Pop(&task)) {
    task(worker_id);
    task = Task();  // release captured state before waiting on the queue
  }
}

}  // namespace geopriv
