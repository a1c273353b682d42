#include "support/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/budget.h"
#include "support/contracts.h"

namespace dr::support {

namespace {

/// True on threads currently executing a parallelFor task: nested sweeps
/// run serially instead of blocking on the (busy) pool.
thread_local bool tlsInsideTask = false;

/// One index sweep. Heap-allocated and shared with the workers so a
/// straggler that wakes late claims from *this* job's exhausted counter
/// instead of racing a successor job's fresh one.
struct Job {
  const std::function<void(i64)>* fn = nullptr;
  i64 size = 0;
  std::atomic<i64> next{0};
  std::atomic<i64> pending{0};
  std::exception_ptr error;  ///< first failure; guarded by the pool mutex
};

/// Persistent worker pool executing one sweep at a time. The submitting
/// thread participates, so even a zero-worker pool makes progress.
class ThreadPool {
 public:
  explicit ThreadPool(int workers) {
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
      workers_.emplace_back([this] { workerLoop(); });
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  void run(i64 n, const std::function<void(i64)>& fn) {
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->size = n;
    job->pending.store(n, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      submitGate_.wait(lock, [this] { return job_ == nullptr; });
      job_ = job;
      ++generation_;
    }
    wake_.notify_all();

    work(*job);  // the caller is a worker too

    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&job] { return job->pending.load() == 0; });
    std::exception_ptr error = job->error;
    job_ = nullptr;
    lock.unlock();
    submitGate_.notify_one();
    if (error) std::rethrow_exception(error);
  }

  static ThreadPool& global() {
    static ThreadPool pool(std::max(0, parallelThreads() - 1));
    return pool;
  }

 private:
  void workerLoop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [this, seen] {
          return stopping_ || (job_ != nullptr && generation_ != seen);
        });
        if (stopping_) return;
        seen = generation_;
        job = job_;
      }
      work(*job);
    }
  }

  /// Claims indices until the job's counter is exhausted.
  void work(Job& job) {
    tlsInsideTask = true;
    i64 doneHere = 0;
    for (;;) {
      i64 i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.size) break;
      try {
        (*job.fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!job.error) job.error = std::current_exception();
      }
      ++doneHere;
    }
    tlsInsideTask = false;
    if (doneHere > 0 && job.pending.fetch_sub(doneHere) == doneHere) {
      std::lock_guard<std::mutex> lock(mutex_);
      done_.notify_all();
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::condition_variable submitGate_;
  bool stopping_ = false;
  std::shared_ptr<Job> job_;  ///< guarded by mutex_
  std::uint64_t generation_ = 0;
};

}  // namespace

int parallelThreads() {
  if (const char* env = std::getenv("DR_THREADS")) {
    int n = std::atoi(env);
    if (n >= 1) return n;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void parallelFor(i64 n, const std::function<void(i64)>& fn, int threads) {
  DR_REQUIRE(n >= 0);
  DR_REQUIRE(static_cast<bool>(fn));
  if (threads <= 0) threads = parallelThreads();
  if (n <= 1 || threads == 1 || tlsInsideTask) {
    for (i64 i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool::global().run(n, fn);
}

void parallelFor(i64 n, const RunBudget* budget,
                 const std::function<void(i64)>& fn, int threads) {
  if (budget == nullptr) {
    parallelFor(n, fn, threads);
    return;
  }
  // Wrap rather than touch the pool: the trip check runs on the claiming
  // thread right before fn, so a budget tripped mid-sweep stops every
  // index that has not started yet while in-flight ones finish normally.
  parallelFor(
      n, [&](i64 i) { if (!budget->tripped()) fn(i); }, threads);
}

}  // namespace dr::support
