#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace tomo::util {
namespace {

thread_local std::size_t t_width = 1;
/// True while this thread runs items of a call that fanned out (always, on
/// pool workers): nested parallel_for calls then run inline.
thread_local bool t_in_body = false;

/// One parallel_for call's shared state; lives on the caller's stack.
struct Job {
  std::size_t n;
  const std::function<void(std::size_t)>& body;
  std::vector<std::exception_ptr> errors = std::vector<std::exception_ptr>(n);
  std::atomic<std::size_t> next{0};

  /// Claims and runs items until none are left; never throws.
  void run() {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) {
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  }
};

/// The persistent pool. One fanned-out call holds it at a time; `seats_`
/// counts the workers that may still join that call.
class Executor {
 public:
  Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  ~Executor() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  /// Runs `job` on the caller plus up to `helpers` workers. Returns false,
  /// running nothing, when another thread's call holds the pool.
  bool try_run(Job& job, std::size_t helpers) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (job_ != nullptr) return false;
      while (threads_.size() < helpers) {
        threads_.emplace_back([this] { worker_loop(); });
      }
      job_ = &job;
      seats_ = helpers;
    }
    for (std::size_t s = 0; s < helpers; ++s) wake_.notify_one();
    t_in_body = true;
    job.run();
    t_in_body = false;
    std::unique_lock<std::mutex> lock(mutex_);
    seats_ = 0;  // workers that wake late find nothing to join
    idle_.wait(lock, [this] { return active_ == 0; });
    job_ = nullptr;
    return true;
  }

 private:
  void worker_loop() {
    t_in_body = true;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      wake_.wait(lock, [this] { return stop_ || seats_ > 0; });
      if (stop_) return;
      --seats_;
      ++active_;
      Job* job = job_;
      lock.unlock();
      job->run();
      lock.lock();
      if (--active_ == 0) idle_.notify_one();
    }
  }

  std::mutex mutex_;  // guards everything below
  std::condition_variable wake_;
  std::condition_variable idle_;
  Job* job_ = nullptr;
  std::size_t seats_ = 0;
  std::size_t active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: workers use the members above
};

Executor& executor() {
  static Executor instance;  // joined at process exit
  return instance;
}

}  // namespace

std::size_t resolve_jobs(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ScopedWidth::ScopedWidth(std::size_t jobs) : saved_(t_width) {
  t_width = resolve_jobs(jobs);
}

ScopedWidth::~ScopedWidth() { t_width = saved_; }

std::size_t parallel_width() { return t_in_body ? 1 : t_width; }

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  Job job{.n = n, .body = body};
  // Below width 2, or when another thread's call holds the pool, every
  // item runs on the caller (in index order).
  const std::size_t width = std::min(parallel_width(), n);
  if (width < 2 || !executor().try_run(job, width - 1)) job.run();
  for (const std::exception_ptr& error : job.errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace tomo::util
