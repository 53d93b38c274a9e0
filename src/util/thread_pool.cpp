#include "util/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace quickdrop {
namespace {

/// True on threads owned by a pool (and on callers while they execute group
/// work). Parallel calls made from such threads run inline: the pool never
/// nests fan-outs, so worker counts stay bounded and deadlock is impossible.
thread_local bool tls_in_pool_worker = false;

/// One run_chunks invocation: n index tasks claimed via an atomic cursor.
/// Which executor claims which index is scheduling noise; the work done per
/// index is fixed, so results cannot depend on the claim order.
struct TaskGroup {
  TaskGroup(int n_in, const std::function<void(int)>* fn_in) : n(n_in), fn(fn_in) {}

  const int n;
  const std::function<void(int)>* fn;
  std::atomic<int> next{0};
  std::atomic<int> done{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // first exception, guarded by mu

  /// Claims and runs indices until the group is exhausted.
  void work() {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }

  [[nodiscard]] bool finished() const { return done.load(std::memory_order_acquire) >= n; }
};

}  // namespace

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::shared_ptr<TaskGroup>> groups;
  std::vector<std::thread> workers;
  bool stop = false;

  void worker_loop() {
    tls_in_pool_worker = true;
    for (;;) {
      std::shared_ptr<TaskGroup> group;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stop || !groups.empty(); });
        if (groups.empty()) {
          if (stop) return;
          continue;
        }
        group = groups.front();
        if (group->next.load(std::memory_order_relaxed) >= group->n) {
          // Fully claimed; retire it so the queue cannot grow stale heads.
          groups.pop_front();
          continue;
        }
      }
      group->work();
    }
  }
};

ThreadPool::ThreadPool(int threads) : threads_(threads) {
  // Checked before allocating: a throwing constructor runs no destructor.
  if (threads < 1) throw std::invalid_argument("ThreadPool: need at least one thread");
  impl_ = new Impl;
  impl_->workers.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadPool::run_chunks(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (n == 1 || threads_ == 1 || tls_in_pool_worker) {
    for (int i = 0; i < n; ++i) fn(i);  // serial fallback, index order
    return;
  }
  auto group = std::make_shared<TaskGroup>(n, &fn);
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->groups.push_back(group);
  }
  impl_->cv.notify_all();
  // The caller helps drain its own group; nested parallel calls inside fn
  // must run inline, exactly as they do on the background workers.
  tls_in_pool_worker = true;
  group->work();
  tls_in_pool_worker = false;
  {
    std::unique_lock<std::mutex> lock(group->mu);
    group->cv.wait(lock, [&] { return group->finished(); });
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (auto it = impl_->groups.begin(); it != impl_->groups.end(); ++it) {
      if (*it == group) {
        impl_->groups.erase(it);
        break;
      }
    }
  }
  if (group->error) std::rethrow_exception(group->error);
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                              const std::function<void(std::int64_t, std::int64_t)>& fn) {
  const std::int64_t count = end - begin;
  if (count <= 0) return;
  const std::int64_t g = grain < 1 ? 1 : grain;
  const std::int64_t max_chunks = (count + g - 1) / g;
  const int chunks = static_cast<int>(
      max_chunks < static_cast<std::int64_t>(threads_) ? max_chunks : threads_);
  if (chunks <= 1 || tls_in_pool_worker) {
    fn(begin, end);
    return;
  }
  run_chunks(chunks, [&](int c) {
    const std::int64_t b = begin + count * c / chunks;
    const std::int64_t e = begin + count * (c + 1) / chunks;
    if (b < e) fn(b, e);
  });
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;       // guarded by g_pool_mu
int g_requested_threads = 0;              // 0 = not configured yet

int default_threads() {
  const char* env = std::getenv("QUICKDROP_THREADS");
  if (env != nullptr) {
    try {
      const int n = std::stoi(env);
      if (n >= 1) return n;
    } catch (const std::exception&) {
      // A bad env var must not take the process down; fall through.
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool) {
    if (g_requested_threads == 0) g_requested_threads = default_threads();
    g_pool = std::make_unique<ThreadPool>(g_requested_threads);
  }
  return *g_pool;
}

void set_num_threads(int threads) {
  if (threads < 1) throw std::invalid_argument("set_num_threads: need at least one thread");
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_requested_threads = threads;
  if (g_pool && g_pool->threads() != threads) g_pool.reset();
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(threads);
}

int num_threads() { return ThreadPool::global().threads(); }

void set_threads_from_env() {
  const char* env = std::getenv("QUICKDROP_THREADS");
  if (env == nullptr) return;
  try {
    const int n = std::stoi(env);
    if (n >= 1) set_num_threads(n);
  } catch (const std::exception&) {
    // Ignored, like QUICKDROP_LOG_LEVEL.
  }
}

std::int64_t grain_for(std::int64_t cost_per_item) {
  constexpr std::int64_t kMinChunkCost = 16384;
  if (cost_per_item < 1) cost_per_item = 1;
  const std::int64_t g = kMinChunkCost / cost_per_item;
  return g < 1 ? 1 : g;
}

}  // namespace quickdrop
