#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"

namespace d2stgnn {
namespace {

thread_local bool g_in_parallel_region = false;

// Runs every chunk on the calling thread, in chunk order, with no job or
// lock. InParallelRegion() reads true inside the chunks and its previous
// value is restored afterwards, also when a chunk throws (the exception
// propagates and skips the remaining chunks, as on the pooled path).
void RunInline(int64_t begin, int64_t end, int64_t grain,
               const std::function<void(int64_t, int64_t)>& fn) {
  struct RegionFlag {
    bool saved = g_in_parallel_region;
    RegionFlag() { g_in_parallel_region = true; }
    ~RegionFlag() { g_in_parallel_region = saved; }
  } flag;
  for (int64_t lo = begin; lo < end; lo += grain) {
    fn(lo, std::min(end, lo + grain));
  }
}

// One ParallelFor invocation: workers race on next_chunk, the caller waits
// on chunks_done. Held by shared_ptr so a slow-to-wake worker can still
// touch it after the caller returned.
struct Job {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t grain = 1;
  int64_t num_chunks = 0;
  const std::function<void(int64_t, int64_t)>* fn = nullptr;
  std::atomic<int64_t> next_chunk{0};
  std::atomic<int64_t> chunks_done{0};
  std::mutex error_mutex;
  std::exception_ptr error;

  // Claims chunks until exhausted. Chunk boundaries depend only on
  // (begin, end, grain), so execution is deterministic per chunk.
  void RunChunks() {
    for (;;) {
      const int64_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      const int64_t lo = begin + c * grain;
      const int64_t hi = std::min(end, lo + grain);
      try {
        g_in_parallel_region = true;
        (*fn)(lo, hi);
        g_in_parallel_region = false;
      } catch (...) {
        g_in_parallel_region = false;
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
        // Skip remaining chunks: claim them all so the loop drains fast.
        int64_t remaining = next_chunk.exchange(num_chunks);
        while (remaining < num_chunks) {
          chunks_done.fetch_add(1, std::memory_order_acq_rel);
          ++remaining;
        }
      }
      chunks_done.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  bool done() const {
    return chunks_done.load(std::memory_order_acquire) >= num_chunks;
  }
};

// Lazily started shared pool. Worker count is (threads - 1): the caller of
// ParallelFor is the remaining lane, so SetNumThreads(1) runs everything
// inline on the calling thread.
class ThreadPool {
 public:
  static ThreadPool& Global() {
    static ThreadPool* pool = new ThreadPool();  // leaked: outlives main
    return *pool;
  }

  int num_threads() const {
    return target_threads_.load(std::memory_order_relaxed);
  }

  void set_num_threads(int n) {
    D2_CHECK_GE(n, 1) << "thread count must be >= 1";
    std::vector<std::thread> to_join;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (n == target_threads_.load(std::memory_order_relaxed)) return;
      target_threads_.store(n, std::memory_order_relaxed);
      // Retire the current workers; the next ParallelFor respawns.
      stop_epoch_ = true;
      cv_.notify_all();
      to_join.swap(workers_);
    }
    for (std::thread& t : to_join) t.join();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_epoch_ = false;
    }
  }

  void Run(int64_t begin, int64_t end, int64_t grain,
           const std::function<void(int64_t, int64_t)>& fn) {
    const int64_t range = end - begin;
    if (range <= 0) return;
    if (grain <= 0) grain = std::max<int64_t>(1, (range + 63) / 64);
    const int64_t num_chunks = (range + grain - 1) / grain;

    // Serial paths: a nested call, a single chunk, one thread configured,
    // or another top-level ParallelFor already owns the pool. Same
    // chunking, same order — bitwise-identical to the parallel path.
    if (g_in_parallel_region || num_chunks == 1 ||
        target_threads_.load(std::memory_order_relaxed) <= 1) {
      RunInline(begin, end, grain, fn);
      return;
    }
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
      if (lock.owns_lock() &&
          target_threads_.load(std::memory_order_relaxed) > 1 &&
          !stop_epoch_) {
        job = std::make_shared<Job>();
        job->begin = begin;
        job->end = end;
        job->grain = grain;
        job->num_chunks = num_chunks;
        job->fn = &fn;
        EnsureWorkersLocked();
        current_job_ = job;
        ++job_sequence_;
        cv_.notify_all();
      }
    }
    if (!job) {
      RunInline(begin, end, grain, fn);
      return;
    }

    // The caller works alongside the pool, then spin-waits briefly for
    // stragglers (each remaining chunk is already claimed and in flight).
    job->RunChunks();
    while (!job->done()) std::this_thread::yield();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      current_job_.reset();
    }
    RethrowIfError(job.get());
  }

 private:
  ThreadPool() {
    int n = 0;
    if (const char* env = std::getenv("D2STGNN_NUM_THREADS")) {
      n = std::atoi(env);
    }
    if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
    target_threads_.store(std::max(1, n), std::memory_order_relaxed);
  }

  static void RethrowIfError(Job* job) {
    std::lock_guard<std::mutex> lock(job->error_mutex);
    if (job->error) std::rethrow_exception(job->error);
  }

  void EnsureWorkersLocked() {
    const int wanted = target_threads_.load(std::memory_order_relaxed) - 1;
    while (static_cast<int>(workers_.size()) < wanted) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void WorkerLoop() {
    uint64_t seen_sequence = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock, [&] {
        return stop_epoch_ || (current_job_ && job_sequence_ != seen_sequence);
      });
      if (stop_epoch_) return;
      seen_sequence = job_sequence_;
      std::shared_ptr<Job> job = current_job_;
      lock.unlock();
      if (job) job->RunChunks();
      lock.lock();
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> current_job_;
  uint64_t job_sequence_ = 0;
  /// Written under mutex_; read lock-free by the serial fast path.
  std::atomic<int> target_threads_{1};
  bool stop_epoch_ = false;
};

}  // namespace

int GetNumThreads() { return ThreadPool::Global().num_threads(); }

void SetNumThreads(int num_threads) {
  ThreadPool::Global().set_num_threads(num_threads);
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  ThreadPool::Global().Run(begin, end, grain, fn);
}

bool InParallelRegion() { return g_in_parallel_region; }

}  // namespace d2stgnn
