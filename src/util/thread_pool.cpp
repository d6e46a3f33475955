#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace qsnc::util {

namespace {
// Depth of parallel_for chunks running on this thread; nested calls at
// depth > 0 execute inline so a chunk can never block on the pool it
// occupies (deadlock freedom).
thread_local int tl_depth = 0;

// One fork-join invocation, living on the stack of its parallel_for.
struct Job {
  const std::function<void(int64_t, int64_t)>* fn = nullptr;
  int64_t begin = 0;
  int64_t end = 0;
  int64_t grain = 1;
  int64_t chunks = 0;
  std::atomic<int64_t> next{0};  // next unclaimed chunk index
  std::exception_ptr error{};    // first failure; guarded by Pool::mu
};

// Job lifetime invariant: a worker enters a job only by reading the slot
// and bumping `active` under `mu`, and leaves it by dropping `active`
// under `mu` after its last chunk. The caller clears the slot and waits
// under `mu` for active == 0 before its job leaves scope, so no worker
// ever touches a finished job.
struct Pool {
  std::mutex caller_mu;            // held by the caller owning the slot
  std::mutex mu;                   // guards the fields below
  std::condition_variable wake;    // workers: new job or stop
  std::condition_variable idle;    // caller: active dropped to 0
  Job* job = nullptr;
  uint64_t generation = 0;         // bumped per published job
  int active = 0;                  // workers inside `job`
  bool stop = false;
  std::vector<std::thread> workers;
  std::atomic<int> threads{1};

  explicit Pool(int n) { start(n); }
  ~Pool() { join(); }

  void start(int n) {
    threads.store(std::clamp(n, 1, 512));
    stop = false;
    for (int i = 1; i < threads.load(); ++i) {
      workers.emplace_back([this] { worker_loop(); });
    }
  }

  void join() {
    {
      std::lock_guard<std::mutex> lk(mu);
      stop = true;
    }
    wake.notify_all();
    for (std::thread& t : workers) t.join();
    workers.clear();
  }

  void run_chunks(Job& j) {
    ++tl_depth;
    for (int64_t i = j.next.fetch_add(1, std::memory_order_relaxed);
         i < j.chunks; i = j.next.fetch_add(1, std::memory_order_relaxed)) {
      const int64_t b = j.begin + i * j.grain;
      try {
        (*j.fn)(b, std::min(b + j.grain, j.end));
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!j.error) j.error = std::current_exception();
      }
    }
    --tl_depth;
  }

  void worker_loop() {
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      wake.wait(lk, [&] { return stop || (job && generation != seen); });
      if (stop) return;
      seen = generation;
      Job* j = job;
      ++active;
      lk.unlock();
      run_chunks(*j);
      lk.lock();
      if (--active == 0) idle.notify_all();
    }
  }
};

Pool& pool() {
  static Pool p(default_threads());
  return p;
}
}  // namespace

void parallel_for(int64_t begin, int64_t end, int64_t grain,
                  const std::function<void(int64_t, int64_t)>& fn) {
  if (grain < 1) throw std::invalid_argument("parallel_for: grain < 1");
  if (begin >= end) return;
  Pool& p = pool();
  // Checked before try_lock: a nested caller may already own caller_mu.
  if (tl_depth > 0 || end - begin <= grain ||
      p.threads.load(std::memory_order_relaxed) <= 1) {
    fn(begin, end);
    return;
  }
  std::unique_lock<std::mutex> own(p.caller_mu, std::try_to_lock);
  if (!own) {
    fn(begin, end);
    return;
  }

  Job job{&fn, begin, end, grain, (end - begin + grain - 1) / grain};
  {
    std::lock_guard<std::mutex> lk(p.mu);
    p.job = &job;
    ++p.generation;
  }
  p.wake.notify_all();
  p.run_chunks(job);
  {
    std::unique_lock<std::mutex> lk(p.mu);
    p.job = nullptr;
    p.idle.wait(lk, [&] { return p.active == 0; });
  }
  if (job.error) std::rethrow_exception(job.error);
}

int num_threads() { return pool().threads.load(); }

void set_num_threads(int n) {
  Pool& p = pool();
  std::lock_guard<std::mutex> own(p.caller_mu);
  if (std::clamp(n, 1, 512) == p.threads.load()) return;
  p.join();
  p.start(n);
}

int default_threads() {
  if (const char* env = std::getenv("QSNC_THREADS")) {
    char* tail = nullptr;
    const long v = std::strtol(env, &tail, 10);
    if (tail != env && *tail == '\0' && v >= 1) {
      return static_cast<int>(std::min<long>(v, 512));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

bool in_parallel_region() { return tl_depth > 0; }

}  // namespace qsnc::util
