#ifndef SCC_EXEC_THREAD_POOL_H_
#define SCC_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "sys/telemetry.h"

// Shared work-stealing thread pool — the execution substrate the paper's
// Conclusions call for: the branch-free (de)compression loops turn spare
// cores into extra effective RAM bandwidth, provided something above the
// kernels schedules the work. Design (docs/PARALLELISM.md):
//
//  * One deque per worker (Chase-Lev): the owner pushes/pops at the
//    bottom without contention; idle workers steal single tasks from the
//    top. Decompression morsels are coarse (>= one 128K-value chunk), so
//    steal traffic is rare and the deque is never the bottleneck.
//  * External threads submit through a mutex-guarded injection queue;
//    tasks spawned *by* workers (e.g. a nested ParallelFor's helpers) go
//    to the spawning worker's own deque and get stolen if it stays busy.
//  * The shared instance is created lazily on first use, sized by the
//    SCC_THREADS env var (default: hardware_concurrency), and leaked like
//    the metrics registry so teardown order can't strand a worker.
//
// Telemetry: exec.workers (gauge), exec.tasks, exec.steals,
// exec.queue.overflow, plus the exec.pool.* health family (queue_depth
// gauge, idle_ns, queue_wait_ns/task_run_ns histograms, per-worker
// run_ns) — see exec_metrics.h.
//
// Trace propagation: Submit() captures the submitting thread's
// TraceContext into the task and Execute() reinstalls it around the body,
// so spans recorded by stolen tasks still attach to their operation's
// tree; when tracing is on, each task also records its queue-wait and run
// intervals and a flow arrow from submit to run.

namespace scc {

class ThreadPool {
 public:
  /// A pool with `workers` threads (0 = DefaultWorkerCount()).
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide shared pool, created on first use with
  /// DefaultWorkerCount() threads. Never destroyed.
  static ThreadPool& Instance();

  /// SCC_THREADS env override, else std::thread::hardware_concurrency()
  /// (minimum 1).
  static unsigned DefaultWorkerCount();

  /// True when the calling thread is a worker of any ThreadPool.
  static bool InWorker();

  unsigned worker_count() const { return unsigned(workers_.size()); }

  /// Enqueues `fn` for asynchronous execution. Runs tasks in FIFO-ish
  /// order from external threads, LIFO from within a worker (cache-warm
  /// child first; elders get stolen).
  void Submit(std::function<void()> fn);

  /// Enqueues every element of `fns` with one injection-queue lock
  /// acquisition (or one owner-deque push each from a worker).
  /// Equivalent to calling Submit() per element; the batch form exists
  /// for high-rate submitters — the server's reactor threads hand every
  /// frame parsed out of one read burst to the pool in a single call.
  void SubmitBatch(std::vector<std::function<void()>> fns);

  /// Sentinel for ParallelFor's `max_workers`: no cap on pool-side
  /// helpers.
  static constexpr unsigned kNoWorkerCap = ~0u;

  /// Runs body(i) for every i in [0, n). The calling thread participates,
  /// so this works (and stays deadlock-free) even with a busy pool or on
  /// a single-core host. Indices are handed out dynamically (morsel
  /// style), not pre-partitioned, so uneven bodies balance.
  /// `max_workers` caps pool-side helpers; total concurrency is the cap
  /// plus the calling thread. 0 is a real cap — no helpers, the caller
  /// runs the whole loop serially — so callers translating a
  /// total-thread-count knob can pass `threads - 1` without a 1-thread
  /// request decaying into the kNoWorkerCap default.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                   unsigned max_workers = kNoWorkerCap);

  /// Successful steals since construction (mirrors exec.steals).
  size_t steals() const { return steals_.Get(); }

 private:
  friend class TaskGroup;
  struct Task;
  struct Deque;
  struct Worker;

  void WorkerLoop(size_t self);
  /// Runs one pending task if any is available to this thread.
  /// Returns false when every queue looked empty.
  bool RunOneTask();
  /// A task for `fn`, carrying its enqueue stamp and the submitter's
  /// trace context, with the flow arrow's start recorded when traced.
  static Task* MakeTask(std::function<void()> fn);
  /// Pushes `tasks` to the calling worker's own deque; what does not fit,
  /// and every task from a non-worker thread, goes to the injection queue
  /// under one lock acquisition.
  void Enqueue(std::span<Task* const> tasks);
  Task* FindTask(size_t self);  // self == SIZE_MAX for non-workers
  void Execute(Task* t);
  void WakeOne();
  void WakeAll();

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex inject_mu_;
  std::vector<Task*> inject_;  // FIFO via index
  size_t inject_head_ = 0;

  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<uint64_t> work_epoch_{0};
  std::atomic<bool> stop_{false};
  Flow steals_;
};

/// Groups submitted tasks so a caller can block until all of them finish.
/// Wait() helps execute pool tasks while waiting, so waiting from inside
/// a worker cannot deadlock the pool.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  ~TaskGroup() { Wait(); }

  /// Submits `fn` as part of the group.
  void Run(std::function<void()> fn);

  /// Blocks until every Run() task has finished.
  void Wait();

 private:
  ThreadPool& pool_;
  // Guarded by mu_, including the final decrement, so Wait() can only
  // observe pending_ == 0 after the last task has released the lock —
  // destroying the group right after Wait() is then safe.
  std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_ = 0;
};

}  // namespace scc

#endif  // SCC_EXEC_THREAD_POOL_H_
