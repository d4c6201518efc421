#include "exec/thread_pool.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "exec/exec_metrics.h"
#include "sys/telemetry.h"
#include "util/status.h"

namespace scc {

namespace {

struct WorkerTls {
  ThreadPool* pool = nullptr;
  size_t index = 0;
};
thread_local WorkerTls g_worker_tls;

}  // namespace

struct ThreadPool::Task {
  std::function<void()> fn;
  // Trace propagation: the submitter's context, reinstalled around fn()
  // on whichever thread ends up running it, so spans recorded inside the
  // task still attribute to the originating operation.
  TraceContext ctx;
  double enqueue_us = -1.0;  // submit timestamp; < 0 = not timed
  uint64_t flow_id = 0;      // nonzero: flow arrow links submit -> run
};

// Chase-Lev work-stealing deque (Chase & Lev, SPAA'05), fixed capacity:
// the owner pushes/pops at the bottom, thieves CAS the top. We use
// seq_cst on the top/bottom orderings instead of standalone fences — the
// store->load ordering the algorithm needs, expressed in a form TSan
// models precisely — and spill to the pool's injection queue when full
// rather than growing, so there is no buffer reclamation to reason about.
// Tasks are coarse (a morsel is >= one compressed chunk), so none of this
// is ever the bottleneck; what matters is that an owner push/pop is
// uncontended and a steal is one CAS.
struct ThreadPool::Deque {
  static constexpr size_t kCapacity = size_t(1) << 13;
  static constexpr size_t kMask = kCapacity - 1;

  std::atomic<int64_t> top{0};
  std::atomic<int64_t> bottom{0};
  std::atomic<Task*> slots[kCapacity] = {};

  /// Owner only. False when full (caller spills to the injection queue).
  bool Push(Task* t) {
    const int64_t b = bottom.load(std::memory_order_relaxed);
    const int64_t s = top.load(std::memory_order_acquire);
    if (b - s >= int64_t(kCapacity)) return false;
    slots[size_t(b) & kMask].store(t, std::memory_order_relaxed);
    bottom.store(b + 1, std::memory_order_seq_cst);
    return true;
  }

  /// Owner only. LIFO: the most recently pushed (cache-warm) task.
  Task* Pop() {
    const int64_t b = bottom.load(std::memory_order_relaxed) - 1;
    bottom.store(b, std::memory_order_seq_cst);
    int64_t s = top.load(std::memory_order_seq_cst);
    if (s > b) {  // empty: undo
      bottom.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    Task* t = slots[size_t(b) & kMask].load(std::memory_order_relaxed);
    if (s == b) {
      // Last element: race the thieves for it.
      if (!top.compare_exchange_strong(s, s + 1, std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
        t = nullptr;  // a thief won
      }
      bottom.store(b + 1, std::memory_order_relaxed);
    }
    return t;
  }

  /// Any thread. FIFO: the oldest task (largest remaining work first).
  Task* Steal() {
    int64_t s = top.load(std::memory_order_seq_cst);
    const int64_t b = bottom.load(std::memory_order_seq_cst);
    if (s >= b) return nullptr;
    // Safe to read before the CAS: a slot is only reused after top has
    // advanced past it, and that would make this CAS fail.
    Task* t = slots[size_t(s) & kMask].load(std::memory_order_relaxed);
    if (!top.compare_exchange_strong(s, s + 1, std::memory_order_seq_cst,
                                     std::memory_order_relaxed)) {
      return nullptr;  // lost to the owner or another thief
    }
    return t;
  }
};

struct ThreadPool::Worker {
  Deque deque;
  // Per-worker steal cursor so concurrent thieves fan out over victims.
  size_t victim_cursor = 0;
  // Per-worker run-time attribution ("exec.pool.worker.<i>.run_ns"),
  // resolved once at pool construction.
  Counter* run_ns = nullptr;
};

unsigned ThreadPool::DefaultWorkerCount() {
  if (const char* env = std::getenv("SCC_THREADS")) {
    long v = std::atol(env);
    if (v >= 1 && v <= 1024) return unsigned(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& ThreadPool::Instance() {
  // Leaked like MetricsRegistry: callers may submit work during other
  // statics' teardown, and joining workers at exit is needless risk.
  static ThreadPool* pool = new ThreadPool(DefaultWorkerCount());
  return *pool;
}

bool ThreadPool::InWorker() { return g_worker_tls.pool != nullptr; }

ThreadPool::ThreadPool(unsigned workers)
    : steals_(ExecMetrics::Get().steals) {
  if (workers == 0) workers = DefaultWorkerCount();
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; i++) {
    workers_.push_back(std::make_unique<Worker>());
    workers_[i]->victim_cursor = i + 1;
    char name[48];
    std::snprintf(name, sizeof(name), "exec.pool.worker.%u.run_ns", i);
    workers_[i]->run_ns = &MetricsRegistry::Instance().GetCounter(name);
  }
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; i++) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
  ExecMetrics::Get().workers->Add(int64_t(workers));
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_seq_cst);
  WakeAll();
  for (auto& t : threads_) t.join();
  // Run any tasks the workers never got to, so TaskGroups waiting in
  // other (non-worker) threads still complete.
  for (auto& w : workers_) {
    while (Task* t = w->deque.Pop()) Execute(t);
  }
  for (size_t i = inject_head_; i < inject_.size(); i++) Execute(inject_[i]);
  ExecMetrics::Get().workers->Add(-int64_t(workers_.size()));
}

ThreadPool::Task* ThreadPool::MakeTask(std::function<void()> fn) {
  Task* t = new Task;
  t->fn = std::move(fn);
  if (TelemetryEnabled() || TraceEnabled()) t->enqueue_us = TraceNowMicros();
  if (TraceEnabled()) {
    t->ctx = CurrentTraceContext();
    if (t->ctx.active()) {
      // Flow arrow from the submit site into the task's eventual run
      // span, so the viewer draws the cross-thread edge.
      t->flow_id = NextTraceId();
      TraceRecorder::Instance().RecordFlow("exec.task", "exec",
                                           t->enqueue_us, /*start=*/true,
                                           t->flow_id);
    }
  }
  return t;
}

void ThreadPool::Enqueue(std::span<Task* const> tasks) {
  size_t pushed = 0;
  const WorkerTls& tls = g_worker_tls;
  if (tls.pool == this) {
    // Spawned by a worker: owner deque, stolen if the owner stays busy.
    Deque& own = workers_[tls.index]->deque;
    while (pushed < tasks.size() && own.Push(tasks[pushed])) pushed++;
    if (pushed == tasks.size()) return;
    ExecMetrics::Get().queue_overflow->Increment();
  }
  std::lock_guard<std::mutex> lock(inject_mu_);
  // Compact the drained prefix occasionally so the vector stays small.
  if (inject_head_ > 0 && inject_head_ == inject_.size()) {
    inject_.clear();
    inject_head_ = 0;
  }
  inject_.insert(inject_.end(), tasks.begin() + long(pushed), tasks.end());
  ExecMetrics::Get().pool_queue_depth->Set(
      int64_t(inject_.size() - inject_head_));
}

void ThreadPool::Submit(std::function<void()> fn) {
  if (stop_.load(std::memory_order_relaxed)) {  // shutting down: run inline
    fn();
    return;
  }
  Task* t = MakeTask(std::move(fn));
  Enqueue({&t, 1});
  WakeOne();
}

void ThreadPool::SubmitBatch(std::vector<std::function<void()>> fns) {
  if (fns.empty()) return;
  if (fns.size() == 1) {
    Submit(std::move(fns[0]));
    return;
  }
  if (stop_.load(std::memory_order_relaxed)) {  // shutting down: run inline
    for (auto& fn : fns) fn();
    return;
  }
  std::vector<Task*> tasks;
  tasks.reserve(fns.size());
  for (auto& fn : fns) tasks.push_back(MakeTask(std::move(fn)));
  Enqueue(tasks);
  WakeAll();
}

ThreadPool::Task* ThreadPool::FindTask(size_t self) {
  // 1. Own deque (workers only): newest first, cache-warm.
  if (self != SIZE_MAX) {
    if (Task* t = workers_[self]->deque.Pop()) return t;
  }
  // 2. Injection queue: external submissions, FIFO.
  {
    std::lock_guard<std::mutex> lock(inject_mu_);
    if (inject_head_ < inject_.size()) {
      Task* t = inject_[inject_head_++];
      ExecMetrics::Get().pool_queue_depth->Set(
          int64_t(inject_.size() - inject_head_));
      return t;
    }
  }
  // 3. Steal a round across the other workers' deques.
  const size_t n = workers_.size();
  size_t start = self != SIZE_MAX ? workers_[self]->victim_cursor : 0;
  for (size_t k = 0; k < n; k++) {
    const size_t v = (start + k) % n;
    if (v == self) continue;
    if (Task* t = workers_[v]->deque.Steal()) {
      if (self != SIZE_MAX) {
        workers_[self]->victim_cursor = v;  // stick with a loaded victim
        steals_.Add();
      }
      return t;
    }
  }
  return nullptr;
}

void ThreadPool::Execute(Task* t) {
  ExecMetrics& em = ExecMetrics::Get();
  em.tasks->Increment();
  // Queue-wait vs run split: only when the task was stamped at submit and
  // telemetry is still live (cheap steady-clock reads either side of fn).
  const bool timed =
      t->enqueue_us >= 0 && (TelemetryEnabled() || TraceEnabled());
  double start_us = 0;
  if (timed) {
    start_us = TraceNowMicros();
    em.pool_queue_wait_ns->Observe(
        uint64_t((start_us - t->enqueue_us) * 1000.0));
  }
  const bool traced = t->flow_id != 0 && TraceEnabled();
  uint64_t run_span = 0;
  if (traced) {
    TraceRecorder::Instance().RecordFlow("exec.task", "exec", start_us,
                                         /*start=*/false, t->flow_id);
    // Spans recorded inside fn() parent under the task's run span, which
    // itself parents under whatever span submitted the task.
    run_span = NextTraceId();
    TraceContextScope scope(TraceContext{t->ctx.op_id, run_span});
    t->fn();
  } else {
    t->fn();
  }
  if (timed) {
    const double end_us = TraceNowMicros();
    const uint64_t run_ns = uint64_t((end_us - start_us) * 1000.0);
    em.pool_task_run_ns->Observe(run_ns);
    const WorkerTls& tls = g_worker_tls;
    Counter* attributed = tls.pool == this ? workers_[tls.index]->run_ns
                                           : em.pool_caller_run_ns;
    attributed->Add(run_ns);
    if (traced) {
      TraceRecorder& tr = TraceRecorder::Instance();
      tr.RecordComplete(
          "exec.task.queue_wait", "exec", t->enqueue_us,
          start_us - t->enqueue_us,
          SpanDetail{t->ctx.op_id, NextTraceId(), t->ctx.parent_span});
      tr.RecordComplete("exec.task.run", "exec", start_us, end_us - start_us,
                        SpanDetail{t->ctx.op_id, run_span,
                                   t->ctx.parent_span});
    }
  }
  delete t;
}

bool ThreadPool::RunOneTask() {
  const WorkerTls& tls = g_worker_tls;
  Task* t = FindTask(tls.pool == this ? tls.index : SIZE_MAX);
  if (t == nullptr) return false;
  Execute(t);
  return true;
}

void ThreadPool::WakeOne() {
  work_epoch_.fetch_add(1, std::memory_order_seq_cst);
  std::lock_guard<std::mutex> lock(sleep_mu_);
  sleep_cv_.notify_one();
}

void ThreadPool::WakeAll() {
  work_epoch_.fetch_add(1, std::memory_order_seq_cst);
  std::lock_guard<std::mutex> lock(sleep_mu_);
  sleep_cv_.notify_all();
}

void ThreadPool::WorkerLoop(size_t self) {
  g_worker_tls.pool = this;
  g_worker_tls.index = self;
  while (true) {
    if (Task* t = FindTask(self)) {
      Execute(t);
      continue;
    }
    if (stop_.load(std::memory_order_seq_cst)) break;
    // Arm the epoch, recheck, then sleep. A Submit between the recheck
    // and the wait bumps the epoch and fails the predicate; the timeout
    // is a belt-and-braces backstop, not the wakeup mechanism.
    const uint64_t epoch = work_epoch_.load(std::memory_order_seq_cst);
    if (Task* t = FindTask(self)) {
      Execute(t);
      continue;
    }
    const bool timed = TelemetryEnabled();
    const double idle_start_us = timed ? TraceNowMicros() : 0;
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleep_cv_.wait_for(lock, std::chrono::milliseconds(50), [&] {
      return stop_.load(std::memory_order_relaxed) ||
             work_epoch_.load(std::memory_order_relaxed) != epoch;
    });
    if (timed) {
      ExecMetrics::Get().pool_idle_ns->Add(
          uint64_t((TraceNowMicros() - idle_start_us) * 1000.0));
    }
  }
  g_worker_tls.pool = nullptr;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& body,
                             unsigned max_workers) {
  if (n == 0) return;
  unsigned helpers = worker_count();
  if (max_workers < helpers) helpers = max_workers;  // kNoWorkerCap: never
  if (helpers > n) helpers = unsigned(n);
  if (n == 1 || helpers == 0) {
    for (size_t i = 0; i < n; i++) body(i);
    return;
  }
  // Dynamic index handout (the morsel pattern in miniature): uneven
  // bodies rebalance instead of pre-partitioned stragglers dominating.
  std::atomic<size_t> next{0};
  auto loop = [&next, n, &body] {
    size_t i;
    while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n) body(i);
  };
  {
    TaskGroup group(*this);
    for (unsigned h = 0; h < helpers; h++) group.Run(loop);
    loop();  // the caller participates; Wait() in ~TaskGroup helps too
  }
}

void TaskGroup::Run(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_++;
  }
  pool_.Submit([this, fn = std::move(fn)] {
    fn();
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) cv_.notify_all();
  });
}

void TaskGroup::Wait() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (pending_ == 0) return;
    }
    // Help drain the pool instead of blocking a worker slot; this is what
    // makes nested Wait() (a worker waiting on a subgroup) deadlock-free.
    if (pool_.RunOneTask()) continue;
    // Nothing runnable anywhere: block until the group's final decrement
    // notifies cv_ (Run()'s completion wrapper decrements under mu_, so
    // the notification cannot be missed). The long timeout is only a
    // backstop that re-attempts helping in case nested tasks appeared
    // after the scan above — not a polling cadence.
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_for(lock, std::chrono::milliseconds(50),
                     [&] { return pending_ == 0; })) {
      return;
    }
  }
}

}  // namespace scc
