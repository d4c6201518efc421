#ifndef SCC_EXEC_EXEC_METRICS_H_
#define SCC_EXEC_EXEC_METRICS_H_

#include "sys/telemetry.h"

// Telemetry handles for the concurrent execution subsystem, resolved once
// (see codec_metrics.h for the caching rationale).
//
// Metric names:
//   exec.workers                  gauge: workers in the shared pool
//   exec.tasks                    tasks executed by the pool
//   exec.steals                   tasks obtained by stealing from another
//                                 worker's deque (vs. own deque / global
//                                 injection queue)
//   exec.queue.overflow           owner-deque overflows spilled to the
//                                 global injection queue
//   exec.scan.morsels             morsels processed by parallel scans
//   exec.scan.morsels_pruned      morsels a pushdown's chunk summaries
//                                 ruled out before any was claimed
//   exec.scan.rows                rows emitted by parallel scans
//
// Pool health family (docs/OBSERVABILITY.md), fed by thread_pool.cc:
//   exec.pool.queue_depth         gauge: injection-queue backlog
//   exec.pool.idle_ns             time workers spent parked waiting
//   exec.pool.queue_wait_ns       hist: task submit -> start latency
//   exec.pool.task_run_ns         hist: task body execution time
//   exec.pool.caller.run_ns       task time burned by non-worker threads
//                                 (helping Wait / ParallelFor callers)
//   exec.pool.worker.<i>.run_ns   task time per worker (registered by the
//                                 pool constructor, not cached here)

namespace scc {

struct ExecMetrics {
  Gauge* workers;
  Counter* tasks;
  Counter* steals;
  Counter* queue_overflow;
  Counter* scan_morsels;
  Counter* scan_morsels_pruned;
  Counter* scan_rows;
  Gauge* pool_queue_depth;
  Counter* pool_idle_ns;
  Histogram* pool_queue_wait_ns;
  Histogram* pool_task_run_ns;
  Counter* pool_caller_run_ns;

  static ExecMetrics& Get() {
    static ExecMetrics* m = [] {
      auto* em = new ExecMetrics;
      MetricsRegistry& reg = MetricsRegistry::Instance();
      em->workers = &reg.GetGauge("exec.workers");
      em->tasks = &reg.GetCounter("exec.tasks");
      em->steals = &reg.GetCounter("exec.steals");
      em->queue_overflow = &reg.GetCounter("exec.queue.overflow");
      em->scan_morsels = &reg.GetCounter("exec.scan.morsels");
      em->scan_morsels_pruned = &reg.GetCounter("exec.scan.morsels_pruned");
      em->scan_rows = &reg.GetCounter("exec.scan.rows");
      em->pool_queue_depth = &reg.GetGauge("exec.pool.queue_depth");
      em->pool_idle_ns = &reg.GetCounter("exec.pool.idle_ns");
      em->pool_queue_wait_ns = &reg.GetHistogram("exec.pool.queue_wait_ns");
      em->pool_task_run_ns = &reg.GetHistogram("exec.pool.task_run_ns");
      em->pool_caller_run_ns = &reg.GetCounter("exec.pool.caller.run_ns");
      return em;
    }();
    return *m;
  }
};

}  // namespace scc

#endif  // SCC_EXEC_EXEC_METRICS_H_
