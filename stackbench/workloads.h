#ifndef STACKBENCH_WORKLOADS_H_
#define STACKBENCH_WORKLOADS_H_

#include <string>

#include "common.h"

namespace stackbench {

/// point_lookup, scan_aggregate and tiered_mixed (served.cc).
bool IsServedWorkload(const std::string& name);
int RunServed(const Options& opt, const HostInfo& host, RunResult* res);

/// tpch_q1_q6 (tpch_workload.cc).
int RunTpch(const Options& opt, const HostInfo& host, RunResult* res);

}  // namespace stackbench

#endif  // STACKBENCH_WORKLOADS_H_
