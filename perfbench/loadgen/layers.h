#ifndef PERFBENCH_LOADGEN_LAYERS_H_
#define PERFBENCH_LOADGEN_LAYERS_H_

/// \file
/// The traced run: per-layer metrics from the server's own counters
/// and spans plus in-process timings of each module's public calls,
/// fed with inputs captured from the workload.

#include "workload.h"

namespace perfbench {

StatusOr<RunOutcome> RunTraced(const Workload& workload,
                               const RunContext& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_LAYERS_H_
