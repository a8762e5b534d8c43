#ifndef NATIXBENCH_RUNNER_WORKLOADS_H_
#define NATIXBENCH_RUNNER_WORKLOADS_H_

#include "common.h"

namespace natixbench {

/// Set-ups per run: kSetupsBefore before the timed phase (it measures
/// the last one) and kSetupsAfter after it, so the median that setup_s
/// reports samples the machine at both ends of the run.
inline constexpr int kSetupsBefore = 3;
inline constexpr int kSetupsAfter = 4;

/// Single client, closed loop over the Fig. 6-9 path queries on
/// generated xdoc documents.
RunResult RunXdocAxes(const RunConfig& config);
/// Single client, closed loop over the Fig. 10 queries on a synthetic
/// DBLP document twice the size of the buffer pool.
RunResult RunDblpValues(const RunConfig& config);
/// In-process natixd driven by a closed loop of keep-alive connections.
RunResult RunServeMix(const RunConfig& config);
/// Prepare + execute of generated XPath texts whose plans are not cached.
RunResult RunCompileMix(const RunConfig& config);

}  // namespace natixbench

#endif  // NATIXBENCH_RUNNER_WORKLOADS_H_
