// The traced run: per-layer metrics of one workload.
#pragma once

#include "bench.hpp"

namespace rtvbench {

/// One untraced round, then one round under obs tracing with the metrics
/// registry reset, then the benchmark's own timed calls into each layer's
/// public functions.  Reports every per-layer metric (README.md).
Report run_layers(const Options& options);

}  // namespace rtvbench
