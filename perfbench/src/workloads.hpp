#pragma once

/// \file workloads.hpp
/// The benchmark's workloads. Each one sets up `params.setups` times (the
/// median is setup_s), serves its fixed, seed-derived work, checks the
/// outcome digest against replays, and fills end-to-end metrics — or, on
/// a traced run, per-layer metrics.

#include "common.hpp"

namespace perfbench {

/// serve_churn and query_mix: closed-loop serving through
/// core::Server, one 64-request window outstanding.
[[nodiscard]] RunResult run_serve_workload(const RunParams& params);

/// paper_batch: Fig. 7/10 batches through core::BatchEngine.
[[nodiscard]] RunResult run_paper_batch(const RunParams& params);

}  // namespace perfbench
