// Copyright 2026 The obtree Authors.
//
// Turns what a workload measured into the named metrics of the result
// line: latency percentiles, and in traced runs the per-layer figures
// derived from the map's public counters and the layer ladder.

#ifndef MAPBENCH_REPORT_H_
#define MAPBENCH_REPORT_H_

#include <cstdint>
#include <string>

#include "bench.h"
#include "obtree/core/tree_checker.h"
#include "obtree/util/histogram.h"
#include "obtree/util/stats.h"

namespace mapbench {

/// Raw inputs of the per-layer metrics.
struct LayerInputs {
  obtree::StatsSnapshot window_delta;  ///< map counters over the window
  uint64_t window_ops = 0;             ///< logical ops in the window
  uint64_t gets = 0;                   ///< point lookups in the window
  uint64_t writes = 0;                 ///< Insert/Upsert/Erase calls
  obtree::Histogram lock_wait;         ///< contended paper-lock waits (ns)
  uint64_t pool_tasks_drained = 0;
  uint64_t pool_rounds = 0;
  uint64_t pool_idle_sleeps = 0;
  obtree::TreeShape shape;             ///< before CompressNow
  uint32_t height = 0;
  double compress_now_s = 0;
  double trace_overhead_pct = 0;
  double median_get_ns = 0;            ///< untraced phase
  obtree::StatsSnapshot get_visits;    ///< counters of a Get-only probe
  uint64_t get_visits_gets = 0;
  bool sharded = false;
  // Durability probe: the persist map's counters and checkpoints, and the
  // cold-read phase on the recovered map.
  obtree::StatsSnapshot persist_delta;
  uint64_t checkpoints = 0;
  double checkpoint_total_s = 0;
  double checkpoint_median_s = 0;
  uint64_t checkpoint_store_writes = 0;
  obtree::StatsSnapshot cold_delta;
  uint64_t cold_lookups = 0;           ///< keys looked up (MultiGet keys too)
  uint64_t cold_ops = 0;               ///< Get and MultiGet calls
  double cold_get_us = 0;              ///< median cold Get
  double multiget_us_per_key = 0;
};

/// Adds `<prefix>_p50_us` (and `<prefix>_p99_us`) to the end-to-end
/// metrics, with the sample count as a note.
void AddLatency(RunResult* out, const std::string& prefix, Samples* ns,
                bool with_p99);

/// Traced runs: runs the ladder and fills every per-layer metric.
void FinishLayers(const Config& cfg, RunResult* out, const LayerInputs& li);

/// The last line of a run: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricMap& metrics);

}  // namespace mapbench

#endif  // MAPBENCH_REPORT_H_
