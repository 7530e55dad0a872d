// Copyright 2026 The obtree Authors.
//
// Layer-ladder probes: each times a tight single-threaded loop over one
// public function of one module, so the cost of a Get can be taken apart
// rung by rung.

#ifndef MAPBENCH_LADDER_H_
#define MAPBENCH_LADDER_H_

#include <string>

namespace mapbench {

struct Ladder {
  double epoch_guard_ns = 0;       ///< EpochManager::Guard enter + exit
  double stats_add_ns = 0;         ///< StatsCollector::Add
  double paper_lock_ns = 0;        ///< PaperLock Lock + Unlock, uncontended
  double optimistic_probe_ns = 0;  ///< PageManager::OptimisticRead + Validate
  double page_get_ns = 0;          ///< PageManager::Get of a 4 KB page
  double lower_bound_ns = 0;       ///< Node::LowerBound on a full leaf
  double crc_4k_ns = 0;            ///< FileStore::Crc32 over 4 KB
  double store_read_ns = 0;        ///< FileStore::ReadPage, page-cache warm
  double route_ns = 0;             ///< ShardedMap::ShardIndex
};

/// Runs every probe (about one second). `scratch_dir` holds the FileStore
/// the store-read probe reads from; it is removed afterwards.
Ladder RunLadder(const std::string& scratch_dir, unsigned seed);

}  // namespace mapbench

#endif  // MAPBENCH_LADDER_H_
