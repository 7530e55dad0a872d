// Copyright 2026 The obtree Authors.

#include "report.h"

#include <cstdio>

#include "ladder.h"

namespace mapbench {
namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void AddLatency(RunResult* out, const std::string& prefix, Samples* ns,
                bool with_p99) {
  const size_t n = ns->size();
  out->end_to_end[prefix + "_p50_us"] = {ns->Percentile(50) * 1e-3, "us"};
  char note[160];
  if (with_p99) {
    out->end_to_end[prefix + "_p99_us"] = {ns->Percentile(99) * 1e-3, "us"};
    std::snprintf(note, sizeof(note), "%s latency: n=%zu samples, %zu beyond p99%s",
                  prefix.c_str(), n, n / 100,
                  n >= 1000 ? "" : " (too few for a p99 tail)");
  } else {
    std::snprintf(note, sizeof(note), "%s latency: n=%zu samples", prefix.c_str(), n);
  }
  out->notes.push_back(note);
}

void FinishLayers(const Config& cfg, RunResult* out, const LayerInputs& li) {
  if (!cfg.trace) return;
  using obtree::StatId;
  const Ladder l = RunLadder(cfg.work_dir + "/ladder-store",
                             static_cast<unsigned>(cfg.seed));
  const obtree::StatsSnapshot& d = li.window_delta;
  auto c = [&](StatId id) { return static_cast<double>(d.Get(id)); };
  const double kops = li.window_ops / 1000.0;
  MetricMap& m = out->per_layer;

  m["util.epoch_guard_ns"] = {l.epoch_guard_ns, "ns"};
  m["util.stats_add_ns"] = {l.stats_add_ns, "ns"};
  m["node.lower_bound_ns"] = {l.lower_bound_ns, "ns"};
  m["storage.optimistic_probe_ns"] = {l.optimistic_probe_ns, "ns"};
  m["storage.page_get_ns"] = {l.page_get_ns, "ns"};
  m["storage.paper_lock_ns"] = {l.paper_lock_ns, "ns"};
  m["storage.crc_4k_ns"] = {l.crc_4k_ns, "ns"};
  m["storage.store_read_ns"] = {l.store_read_ns, "ns"};
  m["api.route_ns"] = {l.route_ns, "ns"};

  m["storage.locks_per_write"] = {Ratio(c(StatId::kLocksAcquired), li.writes), "1/write"};
  m["storage.lock_contended_per_kop"] = {Ratio(c(StatId::kLocksContended), kops), "1/kop"};
  m["storage.lock_parks_per_kop"] = {Ratio(c(StatId::kLockParks), kops), "1/kop"};
  m["storage.lock_wait_p99_ns"] = {
      static_cast<double>(li.lock_wait.Percentile(99)), "ns"};
  // Share of leaf mutations applied in place; the rest took the copy path
  // (an in-place fallback or a split).
  m["storage.inplace_write_ratio"] = {
      Ratio(c(StatId::kInplaceWrites),
            c(StatId::kInplaceWrites) + c(StatId::kInplaceFallbacks) +
                c(StatId::kSplits)),
      "ratio"};
  m["storage.write_bytes_per_write"] = {
      Ratio(c(StatId::kWriteBytesInplace) + c(StatId::kWriteBytesCopied), li.writes),
      "B/write"};
  // The store layer works only in the durability probe (single thread).
  auto cold = [&](StatId id) { return static_cast<double>(li.cold_delta.Get(id)); };
  auto persist = [&](StatId id) { return static_cast<double>(li.persist_delta.Get(id)); };
  m["storage.cold_get_us"] = {li.cold_get_us, "us"};
  m["storage.store_reads_per_get"] = {Ratio(cold(StatId::kStoreReads), li.cold_lookups), "1/get"};
  m["storage.evictions_per_kop"] = {
      Ratio(cold(StatId::kPagesEvicted), li.cold_lookups / 1000.0), "1/kop"};
  m["storage.checkpoint_ms"] = {li.checkpoint_median_s * 1e3, "ms"};
  m["storage.store_writes_per_checkpoint"] = {
      Ratio(li.checkpoint_store_writes, li.checkpoints), "pages"};
  m["storage.checkpoint_us_per_page"] = {
      Ratio(li.checkpoint_total_s * 1e6, li.checkpoint_store_writes), "us/page"};

  m["core.node_visits_per_op"] = {Ratio(c(StatId::kGets), li.window_ops), "1/op"};
  m["core.height"] = {static_cast<double>(li.height), "levels"};
  m["core.optimistic_retries_per_kop"] = {Ratio(c(StatId::kOptimisticRetries), kops), "1/kop"};
  m["core.optimistic_fallbacks"] = {c(StatId::kOptimisticFallbacks), "count"};
  m["core.link_follows_per_kop"] = {Ratio(c(StatId::kLinkFollows), kops), "1/kop"};
  m["core.restarts_per_kop"] = {Ratio(c(StatId::kRestarts), kops), "1/kop"};
  m["core.splits_per_kop"] = {Ratio(c(StatId::kSplits), kops), "1/kop"};
  // Ascending loads happen only in the durability probe's persist step.
  m["core.append_hit_ratio"] = {
      Ratio(persist(StatId::kAppendFastHits),
            persist(StatId::kAppendFastHits) + persist(StatId::kAppendFastMisses)),
      "ratio"};
  m["core.tail_split_ratio"] = {
      Ratio(persist(StatId::kTailSplits), persist(StatId::kSplits)), "ratio"};
  m["core.batch_coalesced_per_key"] = {
      Ratio(cold(StatId::kBatchPagesCoalesced), cold(StatId::kBatchOps)), "1/key"};
  m["api.multiget_us_per_key"] = {li.multiget_us_per_key, "us/key"};

  m["compress.merges_per_kop"] = {Ratio(c(StatId::kMerges), kops), "1/kop"};
  m["compress.redistributions_per_kop"] = {Ratio(c(StatId::kRedistributions), kops), "1/kop"};
  m["compress.underfull_nodes"] = {static_cast<double>(li.shape.underfull_nodes), "count"};
  m["compress.leaf_fill_pct"] = {li.shape.avg_leaf_fill * 100.0, "%"};
  m["compress.compress_now_s"] = {li.compress_now_s, "s"};
  m["compress.enqueues_per_kop"] = {Ratio(c(StatId::kQueueEnqueues), kops), "1/kop"};
  m["compress.discard_ratio"] = {
      Ratio(c(StatId::kQueueDiscards), c(StatId::kQueueEnqueues)), "ratio"};
  m["pool.tasks_drained"] = {static_cast<double>(li.pool_tasks_drained), "count"};
  m["pool.idle_ratio"] = {Ratio(li.pool_idle_sleeps, li.pool_rounds), "ratio"};

  // Reconciliation: the median Get minus what the ladder says its layers
  // cost, each rung weighted by how often one Get visits it.
  const obtree::StatsSnapshot& g = li.get_visits;
  const double gets = static_cast<double>(li.get_visits_gets);
  auto per_get = [&](StatId id) { return Ratio(g.Get(id), gets); };
  double increments = 0;
  for (uint64_t v : g.counters) increments += static_cast<double>(v);
  const double visits = per_get(StatId::kGets);
  const double optimistic =
      per_get(StatId::kOptimisticValidations) + per_get(StatId::kOptimisticRetries);
  const double copies = visits > optimistic ? visits - optimistic : 0;
  const double explained =
      l.epoch_guard_ns + l.stats_add_ns * Ratio(increments, gets) +
      l.optimistic_probe_ns * optimistic + l.page_get_ns * copies +
      l.lower_bound_ns * visits + l.paper_lock_ns * per_get(StatId::kLocksAcquired) +
      l.store_read_ns * per_get(StatId::kStoreReads) +
      (li.sharded ? l.route_ns : 0);
  m["ladder.get_unexplained_ns"] = {li.median_get_ns - explained, "ns"};
  m["trace.overhead_pct"] = {li.trace_overhead_pct, "%"};

  char note[256];
  std::snprintf(note, sizeof(note),
                "ladder: median Get %.0f ns = %.0f ns explained (%.2f node "
                "visits, %.2f store reads per Get) + unexplained",
                li.median_get_ns, explained, visits, per_get(StatId::kStoreReads));
  out->notes.push_back(note);
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricMap& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, metric] : metrics) {
    std::snprintf(num, sizeof(num), "%.17g", metric.value);
    s += first ? "" : ", ";
    s += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
         metric.unit + "\"}";
    first = false;
  }
  s += "}}";
  return s;
}

}  // namespace mapbench
