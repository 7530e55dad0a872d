// Copyright 2026 The obtree Authors.
//
// The two workloads, written against the public map API. They are
// templates over the map type so the check test can slip a fault-injecting
// wrapper between the workload and the real map; main.cc instantiates them
// with ConcurrentMap and ShardedMap directly.
//
// Correctness model: every writing client owns a key partition and keeps
// its exact contents, so each status and each value it reads back for its
// own keys is checked exactly; a value read for any other key is checked
// against the key it encodes (bench.h). At the end a full scan must equal
// the union of the models, Size() must match, and ValidateStructure() must
// pass on the quiesced map.

#ifndef MAPBENCH_WORKLOADS_H_
#define MAPBENCH_WORKLOADS_H_

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "host.h"
#include "ladder.h"
#include "obtree/api/concurrent_map.h"
#include "obtree/api/sharded_map.h"
#include "obtree/core/tree_checker.h"
#include "report.h"
#include "trace.h"

namespace mapbench {

using obtree::BatchResult;
using obtree::ConcurrentMap;
using obtree::MapOptions;
using obtree::Result;
using obtree::ShardedMap;
using obtree::ShardOptions;
using obtree::StatId;
using obtree::StatsSnapshot;
using obtree::Status;
using obtree::TreeShape;

// ------------------------------------------------------------ map access
// Raw() reaches the real map behind a wrapper; the check test adds an
// overload for its wrapper, found by argument-dependent lookup.
inline ConcurrentMap& Raw(ConcurrentMap& m) { return m; }
inline ShardedMap& Raw(ShardedMap& m) { return m; }

inline void QuiesceAll(ConcurrentMap& m) { m.Quiesce(); }
inline void QuiesceAll(ShardedMap& m) {
  for (uint32_t i = 0; i < m.num_shards(); ++i) m.shard(i)->Quiesce();
}
inline obtree::Histogram LockWaits(ConcurrentMap& m) {
  return m.tree()->stats()->LockWaitHistogram();
}
inline obtree::Histogram LockWaits(ShardedMap& m) {
  obtree::Histogram h;
  for (uint32_t i = 0; i < m.num_shards(); ++i) {
    h.Merge(m.shard(i)->tree()->stats()->LockWaitHistogram());
  }
  return h;
}
inline obtree::PoolStatsSnapshot PoolStatsOf(ConcurrentMap&) { return {}; }
inline obtree::PoolStatsSnapshot PoolStatsOf(ShardedMap& m) {
  return m.PoolStats();
}

inline uint64_t DirBytes(const std::string& dir) {
  uint64_t n = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) n += e.file_size(ec);
  }
  return n;
}

// ------------------------------------------------------------ the window
/// Latencies and op counts of one client in one phase.
struct PhaseStats {
  Samples get_ns, write_ns, scan_ns;
  uint64_t ops = 0;          ///< completed calls of every kind
  uint64_t gets = 0;         ///< Get calls
  uint64_t writes = 0;       ///< Insert / Upsert / Erase calls
  uint64_t scans = 0;        ///< ScanLimit calls
};

/// Phase 0 is untraced. A traced run cuts its window into kSlices slices
/// and spends slice kTracedSlice in phase 1, where each call is also
/// recorded as a span; the untraced slices on both sides keep warm-up and
/// host drift out of the comparison, and one slice in sixteen keeps the
/// span file to about a million rows per client.
struct Window {
  static constexpr int kSlices = 16;
  static constexpr int kTracedSlice = 11;
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int> phase{0};
  uint64_t phase_ns[2] = {0, 0};   ///< wall time spent in each phase
  std::atomic<SpanId> span{kNoSpan};  ///< the current traced slice
  double Seconds(int p) const { return phase_ns[p] * 1e-9; }
};

/// What one client thread sees of the window.
class Client {
 public:
  Client(int id, Window* w, Tracer::Buffer* spans)
      : id_(id), w_(w), spans_(spans) {}
  int id() const { return id_; }
  bool running() const { return !w_->stop.load(std::memory_order_relaxed); }
  PhaseStats& stats(int p) { return stats_[p]; }

  /// Runs `op` as one timed call. `kind` picks the latency series and
  /// `count` the op counter (gets or writes) it adds to.
  template <typename F>
  auto Timed(SpanName name, Samples PhaseStats::*kind,
             uint64_t PhaseStats::*count, F&& op) {
    const int p = w_->phase.load(std::memory_order_acquire);
    const uint64_t t0 = NowNs();
    auto r = op();
    const uint64_t t1 = NowNs();
    (stats_[p].*kind).Add(t1 - t0);
    ++stats_[p].ops;
    ++(stats_[p].*count);
    if (p == 1 && spans_ != nullptr) {
      spans_->Record(name, t0, t1, w_->span.load(std::memory_order_relaxed));
    }
    return r;
  }

 private:
  int id_;
  Window* w_;
  Tracer::Buffer* spans_;
  PhaseStats stats_[2];
};

/// Runs `body(client)` on `n` threads for cfg.seconds. Thread i records its
/// spans in tracer buffer i + 1 (buffer 0 belongs to the main thread).
inline std::vector<std::unique_ptr<Client>> RunWindow(
    const Config& cfg, int n, Tracer* tracer, SpanId run_span,
    const std::function<void(Client&)>& body, Window* w) {
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < n; ++i) {
    clients.push_back(std::make_unique<Client>(
        i, w, tracer != nullptr ? tracer->thread(i + 1) : nullptr));
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i]() {
      while (!w->go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(*clients[static_cast<size_t>(i)]);
    });
  }
  const uint64_t start = NowNs();
  const uint64_t total_ns = static_cast<uint64_t>(cfg.seconds * 1e9);
  const int slices = cfg.trace ? Window::kSlices : 1;
  w->go.store(true, std::memory_order_release);
  uint64_t slice_start = start;
  for (int i = 1; i <= slices; ++i) {
    const int p = w->phase.load(std::memory_order_relaxed);
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
            start + total_ns * i / slices)));
    const uint64_t now = NowNs();
    w->phase_ns[p] += now - slice_start;
    if (p == 1) tracer->thread(0)->Close(w->span.load(), now);
    const int next = i == Window::kTracedSlice ? 1 : 0;
    if (next == 1 && i < slices) {
      w->span.store(tracer->thread(0)->Open(SpanName::kWindow, now, run_span));
    }
    w->phase.store(next, std::memory_order_release);
    slice_start = now;
  }
  w->stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  return clients;
}

/// Phase p of all clients merged.
inline PhaseStats Merge(std::vector<std::unique_ptr<Client>>& clients, int p) {
  PhaseStats m;
  for (auto& c : clients) {
    PhaseStats& s = c->stats(p);
    m.get_ns.Append(s.get_ns);
    m.write_ns.Append(s.write_ns);
    m.scan_ns.Append(s.scan_ns);
    m.ops += s.ops;
    m.gets += s.gets;
    m.writes += s.writes;
  }
  return m;
}

/// Spans of the main thread (a no-op in untraced runs).
class MainSpans {
 public:
  explicit MainSpans(Tracer* tracer)
      : buf_(tracer ? tracer->thread(0) : nullptr) {}
  /// Times `f()`, records it as a span and returns its seconds.
  template <typename F>
  double Time(SpanName n, SpanId parent, F&& f) {
    const uint64_t t0 = NowNs();
    f();
    const uint64_t t1 = NowNs();
    if (buf_) buf_->Record(n, t0, t1, parent);
    return (t1 - t0) * 1e-9;
  }
  /// Runs call number `i` of a probe loop, `f()`, and records one call in
  /// eight as a span (the window's traced share, and the same bound on the
  /// span file); returns its result. `ns`, when given, receives the
  /// call's duration.
  template <typename F>
  auto Call(SpanName n, SpanId parent, uint64_t i, F&& f,
            uint64_t* ns = nullptr) {
    const uint64_t t0 = NowNs();
    auto r = f();
    const uint64_t t1 = NowNs();
    if (buf_ && i % 8 == 0) buf_->Record(n, t0, t1, parent);
    if (ns) *ns = t1 - t0;
    return r;
  }

 private:
  Tracer::Buffer* buf_;
};

/// Everything the workloads share: config, failure log, tracer.
struct Env {
  const Config& cfg;
  FailureLog& log;
  Tracer* tracer;  ///< null in untraced runs
  RunResult& out;
  SpanId run_span = kNoSpan;
  /// Called just before the clients start (the check test arms its
  /// faults here, so set-up is never the target).
  std::function<void()> on_window;
};

/// Fills the end-to-end metrics every workload reports from the window.
inline void WindowMetrics(Env& env, Window& w,
                          std::vector<std::unique_ptr<Client>>& clients,
                          LayerInputs* li) {
  PhaseStats p0 = Merge(clients, 0);
  PhaseStats all = p0;
  if (env.cfg.trace) {
    PhaseStats p1 = Merge(clients, 1);
    const double r0 = p0.ops / std::max(w.Seconds(0), 1e-9);
    const double r1 = p1.ops / std::max(w.Seconds(1), 1e-9);
    li->trace_overhead_pct = r0 > 0 ? (1.0 - r1 / r0) * 100.0 : 0;
    all.ops += p1.ops;
    all.gets += p1.gets;
    all.writes += p1.writes;
  }
  li->window_ops = all.ops;
  li->gets = all.gets;
  li->writes = all.writes;
  li->median_get_ns = p0.get_ns.Percentile(50);

  MetricMap& m = env.out.end_to_end;
  m["ops_per_s"] = {p0.ops / std::max(w.Seconds(0), 1e-9), "ops/s"};
  AddLatency(&env.out, "get", &p0.get_ns, /*with_p99=*/true);
  AddLatency(&env.out, "write", &p0.write_ns, /*with_p99=*/true);
  if (p0.scan_ns.size() > 0) {
    AddLatency(&env.out, "scan", &p0.scan_ns, /*with_p99=*/false);
  }
}

/// Single-threaded Gets after the window, counting what one Get does in
/// each layer (traced runs only; feeds ladder.get_unexplained_ns).
template <typename Map, typename KeyFn>
void ProbeGetVisits(Env& env, Map& map, KeyFn next_key, LayerInputs* li) {
  constexpr uint64_t kGets = 20'000;
  MainSpans spans(env.tracer);
  const StatsSnapshot before = map.Stats();
  for (uint64_t i = 0; i < kGets; ++i) {
    const Key k = next_key();
    Result<Value> r = spans.Call(SpanName::kGet, env.run_span, i,
                                 [&]() { return map.Get(k); });
    if (!r.ok() && !r.status().IsNotFound()) break;
  }
  li->get_visits = map.Stats().Delta(before);
  li->get_visits_gets = kGets;
}

/// Checks the quiesced map against `expect(key) -> (present, value)` over
/// [1, hi] by one full scan, then Size() and ValidateStructure(). Returns
/// the scanned contents for the durability probe.
template <typename Map, typename Expect>
std::vector<std::pair<Key, Value>> FinalChecks(Env& env, Map& map, Key hi,
                                               uint64_t expected_size,
                                               Expect expect) {
  MainSpans spans(env.tracer);
  std::vector<std::pair<Key, Value>> data;
  data.reserve(expected_size);
  bool scan_ok = true;
  Key next = 1;  // every key below `next` has been compared
  spans.Time(SpanName::kFullScan, env.run_span, [&]() {
    map.Scan(1, obtree::kMaxUserKey, [&](Key k, Value v) {
      data.emplace_back(k, v);
      if (k < next || k > hi) {
        scan_ok = false;
        return true;
      }
      for (; next < k; ++next) {
        if (expect(next).first) scan_ok = false;  // a key the scan missed
      }
      const auto e = expect(k);
      if (!e.first || e.second != v) scan_ok = false;
      next = k + 1;
      return true;
    });
    for (; next <= hi; ++next) {
      if (expect(next).first) scan_ok = false;
    }
  });
  env.log.Check(scan_ok, "full scan differs from the model");
  env.log.Check(map.Size() == expected_size, "Size() differs from the model");
  Status v;
  spans.Time(SpanName::kValidate, env.run_span,
             [&]() { v = map.ValidateStructure(); });
  env.log.Check(v.ok(), "ValidateStructure failed");
  return data;
}

/// Single-threaded durability probe over a workload's final contents:
/// persist them into a FileStore ConcurrentMap in cfg.persist_slices
/// checkpointed steps (sorted keys, so the append path takes every
/// insert), recover seven times into a buffer pool of a quarter of the
/// pages and check the contents, then run 20,000 cold Gets and
/// MultiGet(32)s (3:1) through that pool. One thread only: two threads
/// faulting pages of one pool can hang the program (see README).
inline void DurabilityProbe(Env& env, const std::string& name,
                            const std::vector<std::pair<Key, Value>>& data,
                            LayerInputs* li) {
  MainSpans spans(env.tracer);
  MapOptions opts;
  opts.compression = obtree::CompressionMode::kNone;
  opts.tree.storage_dir = env.cfg.work_dir + "/" + name + "-store";
  std::error_code ec;
  std::filesystem::remove_all(opts.tree.storage_dir, ec);
  std::vector<double> checkpoint_s;
  {
    ConcurrentMap map(opts);
    env.log.Check(map.init_status().ok(), "FileStore map failed to open");
    const size_t slices = static_cast<size_t>(std::max(1, env.cfg.persist_slices));
    size_t pos = 0;
    for (size_t slice = 1; slice <= slices; ++slice) {
      const size_t end = data.size() * slice / slices;
      for (; pos < end; ++pos) {
        const auto& [k, v] = data[pos];
        const Status s = spans.Call(SpanName::kInsert, env.run_span, pos,
                                    [&]() { return map.Insert(k, v); });
        env.log.Check(s.ok(), "persist Insert", k);
      }
      const uint64_t writes0 = map.Stats().Get(StatId::kStoreWrites);
      Status s;
      checkpoint_s.push_back(spans.Time(SpanName::kCheckpoint, env.run_span,
                                        [&]() { s = map.Checkpoint(); }));
      li->checkpoint_store_writes += map.Stats().Get(StatId::kStoreWrites) - writes0;
      env.log.Check(s.ok(), "Checkpoint failed");
    }
    li->persist_delta = map.Stats();
  }
  li->checkpoints = checkpoint_s.size();
  for (double t : checkpoint_s) li->checkpoint_total_s += t;
  li->checkpoint_median_s = Median(checkpoint_s);
  const uint64_t disk_bytes = DirBytes(opts.tree.storage_dir);

  const double pages = static_cast<double>(data.size()) / opts.tree.capacity();
  opts.tree.buffer_pool_pages = std::max<uint32_t>(64, static_cast<uint32_t>(pages / 4));
  std::unique_ptr<ConcurrentMap> rec;
  std::vector<double> recover_s;
  for (int i = 0; i < 7; ++i) {
    rec.reset();
    recover_s.push_back(spans.Time(SpanName::kRecover, env.run_span, [&]() {
      auto r = ConcurrentMap::Recover(opts);
      if (r.ok()) rec = std::move(*r);
    }));
    if (!env.log.Check(rec != nullptr, "Recover failed")) break;
  }
  if (rec != nullptr) {
    env.log.Check(rec->Size() == data.size(), "recovered Size() differs");
    bool same = true;
    size_t i = 0;
    rec->Scan(1, obtree::kMaxUserKey, [&](Key k, Value v) {
      same = same && i < data.size() && data[i].first == k && data[i].second == v;
      ++i;
      return true;
    });
    env.log.Check(same && i == data.size(),
                  "recovered keys differ from the checkpointed ones");
    if (!data.empty()) {
      Rng rng(env.cfg.seed, 900);
      Samples cold;
      std::vector<Key> batch(32);
      uint64_t multiget_ns = 0, multiget_keys = 0, lookups = 0;
      const StatsSnapshot before = rec->Stats();
      for (int op = 0; op < 20'000; ++op) {
        if (op % 4 == 3) {
          std::vector<size_t> idx(batch.size());
          for (size_t j = 0; j < batch.size(); ++j) {
            idx[j] = rng.Below(data.size());
            batch[j] = data[idx[j]].first;
          }
          uint64_t ns = 0;
          BatchResult r = spans.Call(SpanName::kMultiGet, env.run_span, op,
                                     [&]() { return rec->MultiGet(batch); }, &ns);
          multiget_ns += ns;
          multiget_keys += batch.size();
          for (size_t j = 0; j < batch.size(); ++j) {
            env.log.Check(j < r.values.size() && r.values[j].ok() &&
                              *r.values[j] == data[idx[j]].second,
                          "cold MultiGet", batch[j]);
          }
        } else {
          const auto& [k, v] = data[rng.Below(data.size())];
          uint64_t ns = 0;
          Result<Value> r = spans.Call(SpanName::kGet, env.run_span, op,
                                       [&]() { return rec->Get(k); }, &ns);
          cold.Add(ns);
          env.log.Check(r.ok() && *r == v, "cold Get", k);
        }
        lookups += op % 4 == 3 ? batch.size() : 1;
      }
      li->cold_delta = rec->Stats().Delta(before);
      li->cold_lookups = lookups;
      li->cold_ops = 20'000;
      li->cold_get_us = cold.Percentile(50) * 1e-3;
      li->multiget_us_per_key = multiget_ns * 1e-3 / multiget_keys;
    }
  }
  rec.reset();
  std::filesystem::remove_all(opts.tree.storage_dir, ec);
  MetricMap& m = env.out.end_to_end;
  m["recover_s"] = {Median(recover_s), "s"};
  m["disk_bytes_per_key"] = {
      data.empty() ? 0 : static_cast<double>(disk_bytes) / data.size(), "B/key"};
}

/// The end-to-end metrics of the final state; then the per-layer metrics
/// of a traced run.
inline void FinalMetrics(Env& env, const TreeShape& shape, uint64_t live_keys,
                         double setup_median_s, LayerInputs* li) {
  MetricMap& m = env.out.end_to_end;
  m["setup_s"] = {setup_median_s, "s"};
  m["mem_bytes_per_key"] = {
      live_keys ? shape.num_nodes * 4096.0 / live_keys : 0, "B/key"};
  m["peak_rss_mib"] = {PeakRssMib(), "MiB"};
  FinishLayers(env.cfg, &env.out, *li);
}

/// A fixed ScanLimit(100) probe on a quiet map, for the workloads whose
/// mix has no scans. `check(from, result)` judges each result.
template <typename Map, typename FromFn, typename CheckFn>
void ScanProbe(Env& env, Map& map, FromFn next_from, CheckFn check) {
  Samples lat;
  MainSpans spans(env.tracer);
  for (int i = 0; i < env.cfg.scan_probe; ++i) {
    const Key from = next_from();
    uint64_t ns = 0;
    auto r = spans.Call(SpanName::kScanLimit, env.run_span, i,
                        [&]() { return map.ScanLimit(from, 100); }, &ns);
    lat.Add(ns);
    env.log.Check(check(from, r), "ScanLimit result", from);
  }
  AddLatency(&env.out, "scan", &lat, /*with_p99=*/false);
}

/// Runs `build(rep)` cfg.setup_reps times, keeping the last map; returns
/// the median set-up time. The previous map is destroyed, untimed, before
/// the next is built.
template <typename Map, typename Build>
double RepeatSetup(Env& env, std::unique_ptr<Map>* keep, Build build) {
  MainSpans spans(env.tracer);
  std::vector<double> times;
  const int reps = std::max(1, env.cfg.setup_reps);
  for (int rep = 0; rep < reps; ++rep) {
    keep->reset();
    times.push_back(spans.Time(SpanName::kSetup, env.run_span,
                               [&]() { *keep = build(rep); }));
  }
  return Median(times);
}

/// Stops maintenance, measures the shape, then times CompressNow().
template <typename Map>
TreeShape QuiesceAndShape(Env& env, Map& map, LayerInputs* li) {
  MainSpans spans(env.tracer);
  spans.Time(SpanName::kQuiesce, env.run_span, [&]() { QuiesceAll(Raw(map)); });
  TreeShape shape;
  spans.Time(SpanName::kShape, env.run_span, [&]() { shape = map.Shape(); });
  li->shape = shape;
  li->height = map.Height();
  li->compress_now_s = spans.Time(SpanName::kCompressNow, env.run_span,
                                  [&]() { map.CompressNow(); });
  return shape;
}

template <typename Map>
void SnapshotCounters(Map& map, StatsSnapshot* stats,
                      obtree::PoolStatsSnapshot* pool) {
  *stats = map.Stats();
  *pool = PoolStatsOf(Raw(map));
}

template <typename Map>
void CounterDeltas(Map& map, const StatsSnapshot& s0,
                   const obtree::PoolStatsSnapshot& p0, LayerInputs* li) {
  li->window_delta = map.Stats().Delta(s0);
  const obtree::PoolStatsSnapshot p1 = PoolStatsOf(Raw(map));
  li->pool_tasks_drained = p1.tasks_drained - p0.tasks_drained;
  li->pool_rounds = p1.rounds - p0.rounds;
  li->pool_idle_sleeps = p1.idle_sleeps - p0.idle_sleeps;
  li->lock_wait = LockWaits(Raw(map));
}

// ------------------------------------------------------------ point-read
/// ConcurrentMap on MemStore; cfg.keys live keys (the odd keys of
/// [1, 2 * keys]) preloaded in a seeded random order; 2 clients run 95%
/// uniform Get over [1, 2 * keys] and 5% Upsert of their own live keys.
template <typename Map>
void RunPointRead(Env& env) {
  const Config& cfg = env.cfg;
  const uint64_t n = cfg.keys;
  constexpr int kClients = 2;
  auto key_of = [](uint64_t idx) -> Key { return 2 * idx + 1; };
  std::vector<uint64_t> order(n);
  for (uint64_t i = 0; i < n; ++i) order[i] = i;
  Rng shuffle(cfg.seed, 1);
  for (uint64_t i = n; i > 1; --i) std::swap(order[i - 1], order[shuffle.Below(i)]);

  std::unique_ptr<Map> map;
  const double setup_s = RepeatSetup<Map>(env, &map, [&](int /*rep*/) {
    auto m = std::make_unique<Map>(MapOptions());
    for (uint64_t idx : order) {
      const Key k = key_of(idx);
      env.log.Check(m->Insert(k, EncodeValue(k, 0)).ok(), "preload Insert", k);
    }
    return m;
  });

  // version[idx]: only the owning client ((idx % kClients) == id) writes it.
  std::vector<uint16_t> version(n, 0);
  LayerInputs li;
  StatsSnapshot s0;
  obtree::PoolStatsSnapshot p0;
  SnapshotCounters(*map, &s0, &p0);
  Window w;
  if (env.on_window) env.on_window();
  auto clients = RunWindow(cfg, kClients, env.tracer, env.run_span,
      [&](Client& c) {
        Rng rng(cfg.seed, 100 + c.id());
        const uint64_t own = (n + kClients - 1 - c.id()) / kClients;
        while (c.running()) {
          if (rng.Below(100) < 95) {
            const Key k = 1 + rng.Below(2 * n);
            Result<Value> r = c.Timed(SpanName::kGet, &PhaseStats::get_ns,
                                      &PhaseStats::gets,
                                      [&]() { return map->Get(k); });
            bool ok;
            if (k % 2 == 0) {
              ok = r.status().IsNotFound();
            } else {
              const uint64_t idx = (k - 1) / 2;
              ok = r.ok() && (static_cast<int>(idx % kClients) == c.id()
                                  ? *r == EncodeValue(k, version[idx])
                                  : ValueValidFor(k, *r));
            }
            env.log.Check(ok, "Get", k);
          } else if (own > 0) {
            const uint64_t idx = c.id() + kClients * rng.Below(own);
            const Key k = key_of(idx);
            const uint16_t ver = ++version[idx];
            Status s = c.Timed(SpanName::kUpsert, &PhaseStats::write_ns,
                               &PhaseStats::writes,
                               [&]() { return map->Upsert(k, EncodeValue(k, ver)); });
            env.log.Check(s.ok(), "Upsert", k);
          }
        }
      },
      &w);
  CounterDeltas(*map, s0, p0, &li);
  WindowMetrics(env, w, clients, &li);

  Rng probe(cfg.seed, 200);
  if (cfg.trace) {
    ProbeGetVisits(env, *map, [&]() { return 1 + probe.Below(2 * n); }, &li);
  }
  ScanProbe(env, *map, [&]() { return 1 + probe.Below(2 * n); },
            [&](Key from, const std::vector<std::pair<Key, Value>>& r) {
              Key expect = from | 1;  // the first odd key >= from
              for (const auto& [k, v] : r) {
                if (k != expect || v != EncodeValue(k, version[(k - 1) / 2])) {
                  return false;
                }
                expect += 2;
              }
              return r.size() == std::min<uint64_t>(100, (2 * n + 1 - (from | 1)) / 2);
            });
  const TreeShape shape = QuiesceAndShape(env, *map, &li);
  auto data = FinalChecks(env, *map, 2 * n, n, [&](Key k) {
    return std::make_pair(k % 2 == 1 && k <= 2 * n,
                          EncodeValue(k, k % 2 ? version[(k - 1) / 2] : 0));
  });
  map.reset();
  DurabilityProbe(env, "point-read", data, &li);
  FinalMetrics(env, shape, n, setup_s, &li);
}

// ---------------------------------------------------------- skewed-churn
/// ShardedMap, 4 shards, rebalancing off, one shared pool worker, MemStore.
/// Key space cfg.keys, half preloaded; Zipfian(0.99) scrambled keys; 2
/// clients run 45% Get, 25% Insert, 25% Erase, 5% ScanLimit(100).
template <typename Map>
void RunSkewedChurn(Env& env) {
  const Config& cfg = env.cfg;
  constexpr int kClients = 2;
  const uint64_t n = cfg.keys - cfg.keys % kClients;  // whole partitions
  // model[k]: bit 16 = present, low 16 bits = version. Key k belongs to
  // client (k - 1) % kClients, the only thread that writes model[k].
  constexpr uint32_t kPresent = 1u << 16;
  std::vector<uint32_t> model(n + 1, 0);
  std::vector<Key> preload;
  for (Key k = 1; k <= n; ++k) {
    if (Mix64(cfg.seed * 0x9e3779b97f4a7c15ull + k) & 1) preload.push_back(k);
  }
  Rng shuffle(cfg.seed, 2);
  for (size_t i = preload.size(); i > 1; --i) {
    std::swap(preload[i - 1], preload[shuffle.Below(i)]);
  }
  for (Key k : preload) model[k] = kPresent;

  ShardOptions opts;
  opts.num_shards = 4;
  opts.key_space_hint = n;
  opts.pool_threads = 1;
  opts.rebalance.enabled = false;
  std::unique_ptr<Map> map;
  const double setup_s = RepeatSetup<Map>(env, &map, [&](int /*rep*/) {
    auto m = std::make_unique<Map>(opts);
    for (Key k : preload) {
      env.log.Check(m->Insert(k, EncodeValue(k, 0)).ok(), "preload Insert", k);
    }
    return m;
  });

  const ScrambledZipf zipf(n, 0.99);
  auto owner = [](Key k) { return static_cast<int>((k - 1) % kClients); };
  LayerInputs li;
  li.sharded = true;
  StatsSnapshot s0;
  obtree::PoolStatsSnapshot p0;
  SnapshotCounters(*map, &s0, &p0);
  Window w;
  if (env.on_window) env.on_window();
  auto clients = RunWindow(cfg, kClients, env.tracer, env.run_span,
      [&](Client& c) {
        Rng rng(cfg.seed, 300 + c.id());
        // This client's key of the pair [k - (k-1) % kClients, ...].
        auto own_key = [&](Key k) { return k - (k - 1) % kClients + c.id(); };
        // The first key >= k this client owns.
        auto first_own = [&](Key k) {
          return k + (c.id() + kClients - (k - 1) % kClients) % kClients;
        };
        while (c.running()) {
          const uint64_t dice = rng.Below(100);
          const Key drawn = zipf.Next(&rng);
          if (dice < 45) {
            const Key k = drawn;
            Result<Value> r = c.Timed(SpanName::kGet, &PhaseStats::get_ns,
                                      &PhaseStats::gets,
                                      [&]() { return map->Get(k); });
            bool ok;
            if (owner(k) == c.id()) {
              ok = (model[k] & kPresent)
                       ? r.ok() && *r == EncodeValue(k, static_cast<uint16_t>(model[k]))
                       : r.status().IsNotFound();
            } else {
              ok = r.ok() ? ValueValidFor(k, *r) : r.status().IsNotFound();
            }
            env.log.Check(ok, "Get", k);
          } else if (dice < 70) {
            const Key k = own_key(drawn);
            const uint16_t ver = static_cast<uint16_t>(model[k] + 1);
            Status s = c.Timed(SpanName::kInsert, &PhaseStats::write_ns,
                               &PhaseStats::writes,
                               [&]() { return map->Insert(k, EncodeValue(k, ver)); });
            if (model[k] & kPresent) {
              env.log.Check(s.IsAlreadyExists(), "Insert of a live key", k);
            } else if (env.log.Check(s.ok(), "Insert", k)) {
              model[k] = kPresent | ver;
            }
          } else if (dice < 95) {
            const Key k = own_key(drawn);
            Status s = c.Timed(SpanName::kErase, &PhaseStats::write_ns,
                               &PhaseStats::writes,
                               [&]() { return map->Erase(k); });
            if (model[k] & kPresent) {
              if (env.log.Check(s.ok(), "Erase", k)) model[k] &= ~kPresent;
            } else {
              env.log.Check(s.IsNotFound(), "Erase of an absent key", k);
            }
          } else {
            const Key from = drawn;
            auto r = c.Timed(SpanName::kScanLimit, &PhaseStats::scan_ns,
                             &PhaseStats::scans,
                             [&]() { return map->ScanLimit(from, 100); });
            // Sorted, in range, valid values; and this client's own keys
            // in the covered range must be exactly its model's.
            bool ok = r.size() <= 100;
            Key prev = from - 1;
            Key own = first_own(from);
            for (const auto& [k, v] : r) {
              ok = ok && k > prev && k <= n && ValueValidFor(k, v);
              if (!ok) break;
              prev = k;
              if (owner(k) != c.id()) continue;
              for (; own < k; own += kClients) ok = ok && !(model[own] & kPresent);
              ok = ok && (model[k] & kPresent) &&
                   v == EncodeValue(k, static_cast<uint16_t>(model[k]));
              own = k + kClients;
            }
            const Key covered = r.size() == 100 ? prev : n;
            for (; own <= covered; own += kClients) ok = ok && !(model[own] & kPresent);
            env.log.Check(ok, "ScanLimit", from);
          }
        }
      },
      &w);
  CounterDeltas(*map, s0, p0, &li);
  WindowMetrics(env, w, clients, &li);

  Rng probe(cfg.seed, 400);
  if (cfg.trace) {
    ProbeGetVisits(env, *map, [&]() { return zipf.Next(&probe); }, &li);
  }
  const TreeShape shape = QuiesceAndShape(env, *map, &li);
  uint64_t live = 0;
  for (Key k = 1; k <= n; ++k) live += (model[k] & kPresent) ? 1 : 0;
  auto data = FinalChecks(env, *map, n, live, [&](Key k) {
    return std::make_pair(k <= n && (model[k] & kPresent) != 0,
                          EncodeValue(k, static_cast<uint16_t>(k <= n ? model[k] : 0)));
  });
  map.reset();
  DurabilityProbe(env, "skewed-churn", data, &li);
  FinalMetrics(env, shape, live, setup_s, &li);
}

}  // namespace mapbench

#endif  // MAPBENCH_WORKLOADS_H_
