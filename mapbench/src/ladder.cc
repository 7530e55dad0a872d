// Copyright 2026 The obtree Authors.

#include "ladder.h"

#include <filesystem>
#include <vector>

#include "bench.h"
#include "obtree/api/sharded_map.h"
#include "obtree/node/node.h"
#include "obtree/storage/file_store.h"
#include "obtree/storage/page_manager.h"
#include "obtree/storage/paper_lock.h"
#include "obtree/util/epoch.h"
#include "obtree/util/stats.h"

namespace mapbench {
namespace {

template <typename T>
inline void KeepAlive(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// Median over five rounds of the ns per call of `body(i)`.
template <typename Body>
double TimeLoop(uint64_t iters, Body body) {
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    const uint64_t t0 = NowNs();
    for (uint64_t i = 0; i < iters; ++i) body(i);
    rounds.push_back(static_cast<double>(NowNs() - t0) /
                     static_cast<double>(iters));
  }
  return Median(rounds);
}

}  // namespace

Ladder RunLadder(const std::string& scratch_dir, unsigned seed) {
  using namespace obtree;
  Ladder l;
  Rng rng(seed, 77);
  constexpr size_t kKeys = 4096;  // run-time keys, so no call folds away
  std::vector<Key> keys(kKeys);

  {
    EpochManager epoch;
    l.epoch_guard_ns = TimeLoop(500'000, [&](uint64_t) {
      EpochManager::Guard g(&epoch);
      KeepAlive(g.start_time());
    });
  }
  {
    StatsCollector stats;
    l.stats_add_ns = TimeLoop(2'000'000, [&](uint64_t) {
      stats.Add(StatId::kGets);
    });
    KeepAlive(stats.Get(StatId::kGets));
  }
  {
    PaperLock lock;
    l.paper_lock_ns = TimeLoop(1'000'000, [&](uint64_t) {
      KeepAlive(lock.Lock(64, 256));
      lock.Unlock();
    });
  }
  {
    EpochManager epoch;
    StatsCollector stats;
    PageManager pm(&epoch, &stats);
    std::vector<PageId> ids;
    Page page;
    page.Clear();
    for (int i = 0; i < 64; ++i) {
      Result<PageId> id = pm.Allocate();
      if (!id.ok()) break;
      page.bytes[0] = static_cast<uint8_t>(i);
      pm.Lock(*id);
      pm.Put(*id, page);
      pm.Unlock(*id);
      ids.push_back(*id);
    }
    if (!ids.empty()) {
      l.optimistic_probe_ns = TimeLoop(1'000'000, [&](uint64_t i) {
        PageManager::ReadGuard g = pm.OptimisticRead(ids[i % ids.size()]);
        KeepAlive(g.page()->bytes[8]);
        KeepAlive(g.Validate());
      });
      Page out;
      l.page_get_ns = TimeLoop(100'000, [&](uint64_t i) {
        KeepAlive(pm.Get(ids[i % ids.size()], &out).ok());
        KeepAlive(out.bytes[0]);
      });
    }
  }
  {
    Page page;
    page.Clear();
    Node* leaf = page.As<Node>();
    leaf->Init(0, kMinusInfinity, kPlusInfinity, kInvalidPageId);
    const uint32_t full = TreeOptions().capacity();  // 2k: a full leaf
    for (uint32_t i = 1; i <= full; ++i) leaf->InsertLeafEntry(2 * i, i);
    for (Key& k : keys) k = 1 + rng.Below(2 * full + 1);
    l.lower_bound_ns = TimeLoop(500'000, [&](uint64_t i) {
      KeepAlive(leaf->LowerBound(keys[i % kKeys]));
    });
  }
  {
    std::vector<uint8_t> buf(kPageSize);
    for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
    l.crc_4k_ns = TimeLoop(2'000, [&](uint64_t i) {
      buf[0] = static_cast<uint8_t>(i);
      KeepAlive(FileStore::Crc32(buf.data(), buf.size()));
    });
  }
  {
    std::error_code ec;
    std::filesystem::remove_all(scratch_dir, ec);
    auto store = FileStore::Open(scratch_dir);
    if (store.ok()) {
      std::vector<uint8_t> buf(kPageSize, 0x5a);
      constexpr PageId kPages = 64;
      bool written = true;
      for (PageId id = 0; id < kPages; ++id) {
        written = written && (*store)->WritePage(id, buf.data()).ok();
      }
      // One pass reads every page into the OS page cache first.
      for (PageId id = 0; written && id < kPages; ++id) {
        written = (*store)->ReadPage(id, buf.data()).ok();
      }
      if (written) {
        l.store_read_ns = TimeLoop(2'000, [&](uint64_t i) {
          KeepAlive((*store)->ReadPage(static_cast<PageId>(i % kPages),
                                       buf.data()).ok());
        });
      }
    }
    std::filesystem::remove_all(scratch_dir, ec);
  }
  {
    ShardOptions opts;
    opts.num_shards = 4;
    opts.key_space_hint = 1'000'000;
    opts.compression = CompressionMode::kNone;
    ShardedMap map(opts);
    for (Key& k : keys) k = 1 + rng.Below(opts.key_space_hint);
    l.route_ns = TimeLoop(4'000'000, [&](uint64_t i) {
      KeepAlive(map.ShardIndex(keys[i % kKeys]));
    });
  }
  return l;
}

}  // namespace mapbench
