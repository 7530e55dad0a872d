// Copyright 2026 The obtree Authors.
//
// Test of the benchmark's correctness checks. Each workload runs at a tiny
// size against a wrapper that can corrupt one value the map returns and
// drop one acknowledged write. A clean run must report no failed
// operation; a run with either fault must report at least one, so a check
// that stops checking cannot pass unnoticed.
//
//   mapbench_check_test [work-dir]      (exit code 0 = every case passed)

#include <cstdio>
#include <string>

#include "workloads.h"

namespace mapbench {

/// Which calls the wrapper sabotages, counted from when the window starts.
struct FaultPlan {
  std::atomic<bool> armed{false};
  long corrupt_get = -1;  ///< index of the OK Get whose value is corrupted
  long drop_write = -1;   ///< index of the write that is acknowledged but lost
  std::atomic<long> gets{0};
  std::atomic<long> writes{0};
  std::atomic<Key> dropped_key{0};

  void Arm(long corrupt, long drop) {
    corrupt_get = corrupt;
    drop_write = drop;
    gets = 0;
    writes = 0;
    dropped_key = 0;
    armed = true;
  }
  bool CorruptThisGet() {
    return armed.load() && gets.fetch_add(1) == corrupt_get;
  }
  /// True when the write to `key` must be acknowledged without being
  /// applied. Once one write is dropped, later writes of the same key are
  /// dropped too, so no later write can repair the loss before the final
  /// check looks.
  bool DropThisWrite(Key key) {
    if (!armed.load()) return false;
    if (dropped_key.load() == key) return true;
    if (writes.fetch_add(1) != drop_write) return false;
    dropped_key = key;
    return true;
  }
};

FaultPlan g_plan;

/// Forwards every call the workloads make to the real map, except the
/// ones g_plan picks.
template <typename M>
class Faulty {
 public:
  template <typename Options>
  explicit Faulty(const Options& options) : m_(options) {}
  M& inner() { return m_; }

  Result<Value> Get(Key k) const {
    Result<Value> r = m_.Get(k);
    if (r.ok() && g_plan.CorruptThisGet()) return Value(*r ^ 1);
    return r;
  }
  Status Insert(Key k, Value v) {
    return g_plan.DropThisWrite(k) ? Status::OK() : m_.Insert(k, v);
  }
  Status Upsert(Key k, Value v) {
    return g_plan.DropThisWrite(k) ? Status::OK() : m_.Upsert(k, v);
  }
  Status Erase(Key k) {
    return g_plan.DropThisWrite(k) ? Status::OK() : m_.Erase(k);
  }
  std::vector<std::pair<Key, Value>> ScanLimit(Key from, size_t limit) const {
    return m_.ScanLimit(from, limit);
  }
  size_t Scan(Key lo, Key hi,
              const std::function<bool(Key, Value)>& visitor) const {
    return m_.Scan(lo, hi, visitor);
  }
  uint64_t Size() const { return m_.Size(); }
  uint32_t Height() const { return m_.Height(); }
  Status ValidateStructure() const { return m_.ValidateStructure(); }
  void CompressNow() { m_.CompressNow(); }
  StatsSnapshot Stats() const { return m_.Stats(); }
  TreeShape Shape() const { return m_.Shape(); }

 private:
  M m_;
};

template <typename M>
M& Raw(Faulty<M>& f) {
  return f.inner();
}

namespace {

struct Case {
  const char* name;
  long corrupt_get;
  long drop_write;
  bool expect_failures;
};

uint64_t RunOnce(void (*run)(Env&), const Config& cfg, const Case& c) {
  FailureLog log;
  RunResult out;
  Env env{cfg, log, nullptr, out, kNoSpan, {}};
  env.on_window = [&]() { g_plan.Arm(c.corrupt_get, c.drop_write); };
  g_plan.armed = false;
  run(env);
  g_plan.armed = false;
  return log.failed();
}

}  // namespace
}  // namespace mapbench

int main(int argc, char** argv) {
  using namespace mapbench;
  Config cfg;
  cfg.seed = 7;
  cfg.seconds = 0.3;
  cfg.setup_reps = 1;
  cfg.keys = 4000;
  cfg.scan_probe = 50;
  cfg.persist_slices = 2;
  cfg.work_dir = argc > 1 ? argv[1] : ".bench_out/check";
  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);

  const Case cases[] = {
      {"clean", -1, -1, false},
      {"corrupt one Get value", 10, -1, true},
      {"drop one acknowledged write", -1, 3, true},
      {"both", 10, 3, true},
  };
  struct Workload {
    const char* name;
    void (*run)(Env&);
  };
  const Workload workloads[] = {
      {"point-read", &RunPointRead<Faulty<ConcurrentMap>>},
      {"skewed-churn", &RunSkewedChurn<Faulty<ShardedMap>>},
  };
  int bad = 0;
  for (const Workload& w : workloads) {
    for (const Case& c : cases) {
      const uint64_t failed = RunOnce(w.run, cfg, c);
      const uint64_t want_min = c.drop_write >= 0 && c.corrupt_get >= 0 ? 2 : 1;
      const bool pass = c.expect_failures ? failed >= want_min : failed == 0;
      std::printf("%-4s %-15s %-28s failed=%llu\n", pass ? "ok" : "FAIL",
                  w.name, c.name, static_cast<unsigned long long>(failed));
      bad += pass ? 0 : 1;
    }
  }
  std::filesystem::remove_all(cfg.work_dir, ec);
  std::printf("%s\n", bad == 0 ? "all checks caught their faults"
                               : "some checks did not behave");
  return bad == 0 ? 0 : 1;
}
