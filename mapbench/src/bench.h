// Copyright 2026 The obtree Authors.
//
// Shared pieces of the map benchmark: clock, seeded generators, the value
// encoding the correctness checks rely on, latency samples and the
// failure log every operation reports into.

#ifndef MAPBENCH_BENCH_H_
#define MAPBENCH_BENCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obtree/util/common.h"

namespace mapbench {

using obtree::Key;
using obtree::Value;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

inline uint64_t Mix64(uint64_t x) {
  uint64_t s = x;
  return SplitMix64(&s);
}

/// xoshiro256** seeded through SplitMix64 from (seed, stream).
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream) {
    uint64_t s = seed ^ Mix64(stream + 0x5bd1e995ull);
    for (auto& w : s_) w = SplitMix64(&s);
  }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/// YCSB-style Zipfian over ranks [0, n) with the ranks scrambled over the
/// key space [1, n] by a hash, so the hot keys are spread out instead of
/// sitting together at the low end of the key space.
class ScrambledZipf {
 public:
  ScrambledZipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    double zeta_n = 0;
    for (uint64_t i = 1; i <= n; ++i) zeta_n += 1.0 / std::pow(i, theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    zeta_n_ = zeta_n;
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zeta_n);
  }
  Key Next(Rng* rng) const {
    const double u = rng->Unit();
    const double uz = u * zeta_n_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
      if (rank >= n_) rank = n_ - 1;
    }
    return 1 + Mix64(rank) % n_;
  }

 private:
  uint64_t n_;
  double theta_;
  double alpha_ = 0;
  double zeta_n_ = 0;
  double eta_ = 0;
};

/// Every value the benchmark writes encodes its key, a 16-bit version and
/// a 16-bit check of both, so a value read for any key can be checked
/// without knowing who wrote it, and any change to the check bits or the
/// key bits is caught.
inline uint16_t ValueCheck(Key key, uint16_t version) {
  return static_cast<uint16_t>(Mix64((key << 16) | version) >> 48);
}
inline Value EncodeValue(Key key, uint16_t version) {
  return (key << 32) | (static_cast<uint64_t>(version) << 16) |
         ValueCheck(key, version);
}
inline bool ValueValidFor(Key key, Value v) {
  const uint16_t version = static_cast<uint16_t>(v >> 16);
  return (v >> 32) == key && static_cast<uint16_t>(v) == ValueCheck(key, version);
}

/// Operation counts and the first few failure messages of a run.
class FailureLog {
 public:
  /// Counts one attempted operation; records a failure when !ok.
  bool Check(bool ok, const char* what, Key key = 0) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(mu_);
      if (messages_.size() < 8) {
        messages_.push_back(std::string(what) + " key=" + std::to_string(key));
      }
    }
    return ok;
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lk(mu_);
    return messages_;
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
};

/// Latency histogram in nanoseconds: log-linear buckets (exact below
/// 128 ns, then 128 per power of two, under 0.8% wide), so memory stays
/// fixed however many operations a run makes.
class Samples {
 public:
  Samples() : counts_(kBuckets, 0) {}
  void Add(uint64_t ns) {
    ++counts_[Index(ns)];
    ++n_;
  }
  void Append(const Samples& o) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }
  size_t size() const { return n_; }
  /// Nearest-rank percentile in ns, placed within its bucket by linear
  /// interpolation (0 when empty).
  double Percentile(double p) const {
    if (n_ == 0) return 0;
    const uint64_t rank = std::min<uint64_t>(
        n_, std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(p / 100.0 * n_))));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      if (seen + counts_[i] >= rank) {
        const double frac = (rank - seen - 0.5) / static_cast<double>(counts_[i]);
        return Lower(i) + frac * Width(i);
      }
      seen += counts_[i];
    }
    return Lower(kBuckets - 1);
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = 1u << kSubBits;
  static constexpr size_t kBuckets = kSub + (64 - kSubBits) * kSub;
  static size_t Index(uint64_t v) {
    if (v < kSub) return v;
    const int e = 63 - __builtin_clzll(v) - kSubBits;
    return kSub + e * kSub + ((v >> e) - kSub);
  }
  static double Lower(size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const size_t e = (i - kSub) / kSub;
    return std::ldexp(static_cast<double>(kSub + (i - kSub) % kSub), static_cast<int>(e));
  }
  static double Width(size_t i) {
    return i < kSub ? 1.0 : std::ldexp(1.0, static_cast<int>((i - kSub) / kSub));
  }
  std::vector<uint64_t> counts_;
  uint64_t n_ = 0;
};

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One named metric as printed in the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Sizes and rates of one run. Defaults are the benchmark's; the check
/// test shrinks them.
struct Config {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int setup_reps = 5;
  /// point-read: live keys (odd keys of [1, 2 * keys]); skewed-churn: key
  /// space.
  uint64_t keys = 1'000'000;
  /// Fixed ScanLimit(100) probe run after point-read's window (its mix has
  /// no scans), and the checkpointed slices of the durability probe.
  int scan_probe = 200000;
  int persist_slices = 16;
  /// Directory for store files and span output.
  std::string work_dir = ".bench_out";
};

/// Everything a workload run hands back to the report.
struct RunResult {
  MetricMap end_to_end;
  MetricMap per_layer;
  std::vector<std::string> notes;  ///< printed before the result line
};

}  // namespace mapbench

#endif  // MAPBENCH_BENCH_H_
