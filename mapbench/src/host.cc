// Copyright 2026 The obtree Authors.

#include "host.h"

#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench.h"

namespace mapbench {
namespace {

// Pure-ALU work: no memory traffic, so only CPU time limits it.
uint64_t SpinFor(uint64_t deadline_ns) {
  uint64_t iters = 0;
  uint64_t x = 88172645463325252ull;
  while (NowNs() < deadline_ns) {
    for (int i = 0; i < 1024; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    ++iters;
  }
  std::atomic_signal_fence(std::memory_order_seq_cst);
  return iters + (x == 0 ? 1 : 0);
}

uint64_t SpinThreads(int threads, uint64_t window_ns) {
  std::atomic<uint64_t> total{0};
  const uint64_t deadline = NowNs() + window_ns;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&]() { total.fetch_add(SpinFor(deadline)); });
  }
  for (auto& th : pool) th.join();
  return total.load();
}

}  // namespace

HostFingerprint ProbeHost(const std::string& git_sha) {
  HostFingerprint h;
  h.nproc = std::thread::hardware_concurrency();
  constexpr uint64_t kWindow = 100'000'000;  // 100 ms per thread count
  SpinThreads(1, kWindow / 2);  // let the clock frequency settle first
  const double one = static_cast<double>(SpinThreads(1, kWindow));
  if (one > 0) {
    h.parallelism_2 = static_cast<double>(SpinThreads(2, kWindow)) / one;
    h.parallelism_4 = static_cast<double>(SpinThreads(4, kWindow)) / one;
  }
  h.compiler = MAPBENCH_COMPILER;
  h.build_type = MAPBENCH_BUILD_TYPE;
  h.git_sha = git_sha.empty() ? "unknown" : git_sha;
  return h;
}

std::string FormatHost(const HostFingerprint& h) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "host: nproc=%u parallelism@1=1.00 parallelism@2=%.2f "
                "parallelism@4=%.2f compiler=\"%s\" build=%s git=%s",
                h.nproc, h.parallelism_2, h.parallelism_4, h.compiler.c_str(),
                h.build_type.c_str(), h.git_sha.c_str());
  return buf;
}

double PeakRssMib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace mapbench
