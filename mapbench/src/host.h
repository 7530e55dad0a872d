// Copyright 2026 The obtree Authors.
//
// Host fingerprint printed with every run: how many CPUs the host claims,
// how much parallel work it actually delivered just now, and what built
// the binary. A starved host then reads differently from a regression.

#ifndef MAPBENCH_HOST_H_
#define MAPBENCH_HOST_H_

#include <string>

namespace mapbench {

struct HostFingerprint {
  unsigned nproc = 0;
  /// Spin-loop work done by 2 and 4 threads in a fixed wall time, as a
  /// multiple of what 1 thread did (1.0 = no parallel capacity at all).
  double parallelism_2 = 0;
  double parallelism_4 = 0;
  std::string compiler;
  std::string build_type;
  std::string git_sha;
};

/// Runs the spin probe (about 0.3 s) and fills the fingerprint.
HostFingerprint ProbeHost(const std::string& git_sha);

/// One line, `host: key=value ...`.
std::string FormatHost(const HostFingerprint& h);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMib();

}  // namespace mapbench

#endif  // MAPBENCH_HOST_H_
