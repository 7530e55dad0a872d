// Copyright 2026 The obtree Authors.
//
// mapbench: runs one workload against the public map API and prints its
// metrics. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
//   mapbench --workload point-read|skewed-churn
//            --seed N --seconds S --trace 0|1 [--git-sha SHA]
//            [--work-dir DIR]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "host.h"
#include "trace.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "mapbench: %s\nusage: mapbench --workload "
               "point-read|skewed-churn --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mapbench;
  Config cfg;
  std::string workload;
  std::string git_sha;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val, nullptr);
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(val, "0") != 0;
    } else if (arg == "--git-sha") {
      git_sha = val;
    } else if (arg == "--work-dir") {
      cfg.work_dir = val;
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  if (cfg.seconds <= 0) Usage("--seconds must be positive");
  if (workload != "point-read" && workload != "skewed-churn") {
    Usage("unknown --workload");
  }

  std::printf("%s\n", FormatHost(ProbeHost(git_sha)).c_str());
  std::printf("config: workload=%s seed=%llu seconds=%g trace=%d keys=%llu\n",
              workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0,
              static_cast<unsigned long long>(cfg.keys));
  std::fflush(stdout);

  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);
  if (ec) Usage(("cannot create " + cfg.work_dir).c_str());

  // Buffer 0 is the main thread's; the workloads run at most two clients.
  std::unique_ptr<Tracer> tracer;
  if (cfg.trace) tracer = std::make_unique<Tracer>(3, size_t{1} << 21);
  FailureLog log;
  RunResult out;
  Env env{cfg, log, tracer.get(), out, kNoSpan, {}};
  if (tracer) env.run_span = tracer->thread(0)->Open(SpanName::kRun, NowNs(), kNoSpan);

  if (workload == "point-read") {
    RunPointRead<obtree::ConcurrentMap>(env);
  } else {
    RunSkewedChurn<obtree::ShardedMap>(env);
  }

  if (tracer) {
    tracer->thread(0)->Close(env.run_span, NowNs());
    const std::string path = cfg.work_dir + "/spans-" + workload + ".csv";
    const bool written = tracer->WriteCsv(path, workload);
    std::printf("trace: %llu spans%s written to %s (%llu dropped)\n",
                static_cast<unsigned long long>(tracer->TotalSpans()),
                written ? "" : " NOT", path.c_str(),
                static_cast<unsigned long long>(tracer->TotalDropped()));
  }
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  for (const std::string& m : log.messages()) {
    std::printf("FAILED: %s\n", m.c_str());
  }
  const MetricMap& metrics = cfg.trace ? out.per_layer : out.end_to_end;
  for (const auto& [name, metric] : metrics) {
    std::printf("%-36s %14.4f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%s\n", ResultLine(log.failed() == 0, log.attempted(),
                                 log.failed(), metrics)
                          .c_str());
  return 0;
}
