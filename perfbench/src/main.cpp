// perfbench: end-to-end benchmark of the checkpoint/restart pipeline.
//
//   perfbench --workload analyze-npb|cr-file|cr-remote --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE]
//
// Prints one JSON object on its last stdout line with every metric the
// run measured (value, unit, sample count).  perfbench/run.py builds this
// binary, runs it and keeps the metrics BENCHMARK.json names.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "support/log.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "analyze-npb|cr-file|cr-remote --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.work_dir = ".bench_build/perfbench-work/" + std::to_string(getpid());
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (!(options.seconds > 0.0)) return usage("--seconds must be > 0");

  scrutiny::set_log_level(scrutiny::LogLevel::Warn);
  perfbench::Outcome outcome;
  try {
    if (options.workload == "analyze-npb") {
      outcome = perfbench::run_analyze_npb(options);
    } else if (options.workload == "cr-file") {
      outcome = perfbench::run_cr(options, /*remote=*/false);
    } else if (options.workload == "cr-remote") {
      outcome = perfbench::run_cr(options, /*remote=*/true);
    } else {
      return usage(("unknown workload \"" + options.workload + "\"").c_str());
    }
    if (options.trace && !options.trace_out.empty()) {
      perfbench::Tracer::instance().write_jsonl(options.trace_out);
    }
    std::filesystem::remove_all(options.work_dir);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  if (options.trace) {
    outcome.report.add_count(
        "trace.spans",
        static_cast<double>(perfbench::Tracer::instance().spans().size()));
    outcome.report.add_count(
        "trace.dropped_spans",
        static_cast<double>(perfbench::Tracer::instance().dropped()));
  }
  std::printf("%s\n", outcome.report
                          .json(outcome.failed == 0, outcome.attempted,
                                outcome.failed)
                          .c_str());
  return 0;
}
