// Metric collection and reporting for the perfbench binary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< values the figure was computed from
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::uint64_t samples);
  void add_count(std::string name, double value) {
    add(std::move(name), value, "count", 1);
  }

  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

  /// One JSON object on one line: correct/attempted/failed plus every
  /// metric as {"value", "unit", "samples"}.  perfbench/run.py selects the
  /// names BENCHMARK.json asks for.
  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// Harrell–Davis estimate of the q-quantile, q in (0, 1); 0 for an empty
/// set.  A weighted mean of all order statistics (Beta-distributed
/// weights centred on q) instead of the one or two samples nearest q, so
/// the estimate moves smoothly when a sample changes rank.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Plain sample median (mean of the middle two); 0 for an empty set.
[[nodiscard]] double median(std::vector<double> values);

/// The median over groups of each non-empty group's median.  A C/R p50:
/// each program's latencies sit in a tight cluster of their own, and
/// with the suite's job mix half the samples fall on either side of the
/// gap between two clusters, so a pooled median jumps across that gap
/// with every sample that changes side under load.  One vote per program
/// keeps the p50 inside the clusters.
[[nodiscard]] double median_of_medians(
    const std::vector<std::vector<double>>& groups);

struct ProcUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t minor_faults = 0;
};
/// getrusage(RUSAGE_SELF): every thread of the process.
[[nodiscard]] ProcUsage proc_usage();
/// getrusage(RUSAGE_THREAD): the calling thread only.
[[nodiscard]] ProcUsage thread_usage();

/// Resets the kernel's peak-RSS watermark (Linux clear_refs) to the
/// current resident size; returns false when the kernel refuses, in which
/// case peak_rss_mib() reports the process-lifetime peak.  Heap that
/// set-up freed but the allocator kept stays counted: trimming it first
/// made the C/R peaks swing 30–60 MiB with the allocator's retention
/// during the timed part, while the untrimmed figure repeats.
bool reset_peak_rss();
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
