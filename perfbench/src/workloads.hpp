// The benchmark's workloads.  Each runs set-up several times, measures for
// the requested wall time, checks every output it produces and fills a
// Report.  See perfbench/NOTES.md for what each workload stresses.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/checkpoint_io.hpp"
#include "core/program.hpp"
#include "metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;   ///< scratch space inside the checkout
  std::filesystem::path trace_out;  ///< span dump (traced runs)
};

struct Outcome {
  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Set-up repetitions per run; set-up time is their median.  On the C/R
/// workloads each set-up is also one analysis pass, so this is the sample
/// count behind their analyze_pass_s: a single pass (FT alone is ~2 s)
/// often lands in a slow burst on a shared host.
inline constexpr int kSetupRepeats = 5;

/// In a traced run, this share of the measured time runs untraced first,
/// so the run can report its own tracing overhead.
inline constexpr double kUntracedShare = 1.0 / 3.0;

Outcome run_analyze_npb(const Options& options);
/// cr-file (remote = false) and cr-remote (remote = true).
Outcome run_cr(const Options& options, bool remote);

/// What a C/R job needs from set-up: the masks of a default-config
/// analysis and the golden outputs of an uninterrupted run.
struct CrProgram {
  std::string name;
  const scrutiny::core::AnyProgram* program = nullptr;
  scrutiny::ckpt::PruneMap masks;
  std::vector<double> golden;
  double tolerance = 0.0;
  int total_steps = 0;
};
[[nodiscard]] CrProgram make_cr_program(
    const scrutiny::core::AnyProgram& program,
    scrutiny::ckpt::PruneMap masks);

/// The known-defect probe: a C/R job rerun from step 1 into a remote tenant
/// and basename that still hold an earlier run's newer prune+delta slots.
/// Untimed; its counts are reported apart from the workload's metrics.
struct StaleRerunCounts {
  std::uint64_t mismatches = 0;  ///< reruns whose outputs missed golden
  std::uint64_t warnings = 0;    ///< "skipping unusable checkpoint" lines
};
StaleRerunCounts run_stale_rerun_probe(const Options& options,
                                       const std::vector<CrProgram>& programs);

inline void add_stale_rerun_counts(Report& report,
                                   const StaleRerunCounts& counts) {
  report.add_count("known.stale_rerun_mismatches",
                   static_cast<double>(counts.mismatches));
  report.add_count("known.stale_rerun_warnings",
                   static_cast<double>(counts.warnings));
}

/// Deterministic 64-bit generator (splitmix64): inputs depend only on the
/// seed, not on the standard library's distribution implementations.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int between(int lo, int hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    return lo + static_cast<int>(next() % span);
  }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[next() % i]);
    }
  }

 private:
  std::uint64_t state_;
};

/// A pass's analysis time from several passes over the same programs:
/// the sum over programs of each program's median time.  One slow burst
/// on a shared machine then moves a single program's sample, not a pass.
[[nodiscard]] inline double median_pass_s(
    const std::vector<std::vector<double>>& per_pass_program_s) {
  if (per_pass_program_s.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t p = 0; p < per_pass_program_s.front().size(); ++p) {
    std::vector<double> samples;
    for (const auto& pass : per_pass_program_s) samples.push_back(pass[p]);
    total += median(std::move(samples));
  }
  return total;
}

/// Seconds since `start_ns` (steady clock).
[[nodiscard]] double seconds_since(std::int64_t start_ns);

}  // namespace perfbench
