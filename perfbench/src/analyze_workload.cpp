// analyze-npb: the `scrutiny analyze --save-masks` path over the NPB suite.
//
// One operation ("pass") analyzes BT SP LU MG CG FT EP IS in a seeded
// order, each from a fresh ScrutinySession with the program's default
// configuration (reverse AD, vector sweep, threads=1; IS in read-set
// mode) and no .scmask reuse.  Each analysis is checked against the
// closed-form oracles and against the first pass's tape counts.  Then
// each program's state at the analysis placement is written as a pruned
// checkpoint with the fresh masks and restored into poisoned memory: the
// plan -> write -> restart leg of the pipeline, and this workload's
// write/restart figure.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint_io.hpp"
#include "ckpt/failure.hpp"
#include "ckpt/memory_backend.hpp"
#include "core/session.hpp"
#include "npb/expected_masks.hpp"
#include "npb/suite.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = scrutiny::core;
namespace npb = scrutiny::npb;

namespace ckpt = scrutiny::ckpt;

struct ProgramSetup {
  npb::BenchmarkId id{};
  std::string name;
  const core::AnyProgram* program = nullptr;
  std::map<std::string, scrutiny::CriticalMask> oracle;
  std::vector<double> golden;  ///< outputs of an uninterrupted run
};

std::vector<ProgramSetup> set_up_programs() {
  npb::register_suite();
  std::vector<ProgramSetup> programs;
  for (const npb::BenchmarkId id : npb::all_benchmarks()) {
    ProgramSetup setup{.id = id,
                       .name = std::string(npb::benchmark_name(id)),
                       .program = &npb::benchmark_program(id),
                       .oracle = {},
                       .golden = {}};
    setup.golden = core::ScrutinySession(*setup.program).golden_outputs();
    const auto app = setup.program->make_primal();
    for (const auto& info : app->binding_info()) {
      if (auto mask = npb::expected_mask(id, info.name)) {
        setup.oracle.emplace(info.name, std::move(*mask));
      }
    }
    programs.push_back(std::move(setup));
  }
  return programs;
}

/// Pruned write/restore round trips per program and pass (≈0.5 s a pass).
constexpr int kRoundTrips = 16;

struct Analyzed {
  std::size_t index = 0;  ///< into the program list
  int warmup_steps = 0;   ///< the analysis placement: checkpoint step
  core::AnalysisResult result;
};

/// Same gate as ScrutinySession::verify_restart (scale-relative; NaN
/// never matches).
bool outputs_match(const std::vector<double>& golden,
                   const std::vector<double>& actual, double tolerance) {
  if (golden.size() != actual.size()) return false;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    if (std::isnan(golden[i]) || std::isnan(actual[i])) return false;
    const double scale =
        std::max({1.0, std::fabs(golden[i]), std::fabs(actual[i])});
    if (std::fabs(golden[i] - actual[i]) > tolerance * scale) return false;
  }
  return true;
}

/// One program's plan -> write -> restart leg: the writer sits at the
/// analysis placement, the reader is a fresh instance whose memory is
/// poisoned before every restore.
struct RoundTrip {
  std::unique_ptr<core::PrimalInstance> writer;
  ckpt::CheckpointRegistry writer_registry;
  std::unique_ptr<core::PrimalInstance> reader;
  ckpt::CheckpointRegistry reader_registry;
  ckpt::PruneMap masks;
};

/// Per-program accumulators over the measured passes.
struct ProgramTotals {
  double analyze_s = 0.0;
  double unattributed_s = 0.0;
  std::uint64_t analyses = 0;
};

struct PassTotals {
  double record_s = 0.0;
  double sweep_s = 0.0;
  double harvest_s = 0.0;
  double unattributed_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t minor_faults = 0;
  std::uint64_t statements = 0;
  std::uint64_t sweep_passes = 0;
  double reserved_mib = 0.0;       ///< max over programs
  double resident_peak_mib = 0.0;  ///< max over programs
};

}  // namespace

Outcome run_analyze_npb(const Options& options) {
  Outcome outcome;
  Report& report = outcome.report;

  std::vector<double> setup_samples;
  std::vector<ProgramSetup> programs;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t start = now_ns();
    programs = set_up_programs();
    std::filesystem::create_directories(options.work_dir);
    setup_samples.push_back(seconds_since(start));
  }

  SeededRng rng(options.seed);
  std::vector<std::vector<double>> pass_program_s;  // [pass][program]
  std::vector<std::vector<double>> write_ms(programs.size());  // [program]
  std::vector<std::vector<double>> restart_ms(programs.size());
  std::uint64_t container_bytes = 0;
  std::uint64_t full_bytes = 0;
  std::uint64_t verified = 0;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> first_counts;
  std::map<std::string, ProgramTotals> per_program;
  PassTotals totals;
  std::map<std::string, scrutiny::ckpt::PruneMap> last_masks;
  std::uint64_t traced_passes = 0;
  std::vector<double> untraced_pass_s;
  std::vector<double> traced_pass_s;

  reset_peak_rss();
  const std::int64_t start = now_ns();
  const double untraced_until =
      options.trace ? options.seconds * kUntracedShare : 0.0;
  while (seconds_since(start) < options.seconds || pass_program_s.empty()) {
    const bool traced = options.trace && seconds_since(start) >= untraced_until;
    if (traced) Tracer::instance().enable();
    std::vector<std::size_t> order(programs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);

    const ScopedSpan pass_span("pass");
    double pass_analyze_s = 0.0;
    std::vector<double> program_s(programs.size(), 0.0);
    std::vector<Analyzed> analyzed;  // this pass's checked analyses
    for (const std::size_t index : order) {
      const ProgramSetup& setup = programs[index];
      ++outcome.attempted;
      Tracer::set_job(static_cast<std::int32_t>(outcome.attempted));
      bool ok = true;
      core::AnalysisResult result;
      core::AnalysisConfig config;
      const ProcUsage before = thread_usage();
      const std::int64_t t0 = now_ns();
      try {
        const ScopedSpan span("core.analyze");
        core::ScrutinySession session(*setup.program);
        result = session.analyze();
        config = session.analysis_config();
      } catch (const std::exception& error) {
        std::fprintf(stderr, "analyze %s failed: %s\n", setup.name.c_str(),
                     error.what());
        ok = false;
      }
      const double wall = seconds_since(t0);
      const ProcUsage after = thread_usage();
      pass_analyze_s += wall;
      program_s[index] = wall;

      if (ok) {
        const ScopedSpan span("verify");
        for (const auto& variable : result.variables) {
          const auto expected = setup.oracle.find(variable.name);
          if (expected != setup.oracle.end() &&
              !(variable.mask == expected->second)) {
            std::fprintf(stderr, "%s(%s): mask differs from the oracle\n",
                         setup.name.c_str(), variable.name.c_str());
            ok = false;
          }
        }
        const auto counts = std::make_pair(
            result.tape_stats.num_statements,
            static_cast<std::uint64_t>(result.sweep_passes));
        const auto [it, first] = first_counts.emplace(setup.name, counts);
        if (!first && it->second != counts) {
          std::fprintf(stderr, "%s: tape statements/sweep passes changed\n",
                       setup.name.c_str());
          ok = false;
        }
      }

      if (!ok) {
        ++outcome.failed;
        continue;
      }
      analyzed.push_back(
          Analyzed{index, config.warmup_steps, std::move(result)});
      const core::AnalysisResult& done = analyzed.back().result;
      if (traced) {
        const double attributed =
            done.record_seconds + done.sweep_seconds + done.harvest_seconds;
        ProgramTotals& program = per_program[setup.name];
        program.analyze_s += wall;
        program.unattributed_s += wall - attributed;
        ++program.analyses;
        totals.record_s += done.record_seconds;
        totals.sweep_s += done.sweep_seconds;
        totals.harvest_s += done.harvest_seconds;
        totals.unattributed_s += wall - attributed;
        totals.user_s += after.user_s - before.user_s;
        totals.sys_s += after.sys_s - before.sys_s;
        totals.minor_faults += after.minor_faults - before.minor_faults;
        totals.statements += done.tape_stats.num_statements;
        totals.sweep_passes += done.sweep_passes;
        totals.reserved_mib =
            std::max(totals.reserved_mib,
                     static_cast<double>(done.tape_stats.memory_bytes) /
                         (1024.0 * 1024.0));
        totals.resident_peak_mib = std::max(
            totals.resident_peak_mib,
            static_cast<double>(done.tape_stats.resident_peak_bytes) /
                (1024.0 * 1024.0));
      }
    }

    // The pass's product, used the way production uses it: each program
    // is checkpointed at its analysis placement with the fresh masks and
    // restored into poisoned memory, kRoundTrips times.  The store is in
    // memory, so the figure is the pipeline's cost, not the shared
    // filesystem's.  The first restore of each program runs to the end
    // and must reproduce the golden outputs.
    ckpt::MemoryBackend store;
    for (const Analyzed& a : analyzed) {
      const ProgramSetup& setup = programs[a.index];
      bool ok = true;
      try {
        RoundTrip trip;
        {
          const ScopedSpan span("npb.init");
          trip.masks = a.result.to_prune_map();
          trip.writer = setup.program->make_primal();
          trip.writer->init();
          for (int s = 0; s < a.warmup_steps; ++s) trip.writer->step();
          trip.writer->register_checkpoint(trip.writer_registry);
          trip.reader = setup.program->make_primal();
          trip.reader->init();
          trip.reader->register_checkpoint(trip.reader_registry);
        }
        const std::string key = setup.name + ".ckpt";
        const auto step = static_cast<std::uint64_t>(a.warmup_steps);
        for (int rep = 0; rep < kRoundTrips; ++rep) {
          std::int64_t t = now_ns();
          ckpt::WriteReport written;
          {
            const ScopedSpan span("ckpt.write");
            written = ckpt::write_checkpoint(store, key, trip.writer_registry,
                                             step, &trip.masks);
          }
          write_ms[a.index].push_back(seconds_since(t) * 1e3);
          container_bytes += written.file_bytes;
          full_bytes += trip.writer_registry.total_payload_bytes();
          ckpt::FailureInjector().poison_all(trip.reader_registry);
          t = now_ns();
          {
            const ScopedSpan span("ckpt.restart");
            (void)ckpt::restore_checkpoint(store, key, trip.reader_registry);
          }
          restart_ms[a.index].push_back(seconds_since(t) * 1e3);
          if (rep == 0) {
            const ScopedSpan span("verify");
            const int total = trip.reader->total_steps();
            for (int s = a.warmup_steps; s < total; ++s) trip.reader->step();
            ok = outputs_match(setup.golden, trip.reader->outputs(),
                               setup.program->traits().verify_tolerance);
          }
        }
      } catch (const std::exception& error) {
        std::fprintf(stderr, "%s round trip: %s\n", setup.name.c_str(),
                     error.what());
        ok = false;
      }
      if (!ok) {
        std::fprintf(stderr, "%s: restart from the fresh masks missed "
                             "golden\n", setup.name.c_str());
        ++outcome.failed;
        continue;
      }
      ++verified;
      last_masks[setup.name] = a.result.to_prune_map();
    }
    pass_program_s.push_back(std::move(program_s));
    (traced ? traced_pass_s : untraced_pass_s).push_back(pass_analyze_s);
    if (traced) ++traced_passes;
  }
  const double elapsed = seconds_since(start);
  const double peak_mib = peak_rss_mib();

  report.add("setup_s", median(setup_samples), "s", setup_samples.size());
  report.add("ok_share",
             static_cast<double>(verified) /
                 static_cast<double>(outcome.attempted),
             "ratio", outcome.attempted);
  report.add("failed_share",
             static_cast<double>(outcome.failed) /
                 static_cast<double>(outcome.attempted),
             "ratio", outcome.attempted);
  report.add("peak_rss_mib", peak_mib, "MiB", 1);
  report.add("analyze_pass_s", median_pass_s(pass_program_s), "s",
             pass_program_s.size());
  report.add("jobs_per_s", static_cast<double>(verified) / elapsed, "1/s",
             verified);
  // Each program's times sit in a cluster of their own; see
  // median_of_medians for why the p50 is taken per program.
  std::vector<double> all_writes;
  std::vector<double> all_restarts;
  for (std::size_t p = 0; p < programs.size(); ++p) {
    all_writes.insert(all_writes.end(), write_ms[p].begin(),
                      write_ms[p].end());
    all_restarts.insert(all_restarts.end(), restart_ms[p].begin(),
                        restart_ms[p].end());
  }
  report.add("write_ms_p50", median_of_medians(write_ms), "ms",
             all_writes.size());
  report.add("write_ms_p99", quantile(all_writes, 0.99), "ms",
             all_writes.size());
  report.add("restart_ms_p50", median_of_medians(restart_ms), "ms",
             all_restarts.size());
  report.add("restart_ms_p95", quantile(all_restarts, 0.95), "ms",
             all_restarts.size());
  report.add("storage_ratio",
             full_bytes == 0 ? 0.0
                             : static_cast<double>(container_bytes) /
                                   static_cast<double>(full_bytes),
             "ratio", all_writes.size());

  if (options.trace && traced_passes > 0) {
    const double n = static_cast<double>(traced_passes);
    for (const ProgramSetup& setup : programs) {
      const ProgramTotals& program = per_program[setup.name];
      const double count =
          std::max(1.0, static_cast<double>(program.analyses));
      report.add("core.analyze_s." + setup.name, program.analyze_s / count,
                 "s", program.analyses);
      report.add("core.unattributed_s." + setup.name,
                 program.unattributed_s / count, "s", program.analyses);
    }
    report.add("ad.record_s", totals.record_s / n, "s", traced_passes);
    report.add("ad.sweep_s", totals.sweep_s / n, "s", traced_passes);
    report.add("core.harvest_s", totals.harvest_s / n, "s", traced_passes);
    report.add("core.unattributed_s", totals.unattributed_s / n, "s",
               traced_passes);
    report.add("proc.user_s", totals.user_s / n, "s", traced_passes);
    report.add("proc.sys_s", totals.sys_s / n, "s", traced_passes);
    report.add("proc.minor_faults",
               static_cast<double>(totals.minor_faults) / n, "count",
               traced_passes);
    report.add("ad.tape_reserved_mib", totals.reserved_mib, "MiB",
               traced_passes);
    report.add("ad.tape_resident_peak_mib", totals.resident_peak_mib, "MiB",
               traced_passes);
    report.add("ad.tape_statements",
               static_cast<double>(totals.statements) / n, "count",
               traced_passes);
    report.add("ad.sweep_passes",
               static_cast<double>(totals.sweep_passes) / n, "count",
               traced_passes);
    report.add("trace.overhead_pct",
               untraced_pass_s.empty()
                   ? 0.0
                   : (median(traced_pass_s) / median(untraced_pass_s) - 1.0) *
                         100.0,
               "%", traced_pass_s.size());
  }
  // The stale-rerun probe runs C/R jobs on the masks of the last pass.
  std::vector<CrProgram> cr_programs;
  for (const ProgramSetup& setup : programs) {
    const auto masks = last_masks.find(setup.name);
    if (masks != last_masks.end()) {
      cr_programs.push_back(make_cr_program(*setup.program, masks->second));
    }
  }
  add_stale_rerun_counts(report, run_stale_rerun_probe(options, cr_programs));
  return outcome;
}

}  // namespace perfbench
