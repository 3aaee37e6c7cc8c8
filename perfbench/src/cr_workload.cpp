// cr-file and cr-remote: closed-loop checkpoint/restart jobs over the NPB
// suite, plus the stale-rerun known-defect probe.
//
// One operation is one job: a program runs from step 1 with a pruned
// checkpoint every step up to a seeded crash step, a new CheckpointManager
// on the same namespace restores into poisoned memory, and the job
// resumes to the end (still checkpointing) and must reproduce the golden
// outputs within the program's verify_tolerance.  Jobs come in rounds (see
// JobStream), and the run only ends at a round boundary so every figure
// covers whole rounds.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/async_backend.hpp"
#include "ckpt/failure.hpp"
#include "ckpt/file_backend.hpp"
#include "ckpt/manager.hpp"
#include "core/session.hpp"
#include "npb/suite.hpp"
#include "serve/daemon.hpp"
#include "serve/remote_backend.hpp"
#include "support/crc64.hpp"
#include "timing_backend.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace ckpt = scrutiny::ckpt;
namespace core = scrutiny::core;
namespace npb = scrutiny::npb;
namespace serve = scrutiny::serve;

constexpr int kClientsRemote = 2;
/// Real container bytes kept for the CRC-64 throughput probe.
constexpr std::uint64_t kCrcSampleBytes = std::uint64_t{32} << 20;

/// Analyzes every program; returns each program's analysis wall time.
std::vector<double> prepare_programs(std::vector<CrProgram>& out) {
  npb::register_suite();
  out.clear();
  std::vector<double> analyze_s;
  for (const npb::BenchmarkId id : npb::all_benchmarks()) {
    const core::AnyProgram& program = npb::benchmark_program(id);
    core::ScrutinySession session(program);
    const std::int64_t start = now_ns();
    ckpt::PruneMap masks = session.analyze().to_prune_map();
    analyze_s.push_back(seconds_since(start));
    out.push_back(make_cr_program(program, std::move(masks)));
  }
  return analyze_s;
}

/// The verify gate of ScrutinySession (scale-relative, NaN never matches).
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

struct JobSpec {
  int id = 0;
  const CrProgram* program = nullptr;
  int crash_step = 1;
  bool delta = false;     ///< prune+delta codec (else prune only)
  bool cleanup = true;    ///< remove the job's objects afterwards
  std::string basename;   ///< object namespace within the storage
};

/// Per-job measurements, merged into the run totals afterwards.
struct JobResult {
  std::size_t program = 0;  ///< index into the run's program list
  bool ok = false;
  double wall_s = 0.0;
  std::vector<double> write_ms;
  std::vector<double> restart_ms;
  std::uint64_t container_bytes = 0;
  std::uint64_t full_bytes = 0;
  std::uint64_t restore_bytes = 0;
  double codec_s = 0.0;
  std::uint64_t round_trips_in_writes = 0;
  // Traced jobs only, from the timing decorators:
  std::uint64_t delta_commits = 0;
  std::uint64_t keyframe_commits = 0;
  double drain_s = 0.0;  ///< inner FileBackend busy time (cr-file)
};

/// Builds the storage a job's managers sit on.  file: a fresh directory
/// per job, AsyncBackend over FileBackend (the file+async: stack), with
/// timing decorators outermost and around the inner backend when traced.
/// remote: the client's long-lived RemoteBackend, decorated per job.
class JobStorage {
 public:
  JobStorage(std::filesystem::path dir, bool traced)
      : dir_(std::move(dir)), traced_(traced) {}
  JobStorage(std::shared_ptr<ckpt::RemoteBackend> remote, bool traced)
      : remote_(std::move(remote)), traced_(traced) {}

  /// A fresh backend stack over the job's namespace (a restarted process
  /// builds its own).
  std::shared_ptr<ckpt::StorageBackend> open() {
    std::shared_ptr<ckpt::StorageBackend> backend;
    if (remote_ != nullptr) {
      backend = remote_;
    } else {
      std::filesystem::create_directories(dir_);
      std::unique_ptr<ckpt::StorageBackend> file =
          std::make_unique<ckpt::FileBackend>(dir_);
      if (traced_) {
        auto inner = std::make_unique<TimingBackend>(std::move(file));
        drain_counters_.push_back(inner->counters());
        file = std::move(inner);
      }
      backend = std::make_shared<ckpt::AsyncBackend>(std::move(file));
    }
    if (!traced_) return backend;
    auto timing = std::make_shared<TimingBackend>(std::move(backend));
    timing->capture_objects(kCrcSampleBytes);
    decorators_.push_back(timing);
    return timing;
  }

  void finish(JobResult& result, std::vector<std::vector<std::byte>>& crc_pool,
              std::uint64_t& crc_pool_bytes, std::mutex& crc_mutex) {
    for (const auto& timing : decorators_) {
      const BackendTotals totals = timing->totals();
      result.delta_commits += totals.delta_commits;
      result.keyframe_commits += totals.keyframe_commits;
      std::vector<std::vector<std::byte>> captured = timing->take_captured();
      const std::lock_guard<std::mutex> lock(crc_mutex);
      for (auto& object : captured) {
        if (crc_pool_bytes >= kCrcSampleBytes) break;
        crc_pool_bytes += object.size();
        crc_pool.push_back(std::move(object));
      }
    }
    decorators_.clear();
    // The inner decorator sees only the drain thread's writes (the app
    // thread's reads and metadata calls through AsyncBackend nest inside
    // the outer decorator's spans).
    for (const auto& counters : drain_counters_) {
      result.drain_s += counters->totals().seconds(
          {BackendOp::OpenWrite, BackendOp::Append, BackendOp::Commit});
    }
    drain_counters_.clear();
    if (remote_ == nullptr) std::filesystem::remove_all(dir_);
  }

  [[nodiscard]] ckpt::RemoteBackend* remote() const { return remote_.get(); }
  [[nodiscard]] bool traced() const { return traced_; }

 private:
  std::filesystem::path dir_;
  std::shared_ptr<ckpt::RemoteBackend> remote_;
  bool traced_;
  std::vector<std::shared_ptr<TimingBackend>> decorators_;
  std::vector<std::shared_ptr<TimingCounters>> drain_counters_;
};

JobResult run_job(const JobSpec& spec, JobStorage& storage) {
  JobResult result;
  const std::int64_t start = now_ns();
  Tracer::set_job(spec.id);
  const ScopedSpan job_span("job");
  const CrProgram& program = *spec.program;

  ckpt::ManagerConfig config;
  config.basename = spec.basename;
  config.interval = 1;
  config.keep_slots = 2;
  config.codec.delta = spec.delta;
  config.codec.keyframe_interval = 8;

  std::unique_ptr<core::PrimalInstance> app;
  ckpt::CheckpointRegistry registry;
  std::optional<ckpt::CheckpointManager> manager;
  bool ok = true;

  const auto checkpointed_step = [&](int step) {
    {
      const ScopedSpan span("npb.step");
      app->step();
    }
    const ScopedSpan span("ckpt.write");
    ckpt::RemoteBackend* const remote =
        storage.traced() ? storage.remote() : nullptr;
    const std::uint64_t trips_before =
        remote != nullptr ? remote->stats().round_trips : 0;
    const std::int64_t t = now_ns();
    const auto written =
        manager->maybe_checkpoint(static_cast<std::uint64_t>(step), registry);
    result.write_ms.push_back(seconds_since(t) * 1e3);
    if (remote != nullptr) {
      result.round_trips_in_writes +=
          remote->stats().round_trips - trips_before;
    }
    result.container_bytes += written->file_bytes;
    result.full_bytes += registry.total_payload_bytes();
    result.codec_s += written->codec_seconds;
  };
  const auto open_instance = [&] {
    const ScopedSpan span("npb.init");
    registry = ckpt::CheckpointRegistry();
    app = program.program->make_primal();
    app->init();
    app->register_checkpoint(registry);
  };
  const auto open_manager = [&] {
    const ScopedSpan span("ckpt.open");
    manager.emplace(config, storage.open());
    manager->set_prune_map(program.masks);
  };
  const auto close_manager = [&] {
    {
      const ScopedSpan span("ckpt.wait");
      manager->wait_for_io();
    }
    const ScopedSpan span("ckpt.close");
    manager.reset();  // joins the async drain thread
  };

  try {
    open_instance();
    open_manager();
    for (int step = 1; step <= spec.crash_step; ++step) checkpointed_step(step);
    close_manager();

    // The crash: a new instance with every checkpointed element poisoned,
    // and a new manager on the same namespace.
    open_instance();
    {
      const ScopedSpan span("ckpt.poison");
      ckpt::FailureInjector().poison_all(registry);
    }
    open_manager();
    std::optional<ckpt::RestoreReport> restored;
    {
      const ScopedSpan span("ckpt.restart");
      const std::int64_t t = now_ns();
      restored = manager->restart(registry);
      result.restart_ms.push_back(seconds_since(t) * 1e3);
    }
    if (!restored.has_value()) {
      std::fprintf(stderr, "job %d (%s): restart found no checkpoint\n",
                   spec.id, program.name.c_str());
      ok = false;
    } else {
      result.restore_bytes += restored->file_bytes;
      for (int step = static_cast<int>(restored->step) + 1;
           step <= program.total_steps; ++step) {
        checkpointed_step(step);
      }
      {
        const ScopedSpan span("ckpt.wait");
        manager->wait_for_io();
      }
      const ScopedSpan span("verify");
      if (!outputs_match(program.golden, app->outputs(), program.tolerance)) {
        std::fprintf(stderr, "job %d (%s, crash at %d): outputs miss golden\n",
                     spec.id, program.name.c_str(), spec.crash_step);
        ok = false;
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "job %d (%s): %s\n", spec.id, program.name.c_str(),
                 error.what());
    ok = false;
  }

  try {
    const ScopedSpan span("ckpt.cleanup");
    if (spec.cleanup && manager.has_value()) {
      for (const std::string& key : manager->list_checkpoint_keys()) {
        manager->storage().remove(key);
      }
    }
    manager.reset();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "job %d cleanup: %s\n", spec.id, error.what());
    ok = false;
  }
  result.ok = ok;
  result.wall_s = seconds_since(start);
  return result;
}

/// The seeded job stream.  A round holds every (program, crash step)
/// pair once — crash steps 1 .. total_steps - 1 — in a seeded order, so
/// every round has the same job mix and the seed decides which job runs
/// when and with which crash step.
class JobStream {
 public:
  JobStream(std::uint64_t seed, const std::vector<CrProgram>& programs)
      : rng_(seed) {
    for (std::size_t p = 0; p < programs.size(); ++p) {
      for (int crash = 1; crash < programs[p].total_steps; ++crash) {
        round_.emplace_back(p, crash);
      }
    }
  }

  [[nodiscard]] std::size_t round_size() const { return round_.size(); }

  /// Job `index` (rounds are generated in order, on demand).
  std::pair<std::size_t, int> at(std::size_t index) {
    const std::lock_guard<std::mutex> lock(mutex_);
    while (jobs_.size() <= index) {
      std::vector<std::pair<std::size_t, int>> round = round_;
      rng_.shuffle(round);
      jobs_.insert(jobs_.end(), round.begin(), round.end());
    }
    return jobs_[index];
  }

 private:
  std::mutex mutex_;
  SeededRng rng_;
  std::vector<std::pair<std::size_t, int>> round_;
  std::vector<std::pair<std::size_t, int>> jobs_;
};

double crc64_mbps(const std::vector<std::vector<std::byte>>& objects,
                  std::uint64_t bytes) {
  if (bytes == 0) return 0.0;
  std::vector<double> rates;
  std::uint64_t sink = 0;
  const std::int64_t start = now_ns();
  while (rates.size() < 5 || seconds_since(start) < 0.3) {
    const std::int64_t t = now_ns();
    scrutiny::Crc64 crc;
    for (const auto& object : objects) crc.update(object);
    sink ^= crc.value();
    rates.push_back(static_cast<double>(bytes) / seconds_since(t) / 1e6);
  }
  if (sink == 0x5eed) std::fprintf(stderr, " ");  // keep the CRC observable
  return median(rates);
}

struct Daemon {
  std::unique_ptr<serve::CheckpointDaemon> daemon;
  std::vector<std::shared_ptr<ckpt::RemoteBackend>> clients;

  void start(int clients_wanted, const std::string& tenant_prefix) {
    serve::DaemonConfig config;
    config.service.store.kind = ckpt::BackendKind::Memory;
    daemon = std::make_unique<serve::CheckpointDaemon>(config);
    daemon->start();
    for (int c = 0; c < clients_wanted; ++c) {
      ckpt::RemoteBackendConfig remote;
      remote.host = "127.0.0.1";
      remote.port = daemon->port();
      remote.tenant = tenant_prefix + std::to_string(c);
      auto client = std::make_shared<ckpt::RemoteBackend>(remote);
      client->ping();
      clients.push_back(std::move(client));
    }
  }
  void stop() {
    clients.clear();
    if (daemon != nullptr) daemon->stop();
    daemon.reset();
  }
};

}  // namespace

CrProgram make_cr_program(const core::AnyProgram& program,
                          ckpt::PruneMap masks) {
  CrProgram out;
  out.name = program.name();
  out.program = &program;
  out.masks = std::move(masks);
  out.golden = core::ScrutinySession(program).golden_outputs();
  out.tolerance = program.traits().verify_tolerance;
  out.total_steps = program.make_primal()->total_steps();
  return out;
}

Outcome run_cr(const Options& options, bool remote) {
  Outcome outcome;
  Report& report = outcome.report;
  const std::filesystem::path work = options.work_dir / "cr-file";
  std::filesystem::remove_all(work);

  // Set-up, repeated: analyses for the masks, golden runs, and for
  // cr-remote a daemon with its client connections.
  std::vector<CrProgram> programs;
  Daemon daemon;
  std::vector<double> setup_samples;
  std::vector<std::vector<double>> analyze_s;  // [repetition][program]
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    daemon.stop();
    const std::int64_t start = now_ns();
    analyze_s.push_back(prepare_programs(programs));
    if (remote) daemon.start(kClientsRemote, "client");
    setup_samples.push_back(seconds_since(start));
  }
  const int clients = remote ? kClientsRemote : 1;

  JobStream stream(options.seed, programs);
  const std::size_t round_size = stream.round_size();
  std::mutex mutex;  // guards everything below until the clients join
  std::size_t next_job = 0;
  std::size_t job_limit = std::numeric_limits<std::size_t>::max();
  std::vector<bool> round_traced;
  std::vector<JobResult> results;
  std::vector<std::size_t> result_round;
  std::vector<std::vector<std::byte>> crc_pool;
  std::uint64_t crc_pool_bytes = 0;
  std::mutex crc_mutex;
  std::optional<ProcUsage> traced_usage_start;

  const double untraced_until =
      options.trace ? options.seconds * kUntracedShare : 0.0;
  reset_peak_rss();
  const std::int64_t start = now_ns();

  // Closed loop: a client takes its next job only after the previous one
  // returned.  A round that started before the deadline is completed.
  const auto take_job = [&](bool& traced) -> std::optional<std::size_t> {
    const std::lock_guard<std::mutex> lock(mutex);
    if (next_job % round_size == 0 &&
        round_traced.size() == next_job / round_size) {
      const double now = seconds_since(start);
      if (now >= options.seconds) job_limit = std::min(job_limit, next_job);
      const bool trace_round = options.trace && now >= untraced_until;
      if (trace_round && !traced_usage_start.has_value()) {
        traced_usage_start = proc_usage();
        Tracer::instance().enable();
      }
      round_traced.push_back(trace_round);
    }
    if (next_job >= job_limit) return std::nullopt;
    traced = round_traced[next_job / round_size];
    return next_job++;
  };

  const auto client_loop = [&](int client) {
    Tracer::set_client_thread(true);
    bool traced = false;
    while (const auto index = take_job(traced)) {
      const auto [program, crash] = stream.at(*index);
      JobSpec spec;
      spec.id = static_cast<int>(*index);
      spec.program = &programs[program];
      spec.crash_step = crash;
      spec.delta = !remote;
      spec.basename = programs[program].name + "-" + std::to_string(*index);
      JobStorage storage =
          remote ? JobStorage(daemon.clients[static_cast<std::size_t>(client)],
                              traced)
                 : JobStorage(work / ("job-" + std::to_string(*index)), traced);
      JobResult result = run_job(spec, storage);
      result.program = program;
      try {
        storage.finish(result, crc_pool, crc_pool_bytes, crc_mutex);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "job %d teardown: %s\n", spec.id, error.what());
        result.ok = false;
      }
      const std::lock_guard<std::mutex> lock(mutex);
      results.push_back(std::move(result));
      result_round.push_back(*index / round_size);
    }
  };

  if (clients == 1) {
    client_loop(0);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(client_loop, c);
    for (std::thread& thread : threads) thread.join();
  }
  const double elapsed = seconds_since(start);
  const double peak_mib = peak_rss_mib();
  const ProcUsage usage_end = proc_usage();
  Tracer::set_client_thread(false);

  // ---- end-to-end figures (every job of the run) -------------------------
  std::vector<double> write_ms;
  std::vector<double> restart_ms;
  std::vector<std::vector<double>> write_ms_by_program(programs.size());
  std::vector<std::vector<double>> restart_ms_by_program(programs.size());
  std::uint64_t container_bytes = 0;
  std::uint64_t full_bytes = 0;
  std::uint64_t verified = 0;
  for (const JobResult& result : results) {
    ++outcome.attempted;
    if (!result.ok) {
      ++outcome.failed;
    } else {
      ++verified;
    }
    write_ms.insert(write_ms.end(), result.write_ms.begin(),
                    result.write_ms.end());
    restart_ms.insert(restart_ms.end(), result.restart_ms.begin(),
                      result.restart_ms.end());
    auto& program_writes = write_ms_by_program[result.program];
    program_writes.insert(program_writes.end(), result.write_ms.begin(),
                          result.write_ms.end());
    auto& program_restarts = restart_ms_by_program[result.program];
    program_restarts.insert(program_restarts.end(), result.restart_ms.begin(),
                            result.restart_ms.end());
    container_bytes += result.container_bytes;
    full_bytes += result.full_bytes;
  }
  const double attempted =
      static_cast<double>(std::max<std::uint64_t>(1, outcome.attempted));
  report.add("setup_s", median(setup_samples), "s", setup_samples.size());
  report.add("ok_share", static_cast<double>(verified) / attempted, "ratio",
             outcome.attempted);
  report.add("failed_share", static_cast<double>(outcome.failed) / attempted,
             "ratio", outcome.attempted);
  report.add("peak_rss_mib", peak_mib, "MiB", 1);
  report.add("analyze_pass_s", median_pass_s(analyze_s), "s",
             analyze_s.size());
  report.add("jobs_per_s", static_cast<double>(verified) / elapsed, "1/s",
             verified);
  report.add("write_ms_p50", median_of_medians(write_ms_by_program), "ms",
             write_ms.size());
  report.add("write_ms_p99", quantile(write_ms, 0.99), "ms", write_ms.size());
  report.add("restart_ms_p50", median_of_medians(restart_ms_by_program), "ms",
             restart_ms.size());
  report.add("restart_ms_p95", quantile(restart_ms, 0.95), "ms",
             restart_ms.size());
  report.add("storage_ratio",
             full_bytes == 0 ? 0.0
                             : static_cast<double>(container_bytes) /
                                   static_cast<double>(full_bytes),
             "ratio", write_ms.size());

  // ---- per-layer figures (traced rounds only) ----------------------------
  if (options.trace) {
    JobResult traced_sum;
    std::vector<double> round_s_traced(round_traced.size(), 0.0);
    std::vector<double> round_s_untraced(round_traced.size(), 0.0);
    std::uint64_t traced_jobs = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const std::size_t round = result_round[i];
      const JobResult& r = results[i];
      if (!round_traced[round]) {
        round_s_untraced[round] += r.wall_s;
        continue;
      }
      round_s_traced[round] += r.wall_s;
      ++traced_jobs;
      traced_sum.write_ms.insert(traced_sum.write_ms.end(), r.write_ms.begin(),
                                 r.write_ms.end());
      traced_sum.container_bytes += r.container_bytes;
      traced_sum.full_bytes += r.full_bytes;
      traced_sum.restore_bytes += r.restore_bytes;
      traced_sum.codec_s += r.codec_s;
      traced_sum.round_trips_in_writes += r.round_trips_in_writes;
      traced_sum.delta_commits += r.delta_commits;
      traced_sum.keyframe_commits += r.keyframe_commits;
      traced_sum.drain_s += r.drain_s;
    }
    const auto positive = [](std::vector<double> values) {
      std::erase_if(values, [](double v) { return v <= 0.0; });
      return values;
    };
    const double rounds =
        std::max(1.0, static_cast<double>(traced_jobs) /
                          static_cast<double>(round_size));
    const std::uint64_t n_rounds = traced_jobs / round_size;

    // Only the client spans of traced rounds' jobs count (a client can
    // still be finishing an untraced job when tracing starts).
    std::vector<Span> spans = Tracer::instance().spans();
    for (Span& span : spans) {
      const bool keep =
          span.client && span.job >= 0 &&
          static_cast<std::size_t>(span.job) < next_job &&
          round_traced[static_cast<std::size_t>(span.job) / round_size];
      if (!keep) span.end_ns = -1;  // excluded from aggregation
    }
    const auto client = aggregate_client(spans);
    const auto self = [&](const char* name) {
      const auto it = client.find(name);
      return it == client.end() ? 0.0 : it->second.self_s;
    };
    const auto total = [&](const char* name) {
      const auto it = client.find(name);
      return it == client.end() ? 0.0 : it->second.total_s;
    };
    const double backend_write = self("backend.open_for_write") +
                                 self("backend.append") +
                                 self("backend.commit");
    const double backend_read =
        self("backend.open_for_read") + self("backend.read");
    const double backend_meta = self("backend.exists") + self("backend.list") +
                                self("backend.remove") + self("backend.peek");
    const double backend_wait = self("backend.wait") + self("backend.drained") +
                                self("backend.flush");
    const auto per_round = [&](const char* name, double value,
                               const char* unit) {
      report.add(name, value / rounds, unit, n_rounds);
    };
    per_round("npb.init_s", self("npb.init"), "s");
    per_round("npb.step_s", self("npb.step"), "s");
    per_round("ckpt.write_s", total("ckpt.write"), "s");
    per_round("ckpt.codec_s", traced_sum.codec_s, "s");
    per_round("backend.write_s", backend_write, "s");
    per_round("ckpt.write_self_s",
             self("ckpt.write") - traced_sum.codec_s, "s");
    per_round("ckpt.restart_s", total("ckpt.restart"), "s");
    per_round("backend.read_s", backend_read, "s");
    per_round("backend.meta_s", backend_meta, "s");
    per_round("ckpt.restart_self_s", self("ckpt.restart"), "s");
    per_round("backend.wait_s", backend_wait, "s");
    per_round("ckpt.other_s",
             self("ckpt.open") + self("ckpt.wait") + self("ckpt.close") +
                 self("ckpt.poison") + self("ckpt.cleanup"),
             "s");
    per_round("verify_s", self("verify"), "s");
    if (!remote) per_round("backend.drain_s", traced_sum.drain_s, "s");
    per_round("ckpt.writes", static_cast<double>(traced_sum.write_ms.size()),
             "count");
    per_round("ckpt.delta_slots",
             static_cast<double>(traced_sum.delta_commits), "count");
    per_round("ckpt.keyframes",
             static_cast<double>(traced_sum.keyframe_commits), "count");
    per_round("ckpt.container_bytes",
             static_cast<double>(traced_sum.container_bytes), "B");
    per_round("ckpt.full_bytes", static_cast<double>(traced_sum.full_bytes),
              "B");
    per_round("ckpt.restore_bytes",
             static_cast<double>(traced_sum.restore_bytes), "B");
    per_round("support.crc64_bytes",
             static_cast<double>(traced_sum.container_bytes +
                                 traced_sum.restore_bytes),
             "B");
    report.add("support.crc64_MBps", crc64_mbps(crc_pool, crc_pool_bytes),
               "MB/s", crc_pool.size());
    if (traced_usage_start.has_value()) {
      per_round("proc.user_s", usage_end.user_s - traced_usage_start->user_s,
                "s");
      per_round("proc.sys_s", usage_end.sys_s - traced_usage_start->sys_s, "s");
      per_round("proc.minor_faults",
                static_cast<double>(usage_end.minor_faults -
                                    traced_usage_start->minor_faults),
                "count");
    }
    report.add("trace.job_coverage", child_coverage(spans, "job"), "ratio",
               traced_jobs);
    const std::vector<double> traced_rounds = positive(round_s_traced);
    const std::vector<double> untraced_rounds = positive(round_s_untraced);
    report.add("trace.overhead_pct",
               untraced_rounds.empty()
                   ? 0.0
                   : (median(traced_rounds) / median(untraced_rounds) - 1.0) *
                         100.0,
               "%", traced_rounds.size());

    if (remote) {
      const double writes = static_cast<double>(
          std::max<std::size_t>(1, traced_sum.write_ms.size()));
      report.add("serve.wire_MBps",
                 backend_write > 0.0
                     ? static_cast<double>(traced_sum.container_bytes) /
                           backend_write / 1e6
                     : 0.0,
                 "MB/s", traced_sum.write_ms.size());
      report.add("serve.round_trips_per_write",
                 static_cast<double>(traced_sum.round_trips_in_writes) / writes,
                 "count", traced_sum.write_ms.size());
      ckpt::RemoteBackendStats client_stats;
      for (const auto& c : daemon.clients) {
        const ckpt::RemoteBackendStats s = c->stats();
        client_stats.reconnects += s.reconnects;
        client_stats.retried_ops += s.retried_ops;
      }
      const serve::DaemonStats daemon_stats = daemon.daemon->stats();
      const serve::ServiceStats service_stats =
          daemon.daemon->service().stats();
      report.add_count("serve.reconnects",
                       static_cast<double>(client_stats.reconnects));
      report.add_count("serve.retried_ops",
                       static_cast<double>(client_stats.retried_ops));
      report.add_count("serve.protocol_errors",
                       static_cast<double>(daemon_stats.protocol_errors));
      report.add("serve.daemon_commits",
                 static_cast<double>(daemon_stats.commits) /
                     (static_cast<double>(results.size()) /
                      static_cast<double>(round_size)),
                 "count", results.size() / round_size);
      report.add_count(
          "serve.peak_queue_depth",
          static_cast<double>(service_stats.scheduler.peak_queue_depth));
      report.add_count(
          "serve.admission_stalls",
          static_cast<double>(service_stats.scheduler.admission_stalls));
    }
  }
  daemon.stop();
  std::filesystem::remove_all(work);
  add_stale_rerun_counts(report, run_stale_rerun_probe(options, programs));
  return outcome;
}

StaleRerunCounts run_stale_rerun_probe(
    const Options& options, const std::vector<CrProgram>& programs) {
  // Quiet the probe's expected warnings on the real stderr while counting
  // them: route fd 2 to a file in the checkout for the probe's duration.
  std::filesystem::create_directories(options.work_dir);
  const std::filesystem::path log = options.work_dir / "stale-rerun.log";
  std::fflush(stderr);
  const int saved = dup(STDERR_FILENO);
  std::FILE* sink = std::fopen(log.c_str(), "w");
  if (sink != nullptr) dup2(fileno(sink), STDERR_FILENO);

  StaleRerunCounts counts;
  try {
    Daemon daemon;
    daemon.start(1, "probe");
    SeededRng rng(options.seed ^ 0x5ca1ab1eull);
    int id = 0;
    for (const CrProgram& program : programs) {
      JobStorage storage(daemon.clients[0], false);
      JobSpec spec;
      spec.program = &program;
      spec.delta = true;
      spec.basename = "stale-" + program.name;
      // First run keeps its slots; the rerun lands on top of them.
      spec.id = id++;
      spec.cleanup = false;
      spec.crash_step = rng.between(1, program.total_steps - 1);
      (void)run_job(spec, storage);
      spec.id = id++;
      spec.cleanup = true;
      spec.crash_step = rng.between(1, program.total_steps - 1);
      if (!run_job(spec, storage).ok) ++counts.mismatches;
    }
    daemon.stop();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "stale-rerun probe aborted: %s\n", error.what());
    ++counts.mismatches;
  }

  std::fflush(stderr);
  if (sink != nullptr) std::fclose(sink);
  dup2(saved, STDERR_FILENO);
  close(saved);
  std::ifstream in(log);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("skipping unusable checkpoint") != std::string::npos) {
      ++counts.warnings;
    }
  }
  return counts;
}

}  // namespace perfbench
