// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files around each call into
// a src/ layer (no instrumentation lives inside src/).  Each span carries
// its name, monotonic start/end, the enclosing span on the same thread and
// the job it belongs to.  Spans stay in memory and are written out once,
// when the run ends.  With tracing disabled, ScopedSpan costs one relaxed
// atomic load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";      ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;   ///< -1 while open
  std::int32_t parent = -1;   ///< index of the enclosing span, same thread
  std::int32_t job = -1;      ///< job id current on the thread at begin
  std::uint32_t thread = 0;   ///< tracer-assigned thread index
  bool client = false;        ///< recorded on a load-generating thread
};

/// Self and total time aggregated per span name, in seconds.
struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
};

class Tracer {
 public:
  static Tracer& instance();

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Opens a span on the calling thread; returns its index (or -1 when
  /// tracing is off or the span cap is reached).
  std::int32_t begin(const char* name);
  void end(std::int32_t index);
  /// Records one closed span of `duration_ns`, ending now, under the
  /// calling thread's current span.  It stands for many short calls made
  /// inside that span (a writer's appends): self time and coverage come
  /// out exact, only its placement on the timeline is nominal.
  void record_aggregate(const char* name, std::int64_t duration_ns);

  /// Job id and client flag of the calling thread, stamped on later spans.
  static void set_job(std::int32_t job);
  static void set_client_thread(bool client);

  /// Copy of every span in recording order (open spans have end_ns -1).
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Writes one JSON object per span (JSON lines).
  void write_jsonl(const std::filesystem::path& path) const;

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::uint64_t dropped_ = 0;  // guarded by mutex_
  std::uint32_t next_thread_ = 0;  // guarded by mutex_
};

/// RAII span; no-op when tracing is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : index_(Tracer::instance().enabled() ? Tracer::instance().begin(name)
                                            : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::instance().end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int32_t index() const { return index_; }

 private:
  std::int32_t index_;
};

/// Self time (duration minus the time its same-thread children cover) and
/// total time per span name, over closed spans of load-generating threads.
[[nodiscard]] std::map<std::string, SpanTotals> aggregate_client(
    const std::vector<Span>& spans);

/// Share of the summed duration of spans named `root` that their direct
/// children cover.
[[nodiscard]] double child_coverage(const std::vector<Span>& spans,
                                    const std::string& root);

}  // namespace perfbench
