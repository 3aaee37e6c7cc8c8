// Timing decorator over any ckpt::StorageBackend.
//
// Forwards every virtual of the StorageBackend interface — including the
// join points wait()/drained()/flush(), hierarchical_keys() and name() —
// to the wrapped backend, and records a count and busy time per operation.
// With tracing enabled each call is also a "backend.<op>" span; a writer's
// appends and a reader's open and reads are each folded into one span.  The
// forwarding contract is pinned by perfbench/tests/timing_backend_test.cpp:
// a decorator that swallowed wait()/drained() would silently change
// rotation and restart behaviour (AsyncBackend once did exactly that).
//
// A reader that stops before the end of its object (a header peek) is
// booked as `Peek`, not `OpenRead`/`Read`, once it is closed.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ckpt/storage_backend.hpp"

namespace perfbench {

enum class BackendOp : std::uint8_t {
  OpenWrite,
  Append,
  Commit,
  OpenRead,
  Read,
  Peek,
  Exists,
  List,
  Remove,
  Wait,
  Drained,
  Flush,
};
inline constexpr std::size_t kBackendOps = 12;

[[nodiscard]] const char* backend_op_name(BackendOp op);

struct BackendOpTotals {
  std::uint64_t count = 0;
  double seconds = 0.0;
};

struct BackendTotals {
  std::array<BackendOpTotals, kBackendOps> ops{};
  std::uint64_t delta_commits = 0;     ///< committed container v2 delta slots
  std::uint64_t keyframe_commits = 0;  ///< every other committed container

  [[nodiscard]] const BackendOpTotals& operator[](BackendOp op) const {
    return ops[static_cast<std::size_t>(op)];
  }
  [[nodiscard]] double seconds(std::initializer_list<BackendOp> which) const;
};

/// The decorator's counters; shared so they outlive a decorator owned by
/// another backend (an AsyncBackend's inner backend dies with it).
class TimingCounters {
 public:
  void record(BackendOp op, std::int64_t ns);
  void record_commit(bool delta);
  /// Snapshot (safe while other threads use the backend).
  [[nodiscard]] BackendTotals totals() const;

 private:
  struct OpCounter {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::int64_t> ns{0};
  };
  std::array<OpCounter, kBackendOps> ops_;
  std::atomic<std::uint64_t> delta_commits_{0};
  std::atomic<std::uint64_t> keyframe_commits_{0};
};

class TimingBackend final : public scrutiny::ckpt::StorageBackend {
 public:
  explicit TimingBackend(
      std::shared_ptr<scrutiny::ckpt::StorageBackend> inner);

  [[nodiscard]] std::unique_ptr<scrutiny::ckpt::StorageWriter> open_for_write(
      const std::string& key) override;
  [[nodiscard]] std::unique_ptr<scrutiny::ckpt::StorageReader> open_for_read(
      const std::string& key) override;
  [[nodiscard]] bool exists(const std::string& key) override;
  void remove(const std::string& key) override;
  [[nodiscard]] std::vector<std::string> list(
      const std::string& prefix) override;
  void wait() override;
  [[nodiscard]] bool drained() override;
  void flush() override;
  [[nodiscard]] bool hierarchical_keys() const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const std::shared_ptr<TimingCounters>& counters() const {
    return counters_;
  }
  [[nodiscard]] BackendTotals totals() const { return counters_->totals(); }

  /// Keeps copies of committed objects, up to `limit_bytes` in total, for
  /// the CRC-64 throughput probe over real container bytes.
  void capture_objects(std::uint64_t limit_bytes) {
    capture_limit_ = limit_bytes;
  }
  [[nodiscard]] std::vector<std::vector<std::byte>> take_captured();

  // Entry points for the writer handles.
  [[nodiscard]] bool capturing() const {
    return captured_bytes_.load(std::memory_order_relaxed) < capture_limit_;
  }
  void keep_captured(std::vector<std::byte> object);

 private:
  std::shared_ptr<scrutiny::ckpt::StorageBackend> inner_;
  std::shared_ptr<TimingCounters> counters_ =
      std::make_shared<TimingCounters>();

  std::uint64_t capture_limit_ = 0;
  std::atomic<std::uint64_t> captured_bytes_{0};
  std::mutex capture_mutex_;
  std::vector<std::vector<std::byte>> captured_;  // guarded by capture_mutex_
};

}  // namespace perfbench
