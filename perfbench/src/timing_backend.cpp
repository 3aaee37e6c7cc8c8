#include "timing_backend.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "ckpt/checkpoint_io.hpp"
#include "trace.hpp"

namespace perfbench {

namespace ckpt = scrutiny::ckpt;

namespace {

// Container header prefix (ckpt/checkpoint_io.hpp): magic u64 | version
// u32 | step u64 | flags u8 — flags exist from version 2 on.
constexpr std::uint64_t kContainerMagic = 0x53435255'434B5031ull;
constexpr std::size_t kHeaderPrefix = 21;

bool is_delta_container(const std::byte* header, std::size_t size) {
  if (size < kHeaderPrefix) return false;
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::memcpy(&magic, header, sizeof(magic));
  std::memcpy(&version, header + 8, sizeof(version));
  const auto flags = static_cast<std::uint8_t>(header[20]);
  return magic == kContainerMagic && version >= 2 &&
         (flags & ckpt::kCkptFlagDelta) != 0;
}

/// Times one forwarded call: counter always, span when tracing.
class OpTimer {
 public:
  OpTimer(TimingCounters& owner, BackendOp op)
      : owner_(owner), op_(op), span_(backend_op_name(op)), start_(now_ns()) {}
  ~OpTimer() { owner_.record(op_, now_ns() - start_); }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  TimingCounters& owner_;
  BackendOp op_;
  ScopedSpan span_;
  std::int64_t start_;
};

class TimingWriter final : public ckpt::StorageWriter {
 public:
  TimingWriter(TimingBackend& owner, std::unique_ptr<ckpt::StorageWriter> inner)
      : owner_(owner),
        counters_(*owner.counters()),
        inner_(std::move(inner)),
        capture_(owner.capturing()) {}

  ~TimingWriter() override { flush_append_span(); }
  TimingWriter(const TimingWriter&) = delete;
  TimingWriter& operator=(const TimingWriter&) = delete;

  // A checkpoint streams hundreds of appends; one span per call would
  // swamp the span buffer, so a writer's appends become one span of their
  // summed duration (see Tracer::record_aggregate).
  void append(const void* data, std::size_t size) override {
    const std::int64_t start = now_ns();
    const auto* bytes = static_cast<const std::byte*>(data);
    if (header_.size() < kHeaderPrefix) {
      const std::size_t take = std::min(size, kHeaderPrefix - header_.size());
      header_.insert(header_.end(), bytes, bytes + take);
    }
    if (capture_) copy_.insert(copy_.end(), bytes, bytes + size);
    inner_->append(data, size);
    const std::int64_t ns = now_ns() - start;
    counters_.record(BackendOp::Append, ns);
    append_ns_ += ns;
  }

  void commit() override {
    flush_append_span();
    {
      OpTimer timer(counters_, BackendOp::Commit);
      inner_->commit();
    }
    counters_.record_commit(is_delta_container(header_.data(), header_.size()));
    if (capture_) owner_.keep_captured(std::move(copy_));
  }

  [[nodiscard]] std::uint64_t bytes_written() const noexcept override {
    return inner_->bytes_written();
  }

 private:
  void flush_append_span() {
    if (append_ns_ == 0) return;
    Tracer::instance().record_aggregate(backend_op_name(BackendOp::Append),
                                        append_ns_);
    append_ns_ = 0;
  }

  TimingBackend& owner_;
  TimingCounters& counters_;
  std::unique_ptr<ckpt::StorageWriter> inner_;
  std::vector<std::byte> header_;
  bool capture_;
  std::vector<std::byte> copy_;
  std::int64_t append_ns_ = 0;  ///< not yet in a span
};

class TimingReader final : public ckpt::StorageReader {
 public:
  TimingReader(std::shared_ptr<TimingCounters> owner,
               std::unique_ptr<ckpt::StorageReader> inner, std::int64_t open_ns)
      : owner_(std::move(owner)), inner_(std::move(inner)), ns_(open_ns) {}

  // Like appends, a reader's open and reads become one span, named once
  // the reader closes: a reader that stopped short of its object's end
  // was a header peek.
  ~TimingReader() override {
    const std::optional<std::uint64_t> total = inner_->size();
    const bool peek = total.has_value() && inner_->bytes_read() < *total;
    Tracer::instance().record_aggregate(
        backend_op_name(peek ? BackendOp::Peek : BackendOp::Read), ns_);
    if (peek) {
      owner_->record(BackendOp::Peek, ns_);
    } else {
      owner_->record(BackendOp::OpenRead, open_ns());
      owner_->record(BackendOp::Read, ns_ - open_ns());
    }
  }
  TimingReader(const TimingReader&) = delete;
  TimingReader& operator=(const TimingReader&) = delete;

  void read(void* data, std::size_t size) override {
    const std::int64_t start = now_ns();
    inner_->read(data, size);
    const std::int64_t ns = now_ns() - start;
    read_ns_ += ns;
    ns_ += ns;
  }

  [[nodiscard]] std::uint64_t bytes_read() const noexcept override {
    return inner_->bytes_read();
  }
  [[nodiscard]] std::optional<std::uint64_t> size() const override {
    return inner_->size();
  }

 private:
  [[nodiscard]] std::int64_t open_ns() const { return ns_ - read_ns_; }

  std::shared_ptr<TimingCounters> owner_;
  std::unique_ptr<ckpt::StorageReader> inner_;
  std::int64_t ns_;           ///< open + read time so far
  std::int64_t read_ns_ = 0;  ///< read time so far
};

}  // namespace

const char* backend_op_name(BackendOp op) {
  switch (op) {
    case BackendOp::OpenWrite: return "backend.open_for_write";
    case BackendOp::Append: return "backend.append";
    case BackendOp::Commit: return "backend.commit";
    case BackendOp::OpenRead: return "backend.open_for_read";
    case BackendOp::Read: return "backend.read";
    case BackendOp::Peek: return "backend.peek";
    case BackendOp::Exists: return "backend.exists";
    case BackendOp::List: return "backend.list";
    case BackendOp::Remove: return "backend.remove";
    case BackendOp::Wait: return "backend.wait";
    case BackendOp::Drained: return "backend.drained";
    case BackendOp::Flush: return "backend.flush";
  }
  return "backend.?";
}

double BackendTotals::seconds(std::initializer_list<BackendOp> which) const {
  double total = 0.0;
  for (const BackendOp op : which) total += (*this)[op].seconds;
  return total;
}

TimingBackend::TimingBackend(std::shared_ptr<ckpt::StorageBackend> inner)
    : inner_(std::move(inner)) {}

void TimingCounters::record(BackendOp op, std::int64_t ns) {
  OpCounter& counter = ops_[static_cast<std::size_t>(op)];
  counter.count.fetch_add(1, std::memory_order_relaxed);
  counter.ns.fetch_add(ns, std::memory_order_relaxed);
}

void TimingCounters::record_commit(bool delta) {
  (delta ? delta_commits_ : keyframe_commits_)
      .fetch_add(1, std::memory_order_relaxed);
}

void TimingBackend::keep_captured(std::vector<std::byte> object) {
  if (!capturing()) return;
  captured_bytes_.fetch_add(object.size(), std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(capture_mutex_);
  captured_.push_back(std::move(object));
}

std::vector<std::vector<std::byte>> TimingBackend::take_captured() {
  const std::lock_guard<std::mutex> lock(capture_mutex_);
  return std::move(captured_);
}

BackendTotals TimingCounters::totals() const {
  BackendTotals totals;
  for (std::size_t i = 0; i < kBackendOps; ++i) {
    totals.ops[i].count = ops_[i].count.load(std::memory_order_relaxed);
    totals.ops[i].seconds =
        static_cast<double>(ops_[i].ns.load(std::memory_order_relaxed)) * 1e-9;
  }
  totals.delta_commits = delta_commits_.load(std::memory_order_relaxed);
  totals.keyframe_commits = keyframe_commits_.load(std::memory_order_relaxed);
  return totals;
}

std::unique_ptr<ckpt::StorageWriter> TimingBackend::open_for_write(
    const std::string& key) {
  std::unique_ptr<ckpt::StorageWriter> writer;
  {
    OpTimer timer(*counters_, BackendOp::OpenWrite);
    writer = inner_->open_for_write(key);
  }
  return std::make_unique<TimingWriter>(*this, std::move(writer));
}

std::unique_ptr<ckpt::StorageReader> TimingBackend::open_for_read(
    const std::string& key) {
  // Booked by the reader when it closes (read vs peek is known only then).
  const std::int64_t start = now_ns();
  std::unique_ptr<ckpt::StorageReader> reader;
  try {
    reader = inner_->open_for_read(key);
  } catch (...) {
    const std::int64_t ns = now_ns() - start;
    counters_->record(BackendOp::OpenRead, ns);
    Tracer::instance().record_aggregate(backend_op_name(BackendOp::OpenRead),
                                        ns);
    throw;
  }
  return std::make_unique<TimingReader>(counters_, std::move(reader),
                                        now_ns() - start);
}

bool TimingBackend::exists(const std::string& key) {
  OpTimer timer(*counters_, BackendOp::Exists);
  return inner_->exists(key);
}

void TimingBackend::remove(const std::string& key) {
  OpTimer timer(*counters_, BackendOp::Remove);
  inner_->remove(key);
}

std::vector<std::string> TimingBackend::list(const std::string& prefix) {
  OpTimer timer(*counters_, BackendOp::List);
  return inner_->list(prefix);
}

void TimingBackend::wait() {
  OpTimer timer(*counters_, BackendOp::Wait);
  inner_->wait();
}

bool TimingBackend::drained() {
  OpTimer timer(*counters_, BackendOp::Drained);
  return inner_->drained();
}

void TimingBackend::flush() {
  OpTimer timer(*counters_, BackendOp::Flush);
  inner_->flush();
}

bool TimingBackend::hierarchical_keys() const {
  return inner_->hierarchical_keys();
}

std::string TimingBackend::name() const { return inner_->name(); }

}  // namespace perfbench
