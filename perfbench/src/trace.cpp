#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

// Upper bound on recorded spans (~40 MiB); later spans are counted as
// dropped rather than growing without limit.
constexpr std::size_t kMaxSpans = std::size_t{1} << 20;

struct ThreadState {
  std::vector<std::int32_t> stack;  ///< open span indices, innermost last
  std::int32_t job = -1;
  std::int64_t thread = -1;         ///< assigned lazily
  bool client = false;
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

/// Time each span's closed direct children cover, by span index.
std::vector<std::int64_t> child_time(const std::vector<Span>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  return child_ns;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_job(std::int32_t job) { thread_state().job = job; }

void Tracer::set_client_thread(bool client) {
  thread_state().client = client;
}

std::int32_t Tracer::begin(const char* name) {
  ThreadState& state = thread_state();
  Span span;
  span.name = name;
  span.parent = state.stack.empty() ? -1 : state.stack.back();
  span.job = state.job;
  span.client = state.client;
  std::int32_t index = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (state.thread < 0) state.thread = next_thread_++;
    span.thread = static_cast<std::uint32_t>(state.thread);
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return -1;
    }
    index = static_cast<std::int32_t>(spans_.size());
    span.start_ns = now_ns();
    spans_.push_back(span);
  }
  state.stack.push_back(index);
  return index;
}

void Tracer::end(std::int32_t index) {
  const std::int64_t t = now_ns();
  ThreadState& state = thread_state();
  if (!state.stack.empty() && state.stack.back() == index) {
    state.stack.pop_back();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

void Tracer::record_aggregate(const char* name, std::int64_t duration_ns) {
  if (!enabled()) return;
  const std::int32_t index = begin(name);
  if (index < 0) return;
  end(index);
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.start_ns = span.end_ns - duration_ns;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void Tracer::write_jsonl(const std::filesystem::path& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    throw std::runtime_error("cannot write trace file " + path.string());
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"job\":%d,\"thread\":%u}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.job, s.thread);
  }
  std::fclose(out);
}

std::map<std::string, SpanTotals> aggregate_client(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> child_ns = child_time(spans);
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns >= 0 && s.client) {
      SpanTotals& t = totals[s.name];
      const std::int64_t duration = s.end_ns - s.start_ns;
      t.total_s += static_cast<double>(duration) * 1e-9;
      t.self_s += static_cast<double>(duration - child_ns[i]) * 1e-9;
    }
  }
  return totals;
}

double child_coverage(const std::vector<Span>& spans,
                      const std::string& root) {
  const std::vector<std::int64_t> child_ns = child_time(spans);
  std::int64_t root_ns = 0;
  std::int64_t covered_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ns < 0 || root != spans[i].name) continue;
    root_ns += spans[i].end_ns - spans[i].start_ns;
    covered_ns += child_ns[i];
  }
  return root_ns == 0 ? 0.0
                      : static_cast<double>(covered_ns) /
                            static_cast<double>(root_ns);
}

}  // namespace perfbench
