// Self-test for the benchmark's timing decorator: every StorageBackend
// virtual must reach the wrapped backend with its arguments and return
// value intact, and every call must be counted.  A decorator that answered
// wait()/drained()/flush() itself would change rotation and restart
// behaviour under measurement.
//
// It also pins the latency estimators (metrics.hpp).
//
// Build and run: cmake --build .bench_build/perfbench --target
// perfbench_selftest && .bench_build/perfbench/perfbench_selftest
// (exit 0 = pass).  perfbench/run.py runs it after every build.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/memory_backend.hpp"
#include "metrics.hpp"
#include "timing_backend.hpp"

namespace {

namespace ckpt = scrutiny::ckpt;

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

/// Records every virtual call; answers with values no default would give.
class ProbeBackend final : public ckpt::StorageBackend {
 public:
  mutable std::map<std::string, int> calls;
  std::string last_key;
  ckpt::MemoryBackend store;

  std::unique_ptr<ckpt::StorageWriter> open_for_write(
      const std::string& key) override {
    ++calls["open_for_write"];
    last_key = key;
    return store.open_for_write(key);
  }
  std::unique_ptr<ckpt::StorageReader> open_for_read(
      const std::string& key) override {
    ++calls["open_for_read"];
    last_key = key;
    return store.open_for_read(key);
  }
  bool exists(const std::string& key) override {
    ++calls["exists"];
    last_key = key;
    return store.exists(key);
  }
  void remove(const std::string& key) override {
    ++calls["remove"];
    last_key = key;
    store.remove(key);
  }
  std::vector<std::string> list(const std::string& prefix) override {
    ++calls["list"];
    last_key = prefix;
    return store.list(prefix);
  }
  void wait() override { ++calls["wait"]; }
  bool drained() override {
    ++calls["drained"];
    return false;  // the default would say true
  }
  void flush() override { ++calls["flush"]; }  // the default calls wait()
  bool hierarchical_keys() const override {
    ++calls["hierarchical_keys"];
    return false;  // the default would say true
  }
  std::string name() const override { return "probe"; }
};

}  // namespace

int main() {
  auto probe = std::make_shared<ProbeBackend>();
  perfbench::TimingBackend timing(probe);
  using perfbench::BackendOp;

  // Write path.
  {
    auto writer = timing.open_for_write("obj");
    const char payload[] = "0123456789abcdefghijklmnop";
    writer->append(payload, 10);
    writer->append(payload + 10, 16);
    check(writer->bytes_written() == 26, "bytes_written forwards");
    writer->commit();
  }
  check(probe->calls["open_for_write"] == 1 && probe->last_key == "obj",
        "open_for_write forwards its key");
  check(probe->store.exists("obj"), "commit reaches the inner writer");

  // Metadata calls.
  check(timing.exists("obj") && probe->calls["exists"] == 1,
        "exists forwards and returns the inner answer");
  check(!timing.exists("nope") && probe->last_key == "nope",
        "exists forwards a miss");
  const std::vector<std::string> listed = timing.list("o");
  check(listed.size() == 1 && listed[0] == "obj" && probe->last_key == "o",
        "list forwards prefix and result");

  // Full read, then a partial read (a header peek).
  {
    auto reader = timing.open_for_read("obj");
    check(reader->size().has_value() && *reader->size() == 26,
          "reader size forwards");
    char buffer[26] = {};
    reader->read(buffer, sizeof(buffer));
    check(std::memcmp(buffer, "0123456789abcdefghijklmnop", 26) == 0,
          "read returns the inner bytes");
    check(reader->bytes_read() == 26, "reader bytes_read forwards");
  }
  {
    auto reader = timing.open_for_read("obj");
    char buffer[4] = {};
    reader->read(buffer, sizeof(buffer));
  }
  check(probe->calls["open_for_read"] == 2, "open_for_read forwards");

  // Join points and properties.
  timing.wait();
  check(probe->calls["wait"] == 1, "wait forwards");
  check(!timing.drained() && probe->calls["drained"] == 1,
        "drained forwards the inner answer");
  timing.flush();
  check(probe->calls["flush"] == 1 && probe->calls["wait"] == 1,
        "flush forwards to the inner flush, not to wait");
  check(!timing.hierarchical_keys() && probe->calls["hierarchical_keys"] == 1,
        "hierarchical_keys forwards");
  check(timing.name() == "probe", "name forwards");

  timing.remove("obj");
  check(probe->calls["remove"] == 1 && !probe->store.exists("obj"),
        "remove forwards");

  // Every call was counted, with the peek booked apart from the full read.
  const perfbench::BackendTotals totals = timing.totals();
  check(totals[BackendOp::OpenWrite].count == 1, "open_for_write counted");
  check(totals[BackendOp::Append].count == 2, "appends counted");
  check(totals[BackendOp::Commit].count == 1, "commit counted");
  check(totals[BackendOp::OpenRead].count == 1, "full read's open counted");
  check(totals[BackendOp::Read].count == 1, "full read counted");
  check(totals[BackendOp::Peek].count == 1, "partial read counted as peek");
  check(totals[BackendOp::Exists].count == 2, "exists counted");
  check(totals[BackendOp::List].count == 1, "list counted");
  check(totals[BackendOp::Remove].count == 1, "remove counted");
  check(totals[BackendOp::Wait].count == 1, "wait counted");
  check(totals[BackendOp::Drained].count == 1, "drained counted");
  check(totals[BackendOp::Flush].count == 1, "flush counted");
  check(totals.keyframe_commits == 1 && totals.delta_commits == 0,
        "a non-delta object counts as a keyframe commit");

  // Harrell–Davis quantiles: exact on a constant set, symmetric on 1..n,
  // ordered in q, and smooth across a gap that sits at the median.
  std::vector<double> ramp;
  for (int i = 1; i <= 999; ++i) ramp.push_back(i);
  check(std::fabs(perfbench::quantile({7.0, 7.0, 7.0}, 0.5) - 7.0) < 1e-9,
        "quantile of a constant set");
  check(std::fabs(perfbench::quantile(ramp, 0.5) - 500.0) < 1e-6,
        "median of 1..999 is 500");
  check(perfbench::quantile(ramp, 0.5) < perfbench::quantile(ramp, 0.95) &&
            perfbench::quantile(ramp, 0.95) < perfbench::quantile(ramp, 0.99),
        "quantiles ordered in q");
  std::vector<double> split(100, 1.0);
  split.insert(split.end(), 100, 3.0);
  const double before = perfbench::quantile(split, 0.5);
  split[99] = 3.0;  // one sample changes side of the gap
  const double after = perfbench::quantile(split, 0.5);
  check(std::fabs(before - 2.0) < 1e-6 && after - before < 0.5,
        "one sample crossing the gap moves the median a little");
  check(perfbench::median({1.0, 2.0, 10.0, 11.0}) == 6.0, "plain median");
  const std::vector<std::vector<double>> groups = {
      {1.0, 1.0, 9.0}, {}, {2.0}, {5.0, 7.0}};
  check(perfbench::median_of_medians(groups) == 2.0,
        "median of the non-empty groups' medians");

  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
