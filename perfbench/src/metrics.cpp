#include "metrics.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

void Report::add(std::string name, double value, std::string unit,
                 std::uint64_t samples) {
  metrics_.push_back(
      Metric{std::move(name), value, std::move(unit), samples});
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // JSON has no NaN/inf; a metric that could not be measured reads -1.
    const double value = std::isfinite(m.value) ? m.value : -1.0;
    std::snprintf(number, sizeof(number), "%.17g", value);
    out << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
        << number << ", \"unit\": \"" << m.unit
        << "\", \"samples\": " << m.samples << '}';
  }
  out << "}}";
  return out.str();
}

namespace {

/// Continued fraction of the incomplete beta function (modified Lentz).
double beta_continued_fraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  const auto guard = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1.0;
  double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m < 10000; ++m) {
    const double dm = m;
    double step = dm * (b - dm) * x / ((a + 2.0 * dm - 1.0) * (a + 2.0 * dm));
    d = 1.0 / guard(1.0 + step * d);
    c = guard(1.0 + step / c);
    h *= d * c;
    step = -(a + dm) * (a + b + dm) * x /
           ((a + 2.0 * dm) * (a + 2.0 * dm + 1.0));
    d = 1.0 / guard(1.0 + step * d);
    c = guard(1.0 + step / c);
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-14) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_continued_fraction(a, b, x) / a;
  }
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double a = q * (n + 1.0);
  const double b = (1.0 - q) * (n + 1.0);
  double estimate = 0.0;
  double below = 0.0;  // I_{i/n}(a, b) of the previous order statistic
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double upto =
        incomplete_beta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * values[i];
    below = upto;
  }
  return estimate;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double median_of_medians(const std::vector<std::vector<double>>& groups) {
  std::vector<double> medians;
  for (const std::vector<double>& group : groups) {
    if (!group.empty()) medians.push_back(median(group));
  }
  return median(std::move(medians));
}

namespace {

ProcUsage usage_of(int who) {
  rusage usage{};
  getrusage(who, &usage);
  ProcUsage out;
  out.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
               static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
  out.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
              static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  out.minor_faults = static_cast<std::uint64_t>(usage.ru_minflt);
  return out;
}

}  // namespace

ProcUsage proc_usage() { return usage_of(RUSAGE_SELF); }
ProcUsage thread_usage() { return usage_of(RUSAGE_THREAD); }

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
