#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>

namespace perfbench {

namespace {

void print_metric(bool& first, const std::string& name, double value) {
  std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(),
              std::isfinite(value) ? value : 0.0);
  first = false;
}

}  // namespace

Clock::time_point process_start() {
  static const Clock::time_point start = Clock::now();
  return start;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HistogramDelta::HistogramDelta(const std::string& name)
    : metric_(&mrts::obs::MetricsRegistry::global().histogram(name)) {}

void HistogramDelta::begin() {
  for (std::size_t i = 0; i < kBuckets; ++i) base_[i] = metric_->bucket(i);
  base_sum_ = metric_->sum();
}

std::uint64_t HistogramDelta::end() {
  std::uint64_t added = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t now = metric_->bucket(i);
    const std::uint64_t d = now > base_[i] ? now - base_[i] : 0;
    pooled_[i] += d;
    added += d;
  }
  const std::uint64_t sum = metric_->sum();
  pooled_sum_ += sum > base_sum_ ? sum - base_sum_ : 0;
  return added;
}

double HistogramDelta::mean() const {
  std::uint64_t n = 0;
  for (std::uint64_t c : pooled_) n += c;
  return n == 0 ? 0.0
                : static_cast<double>(pooled_sum_) / static_cast<double>(n);
}

double HistogramDelta::quantile(double q) const {
  std::uint64_t n = 0;
  for (std::uint64_t c : pooled_) n += c;
  if (n == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(std::clamp(q, 0.0, 1.0) *
                                               static_cast<double>(n - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += pooled_[i];
    if (seen > rank) {
      return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i)) - 1.0;
    }
  }
  return 0.0;
}

void print_result(const Outcome& outcome, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              outcome.attempted > 0 && outcome.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  bool first = true;
  if (!trace) {
    const double attempted =
        static_cast<double>(std::max<std::uint64_t>(outcome.attempted, 1));
    print_metric(first, "job_s_p50", median(outcome.job_s));
    print_metric(first, "job_s_p90", quantile(outcome.job_s, 0.9));
    print_metric(first, "us_per_element", median(outcome.us_per_element));
    print_metric(first, "peak_rss_mb", peak_rss_mb());
    print_metric(first, "pass_ratio",
                 (attempted - static_cast<double>(outcome.failed)) / attempted);
    print_metric(first, "setup_s", median(outcome.setup_s));
  } else {
    for (const auto& [name, value] : outcome.layers.fixed) {
      print_metric(first, name, value);
    }
    for (const auto& [name, samples] : outcome.layers.per_unit) {
      print_metric(first, name, median(samples));
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

SpanLog::Scope::Scope(SpanLog& log, const char* name) : log_(&log) {
  if (!log.enabled_) return;
  log.spans_.push_back(
      Span{name, log.open_.empty() ? 0 : log.open_.back(), log.now_us(), 0.0});
  id_ = static_cast<std::uint32_t>(log.spans_.size());
  log.open_.push_back(id_);
}

SpanLog::Scope::~Scope() {
  if (id_ == 0) return;
  log_->spans_[id_ - 1].end_us = log_->now_us();
  log_->open_.pop_back();
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << std::fixed << std::setprecision(3) << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i + 1
        << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
        << "}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

}  // namespace perfbench
