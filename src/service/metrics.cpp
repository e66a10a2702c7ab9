#include "service/metrics.hpp"

#include <cmath>
#include <sstream>

#include "service/trace_log.hpp"

namespace cmc::service {

const std::vector<double>& LatencyHistogram::bucketBounds() {
  // 10 us .. 60 s, 1-2.5-5 per decade: the sub-millisecond rungs resolve
  // cache hits and the common small component obligations, the
  // middle of the ladder covers healthy checker attempts, the top covers
  // budget-bound runs.  Keep in sync with kFiniteBuckets.
  static const std::vector<double> kBounds = {
      0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001,
      0.0025,  0.005,    0.01,    0.025,  0.05,    0.1,    0.25,
      0.5,     1.0,      2.5,     5.0,    10.0,    30.0,   60.0};
  return kBounds;
}

void LatencyHistogram::observe(double seconds) noexcept {
  if (!(seconds >= 0.0)) seconds = 0.0;  // NaN and negatives clamp to 0
  const std::vector<double>& bounds = bucketBounds();
  std::size_t bucket = bounds.size();  // +Inf overflow bucket
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (seconds <= bounds[i]) {
      bucket = i;
      break;
    }
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sumMicros_.fetch_add(static_cast<std::uint64_t>(std::llround(seconds * 1e6)),
                       std::memory_order_relaxed);
}

double LatencyHistogram::Snapshot::quantile(double q) const {
  if (count == 0 || counts.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const std::vector<double>& bounds = bucketBounds();
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t next = cumulative + counts[i];
    if (counts[i] > 0 && static_cast<double>(next) >= target) {
      if (i >= bounds.size()) return bounds.back();  // +Inf: clamp
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double within =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(counts[i]);
      return lo + (bounds[i] - lo) * (within < 0.0 ? 0.0 : within);
    }
    cumulative = next;
  }
  return bounds.back();
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot s;
  s.counts.reserve(kFiniteBuckets + 1);
  for (const std::atomic<std::uint64_t>& c : counts_) {
    s.counts.push_back(c.load(std::memory_order_relaxed));
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sumSeconds =
      static_cast<double>(sumMicros_.load(std::memory_order_relaxed)) / 1e6;
  return s;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return gauges_[name];
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return histograms_[name];
}

std::uint64_t MetricsRegistry::counterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

std::int64_t MetricsRegistry::gaugeValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second.value();
}

double MetricsRegistry::histogramQuantile(const std::string& name,
                                          double q) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? 0.0 : it->second.snapshot().quantile(q);
}

std::string MetricsRegistry::toJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonObject counters;
  for (const auto& [name, c] : counters_) counters.putUint(name, c.value());
  JsonObject gauges;
  for (const auto& [name, g] : gauges_) {
    // Gauges can be negative; JsonObject has no signed put, so render raw.
    gauges.putRaw(name, std::to_string(g.value()));
  }
  JsonObject histograms;
  for (const auto& [name, h] : histograms_) {
    const LatencyHistogram::Snapshot s = h.snapshot();
    std::ostringstream bounds, counts;
    bounds << '[';
    const std::vector<double>& bb = LatencyHistogram::bucketBounds();
    for (std::size_t i = 0; i < bb.size(); ++i) {
      if (i > 0) bounds << ", ";
      bounds << jsonNumber(bb[i]);
    }
    bounds << ']';
    counts << '[';
    for (std::size_t i = 0; i < s.counts.size(); ++i) {
      if (i > 0) counts << ", ";
      counts << s.counts[i];
    }
    counts << ']';
    JsonObject hist;
    hist.putUint("count", s.count)
        .putDouble("sum_seconds", s.sumSeconds)
        .putRaw("bounds", bounds.str())
        .putRaw("counts", counts.str());
    histograms.putRaw(name, hist.str());
  }
  JsonObject root;
  root.putRaw("counters", counters.str())
      .putRaw("gauges", gauges.str())
      .putRaw("histograms", histograms.str());
  return root.str();
}

std::string MetricsRegistry::toText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    out << name << ' ' << c.value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    out << name << ' ' << g.value() << '\n';
  }
  const std::vector<double>& bounds = LatencyHistogram::bucketBounds();
  for (const auto& [name, h] : histograms_) {
    const LatencyHistogram::Snapshot s = h.snapshot();
    out << name << "_count " << s.count << '\n';
    out << name << "_sum " << jsonNumber(s.sumSeconds) << '\n';
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < s.counts.size(); ++i) {
      cumulative += s.counts[i];
      out << name << "_bucket{le=\"";
      if (i < bounds.size()) out << jsonNumber(bounds[i]);
      else out << "+Inf";
      out << "\"} " << cumulative << '\n';
    }
  }
  return out.str();
}

}  // namespace cmc::service
