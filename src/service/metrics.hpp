// Live server metrics (service layer): a thread-safe registry of named
// counters, gauges, and fixed-bucket latency histograms, instrumented at
// the server's accept/admit paths and the scheduler's dispatch/verdict
// paths.  The registry is the source of truth behind the wire protocol's
// STATS command and the periodic "metrics" JSONL line `cmc serve` emits
// into its trace stream.
//
// Design
//  - Instruments are created on first use (counter("requests_admitted"))
//    and live for the registry's lifetime; call sites hold plain
//    references, so the hot path is one relaxed atomic op — no lock, no
//    lookup.  The registry mutex guards creation and snapshotting only.
//  - Histograms use a fixed bucket ladder (10 us .. 60 s at 1-2.5-5 per
//    decade, then +Inf), shared by every histogram so snapshots are
//    comparable; the sub-millisecond rungs resolve the small component
//    obligations that are the common case.  observe() is two relaxed
//    atomic adds plus a bucket scan over 21 doubles — cheap enough for
//    per-request and per-obligation use.
//  - Rendering: toJson() (nested, for the STATS response and the metrics
//    trace event) and toText() (Prometheus-style lines, what `cmc submit
//    --stats` prints, one metric per line so shell smoke tests can grep).
//    Both render from one consistent pass over sorted names.
//
// Consistency invariants the renderings expose (asserted by the CI smoke):
//    <h>_count == sum of <h>'s per-bucket counts (JSON)
//    <h>_bucket{le="+Inf"} == <h>_count               (text, cumulative)
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace cmc::service {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, open connections); may go down.
class Gauge {
 public:
  void inc(std::int64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void dec(std::int64_t n = 1) noexcept {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket latency histogram (seconds).  Lock-free observe; the
/// per-bucket counts, total count, and sum are each exact, and a snapshot
/// taken while observers run is at worst one observation skewed.
class LatencyHistogram {
 public:
  /// Upper bounds of the finite buckets, in seconds; an implicit +Inf
  /// bucket follows.  Shared by every histogram in the process.
  static const std::vector<double>& bucketBounds();

  void observe(double seconds) noexcept;

  struct Snapshot {
    std::vector<std::uint64_t> counts;  ///< per-bucket (finite + overflow)
    std::uint64_t count = 0;
    double sumSeconds = 0.0;

    /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside
    /// the covering bucket — the usual fixed-bucket estimator, so p99 is
    /// only as sharp as the ladder.  Observations in the +Inf bucket clamp
    /// to the last finite bound.  0 when the histogram is empty.
    double quantile(double q) const;
  };
  Snapshot snapshot() const;

 private:
  static constexpr std::size_t kFiniteBuckets = 21;
  std::atomic<std::uint64_t> counts_[kFiniteBuckets + 1]{};
  std::atomic<std::uint64_t> count_{0};
  /// Sum in microseconds so it fits an atomic integer exactly.
  std::atomic<std::uint64_t> sumMicros_{0};
};

class MetricsRegistry {
 public:
  /// Get-or-create.  The returned reference is stable for the registry's
  /// lifetime; resolve once, then update lock-free.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);

  /// Point-in-time value readers (0 when the instrument does not exist
  /// yet); for assertions and the STATUS command.
  std::uint64_t counterValue(const std::string& name) const;
  std::int64_t gaugeValue(const std::string& name) const;
  /// Estimated quantile of a histogram (0 when it does not exist yet);
  /// what STATS stamps as request_p50_seconds / request_p99_seconds.
  double histogramQuantile(const std::string& name, double q) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {"name":
  ///   {"count": n, "sum_seconds": s, "bounds": [...], "counts": [...]}}}
  std::string toJson() const;

  /// Prometheus-style text: `name value` per counter/gauge, and
  /// `name_count` / `name_sum` / cumulative `name_bucket{le="..."}` lines
  /// per histogram.  Names are rendered in sorted order.
  std::string toText() const;

 private:
  mutable std::mutex mutex_;
  // std::map: node-stable references, deterministic (sorted) rendering.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LatencyHistogram> histograms_;
};

}  // namespace cmc::service
