// Measurement helpers of the perfbench harness that hold no model-checking
// logic: order statistics, in-memory spans with self-time accounting,
// expected-verdict tables, and the seed's SPEC-order permutation.  Kept
// apart so the self-test can exercise them on synthetic inputs.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `samples` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty vector.
double median(std::vector<double> samples);

/// The tail of a latency sample: the highest percentile of the ladder
/// 50, 90, 95, 99, 99.9, 99.99 that still has at least ten samples beyond
/// it, read by nearest rank.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples ranked above the reported one
};

/// Throws std::invalid_argument when fewer than 20 samples exist (not even
/// the median would have ten samples beyond it).
Tail tailPercentile(std::vector<double> samples);

/// One timed interval around a call into a layer.  Spans of one job share
/// `job`; `parent` is the index of the enclosing span, -1 for a root.
struct Span {
  std::string job;
  std::string name;
  int parent = -1;
  double startMs = 0.0;
  double endMs = 0.0;
  double durationMs() const { return endMs - startMs; }
};

/// Records nested spans in memory on one thread.  A span's parent is the
/// innermost span still open when it begins.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::string job) : job_(std::move(job)) {}

  /// Opens a span and returns its index.
  int begin(const std::string& name);
  /// Closes the span `index`, which must be the innermost open one.
  void end(int index);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Closes its span when it goes out of scope, exceptions included.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const std::string& name)
        : rec_(rec), index_(rec.begin(name)) {}
    ~Scope() { rec_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    int index_;
  };

 private:
  double nowMs() const;

  std::string job_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self time of each span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
std::vector<double> selfTimesMs(const std::vector<Span>& spans);

/// Self times summed by span name.
std::map<std::string, double> selfTimesByName(const std::vector<Span>& spans);

/// Expected verdicts of one workload, keyed by the obligation id the
/// generator's own text (seed 0) gives: "<target>/<module>.SPEC<k>".
using ExpectedTable = std::map<std::string, std::string>;

/// Parses "<id><TAB><Holds|Fails>" lines; blank lines and lines starting
/// with '#' are skipped.  Throws std::runtime_error on anything else.
ExpectedTable parseExpected(const std::string& text);
ExpectedTable loadExpected(const std::string& path);

/// One verdict the program produced, already mapped to its seed-0 id.
struct ObservedVerdict {
  std::string id;
  std::string verdict;
};

/// Every disagreement between `observed` and `expected`, one line each:
/// wrong verdicts, ids the table lacks, and table entries never observed.
/// An undecided verdict (Timeout, Error, ...) is a failure the caller
/// counts, not a wrong answer, so it is not compared.  Empty means the run
/// is correct.
std::vector<std::string> verdictMismatches(
    const ExpectedTable& expected, const std::vector<ObservedVerdict>& observed);

/// SMV text whose SPEC sections are reordered within each module.
struct PermutedText {
  std::string text;
  /// "<module>.SPEC<j>" in `text` -> the spec's name in the input text.
  std::map<std::string, std::string> toOriginal;
};

/// Seed 0 returns `text` unchanged.  Any other seed shuffles, inside each
/// MODULE, the SPEC sections (a SPEC line plus its continuation lines)
/// among the positions SPEC sections occupy; everything else stays put.
/// A pure function of (text, seed) on every platform.
PermutedText permuteSpecs(const std::string& text, std::uint64_t seed);

/// Maps an obligation id of permuted text back to its seed-0 id.
std::string originalId(const PermutedText& p, const std::string& id);

}  // namespace perfbench
