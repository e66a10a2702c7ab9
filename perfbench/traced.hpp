// The traced run: one `cmc check` job rebuilt from the outside out of each
// layer's public calls, in the order VerificationService makes them with
// one worker, engine auto, retry on and the obligation cache on.  Every
// call sits in an in-memory span, so the job splits into per-layer self
// times that add up to its wall time.
//
// Span names are "<layer>.<step>"; "job" and "obligation" are structural
// spans whose self time is the harness's own glue (service.unattributed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "service/job.hpp"

namespace perfbench {

/// Manager::stats() of the obligations' worker Contexts, where the
/// fixpoints run: counts are summed, the live-node peak is the largest any
/// one manager reached.
struct BddTotals {
  std::uint64_t nodesAllocated = 0;
  std::uint64_t peakLiveNodes = 0;
  std::uint64_t cacheLookups = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t uniqueLookups = 0;
  std::uint64_t gcRuns = 0;
  std::uint64_t gcReclaimed = 0;
};

struct TracedJob {
  std::vector<Span> spans;  ///< spans[0] is the "job" root
  double jobMs = 0.0;
  BddTotals bdd;
  /// Nodes the snapshot Context allocated (elaboration and engine probes).
  std::uint64_t snapshotNodes = 0;
  /// SymbolicSystem::transNodeCount() of each checked system, summed (the
  /// figure CheckResult::transNodes reports).
  std::uint64_t transNodes = 0;
  /// (obligation id, verdict) in dispatch order.
  std::vector<std::pair<std::string, std::string>> verdicts;
};

/// Runs `job` (text job; options as in the service) with spans.  With a
/// non-empty `cacheDir` the obligation cache loads that disk store.
TracedJob runTracedJob(const cmc::service::VerificationJob& job,
                       const std::string& cacheDir);

}  // namespace perfbench
