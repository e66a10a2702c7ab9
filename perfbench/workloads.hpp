// The benchmark's workloads: which generated model each one checks, how its
// jobs run, and why it was chosen.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct Workload {
  std::string name;
  std::string family;  ///< genmodel family: "afs2" or "ring"
  std::size_t n = 0;
  /// Replace each ring station's spec with the liveness spec
  /// AG (st<i> = want -> EF st<i> = cs), which no rule accepts.
  bool liveSpecs = false;
  /// Serve every obligation from a disk store that set-up fills.
  bool warm = false;
  /// Expected-verdict table, relative to the expected-table directory.
  std::string expectedFile;
  /// Why the workload is in the benchmark.
  std::string why;
};

/// All workloads, in the order BENCHMARK.json lists them.
const std::vector<Workload>& workloads();

/// Throws std::invalid_argument for an unknown name.
const Workload& findWorkload(const std::string& name);

/// The generator's SMV text for the workload (seed 0 order).
std::string workloadText(const Workload& w);

/// genmodel text for `family` at size n, with ring specs rewritten to the
/// liveness spec when `liveSpecs` is set.
std::string modelText(const std::string& family, std::size_t n,
                      bool liveSpecs);

}  // namespace perfbench
