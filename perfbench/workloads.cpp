#include "workloads.hpp"

#include <sstream>
#include <stdexcept>

#include "gen/modelgen.hpp"

namespace perfbench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"afs2-compose", "afs2", 12, false, false, "afs2-12.tsv",
       // afs2-16 is the headline size but takes ~15 s a job, too long for
       // the number of runs one comparison makes.
       "36 of 72 obligations are global fallbacks (INIT blocks Rule 2); the "
       "composed fixpoint is ~87% of the job, so classifier and BDD core "
       "dominate"},
      {"ring-live", "ring", 24, true, false, "ring-live-24.tsv",
       "no rule accepts AG(want -> EF cs): all 24 composed obligations are "
       "global EU/AG fixpoints and 47 of 48 fail with a counterexample"},
      {"afs2-warm", "afs2", 12, false, true, "afs2-12.tsv",
       "every obligation is served from a disk store: parse, elaborate, "
       "canonicalise, fingerprint and cache read, no fixpoint"},
  };
  return kAll;
}

const Workload& findWorkload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

std::string modelText(const std::string& family, std::size_t n,
                      bool liveSpecs) {
  if (family == "afs2") return cmc::gen::afs2Model(n);
  if (family != "ring") throw std::invalid_argument("unknown family " + family);
  const std::string text = cmc::gen::ringModel(n);
  if (!liveSpecs) return text;
  // Each station module carries exactly one single-line SPEC.
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  std::string station;
  while (std::getline(in, line)) {
    if (line.rfind("MODULE station", 0) == 0) {
      station = line.substr(std::string("MODULE station").size());
    } else if (line.rfind("SPEC", 0) == 0) {
      line = "SPEC AG (st" + station + " = want -> EF st" + station + " = cs)";
    }
    out << line << '\n';
  }
  return out.str();
}

std::string workloadText(const Workload& w) {
  return modelText(w.family, w.n, w.liveSpecs);
}

}  // namespace perfbench
